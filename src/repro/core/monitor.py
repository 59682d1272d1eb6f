"""Passive mode: concurrent, energy-interference-free stream tracing.

The monitor acquires the four streams of §3.1 without the target's
active involvement and relays them to the host with a shared timebase:

- **energy** — Vcap/Vreg digitised by EDB's ADC at a fixed sample rate;
- **watchpoints** — program events decoded from the code-marker GPIO
  lines;
- **iobus** — bytes/transactions observed on the UART and I2C taps;
- **rfid** — RFID messages decoded from the RF demodulator taps
  (decoded *externally*, so messages are visible even when the target
  itself fails to decode them — §4.1.2's point).

The streams land in one list of :class:`StreamEvent` records ordered by
time, which is what lets a developer "correlate changes in system
behavior with changes in energy state".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.sim import units
from repro.sim.kernel import Event, Simulator


class StreamEvent(NamedTuple):
    """One event on one passive stream.

    Immutable, compared and hashed field by field.  A named tuple
    because every energy sample builds one, and a frozen dataclass
    costs about twice as much to construct.
    """

    time: float
    stream: str
    value: Any
    vcap: float  # energy context captured with the event


@dataclass
class WatchpointStats:
    """Aggregate view of one watchpoint id's hits."""

    watchpoint_id: int
    hits: int = 0
    energy_readings: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)


class PassiveMonitor:
    """Concurrent stream acquisition with a unified timeline.

    Construction wires nothing; call :meth:`enable` per stream (the
    console's ``trace`` command).  The board attaches the actual signal
    sources via the ``attach_*`` callbacks.
    """

    STREAMS = ("energy", "watchpoints", "iobus", "rfid")

    def __init__(
        self,
        sim: Simulator,
        read_vcap: Callable[[], float],
        read_vreg: Callable[[], float],
        sample_rate: float = 4 * units.KHZ,
    ) -> None:
        self.sim = sim
        self.read_vcap = read_vcap
        self.read_vreg = read_vreg
        self.sample_rate = sample_rate
        self.events: list[StreamEvent] = []
        self.enabled: set[str] = set()
        self.watchpoints: dict[int, WatchpointStats] = {}
        self.disabled_watchpoints: set[int] = set()  # console `watch dis id`
        self._energy_event: Event | None = None
        self.listeners: list[Callable[[StreamEvent], None]] = []

    # -- stream control ----------------------------------------------------
    def enable(self, stream: str) -> None:
        """Start acquiring one stream (idempotent)."""
        if stream not in self.STREAMS:
            raise ValueError(f"unknown stream {stream!r}; have {self.STREAMS}")
        if stream in self.enabled:
            return
        self.enabled.add(stream)
        if stream == "energy" and self._energy_event is None:
            # Passive: a sample reads Vcap/Vreg through EDB's ADC and
            # records it; the listeners only log and arm device watches.
            self._energy_event = self.sim.call_every(
                1.0 / self.sample_rate, self._sample_energy, passive=True
            )

    def disable(self, stream: str) -> None:
        """Stop acquiring one stream."""
        self.enabled.discard(stream)
        if stream == "energy" and self._energy_event is not None:
            self._energy_event.cancel()
            self._energy_event = None

    # -- acquisition -----------------------------------------------------------
    def _emit(self, stream: str, value: Any) -> None:
        event = StreamEvent(
            time=self.sim.now, stream=stream, value=value, vcap=self.read_vcap()
        )
        self.events.append(event)
        for listener in self.listeners:
            listener(event)

    def _sample_energy(self) -> None:
        # ``_emit`` in one pass, with its ADC draw order: the value's
        # Vcap, then Vreg, then the event's Vcap context.
        if "energy" not in self.enabled:
            return
        read_vcap = self.read_vcap
        value = {"vcap": read_vcap(), "vreg": self.read_vreg()}
        event = StreamEvent(self.sim._now, "energy", value, read_vcap())
        self.events.append(event)
        for listener in self.listeners:
            listener(event)

    def on_watchpoint(self, watchpoint_id: int) -> None:
        """Called by the board when the marker decoder sees a hit."""
        if watchpoint_id in self.disabled_watchpoints:
            return
        stats = self.watchpoints.setdefault(
            watchpoint_id, WatchpointStats(watchpoint_id)
        )
        stats.hits += 1
        vcap = self.read_vcap()
        stats.energy_readings.append(vcap)
        stats.times.append(self.sim.now)
        if "watchpoints" in self.enabled:
            self._emit("watchpoints", watchpoint_id)

    def on_io(self, bus: str, payload: Any) -> None:
        """Called by the board's UART/I2C taps."""
        if "iobus" in self.enabled:
            self._emit("iobus", {"bus": bus, "payload": payload})

    def on_rfid(self, message: Any) -> None:
        """Called by the board's RFID demod/mod taps."""
        if "rfid" in self.enabled:
            self._emit("rfid", message)

    # -- queries ------------------------------------------------------------------
    def stream_events(self, stream: str) -> list[StreamEvent]:
        """All events of one stream, in time order."""
        return [e for e in self.events if e.stream == stream]

    def energy_series(self) -> tuple[list[float], list[float]]:
        """``(times, vcap)`` from the energy stream."""
        events = self.stream_events("energy")
        return [e.time for e in events], [e.value["vcap"] for e in events]

    def watchpoint_stats(self, watchpoint_id: int) -> WatchpointStats:
        """Hit statistics for one watchpoint id (empty if never hit)."""
        return self.watchpoints.get(
            watchpoint_id, WatchpointStats(watchpoint_id)
        )

    def energy_between(
        self, start_id: int, end_id: int, capacitance: float
    ) -> list[float]:
        """Per-occurrence energy cost between two watchpoints, in joules.

        Pairs each hit of ``start_id`` with the next hit of ``end_id``
        and converts the Vcap difference to energy — the methodology
        behind Figure 11's per-iteration energy profile ("calculated
        from the difference between energy level snapshots taken by
        watchpoints").  Pairs interrupted by a reboot (voltage *rising*
        across the pair, or another ``start_id`` first) are dropped.
        """
        starts = self.watchpoints.get(start_id)
        ends = self.watchpoints.get(end_id)
        if starts is None or ends is None:
            return []
        if start_id == end_id:
            # Full-iteration cost: pair consecutive hits of the same
            # watchpoint (wp1 -> next wp1 spans one whole loop body).
            costs = []
            for i in range(len(starts.times) - 1):
                v_start = starts.energy_readings[i]
                v_end = starts.energy_readings[i + 1]
                if v_end > v_start:
                    continue  # a charge period intervened
                costs.append(
                    units.cap_energy(capacitance, v_start)
                    - units.cap_energy(capacitance, v_end)
                )
            return costs
        costs: list[float] = []
        end_index = 0
        for i, t_start in enumerate(starts.times):
            next_start = (
                starts.times[i + 1] if i + 1 < len(starts.times) else float("inf")
            )
            while end_index < len(ends.times) and ends.times[end_index] <= t_start:
                end_index += 1
            if end_index >= len(ends.times):
                break
            t_end = ends.times[end_index]
            if t_end >= next_start:
                continue  # iteration cut by a reboot before reaching end_id
            v_start = starts.energy_readings[i]
            v_end = ends.energy_readings[end_index]
            if v_end > v_start:
                continue  # charged across the pair: not a clean measurement
            costs.append(
                units.cap_energy(capacitance, v_start)
                - units.cap_energy(capacitance, v_end)
            )
        return costs

    def clear(self) -> None:
        """Drop accumulated events, watchpoint statistics, and masks.

        ``disabled_watchpoints`` is session state too (console ``watch
        dis id``): a monitor reused across debug sessions must not
        silently keep suppressing watchpoints a previous session
        disabled.  Listeners are wiring, not data, so they survive.
        """
        self.events.clear()
        self.watchpoints.clear()
        self.disabled_watchpoints.clear()
