"""The simulation clock and event queue.

The target device is the primary driver of simulated time: it advances
the clock one instruction (or one high-level operation) at a time.  All
other activity — EDB's ADC sampling, the RFID reader's inventory rounds,
harvesting-environment changes — is expressed as scheduled events that
fire as the clock sweeps past their deadline.

The kernel is intentionally simple: a monotonic float time in seconds, a
binary-heap event queue, and a handful of hooks.  There is no implicit
concurrency; everything happens in deterministic order (time, then
insertion sequence).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.sim.rng import RngHub
from repro.sim.trace import TraceRecorder


class BudgetExceeded(Exception):
    """A watchdog budget (simulated cycles or wall clock) expired.

    Raised by supervision — a device watch whose cycle deadline or
    wall-clock poll fired, or a wall-clock alarm — to unwind a run
    that would otherwise never terminate.  Defined here (not in the
    campaign package) so the runtime executor can catch it without a
    layering violation; the campaign's conservative ``NONTERMINATING``
    verdict is built on top of this exception.
    """

    def __init__(self, message: str, budget: str = "unspecified") -> None:
        super().__init__(message)
        self.budget = budget


@dataclass(order=True)
class Event:
    """A scheduled callback. Ordered by (time, sequence number)."""

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    period: float | None = field(compare=False, default=None)
    cancelled: bool = field(compare=False, default=False)
    host: bool = field(compare=False, default=False)
    passive: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Prevent the event (and its periodic reschedules) from firing."""
        self.cancelled = True


class Simulator:
    """Global simulation context: clock, event queue, traces, RNG.

    Parameters
    ----------
    seed:
        Master seed for all random streams (see :class:`RngHub`).

    Notes
    -----
    Time only moves forward.  ``advance(dt)`` is the single way to move
    it, and it fires every scheduled event whose deadline falls within
    the swept interval, in deadline order.  Events scheduled *during*
    the sweep are honoured if they still fall inside the interval.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._queue: list[Event] = []
        # A plain int (not itertools.count): the sequence position is part
        # of the deterministic event ordering, so snapshots must be able
        # to capture and restore it exactly.
        self._seq = 0
        # Monotonic count of events actually fired (cancelled pops and
        # passive events are not counted).  Consumers that cache state
        # derived from "no event has run since I looked" — the device's
        # fast-spend window — compare this counter instead of
        # subscribing to every callback.  Deliberately not captured by
        # snapshots: it only ever invalidates caches, and a restore
        # invalidates them explicitly anyway.
        self._fired = 0
        self.trace = TraceRecorder(clock=lambda: self._now)
        self.rng = RngHub(seed)
        self._stop_reason: str | None = None

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, dt: float) -> None:
        """Move time forward by ``dt`` seconds, firing due events.

        The common case — the device burning one instruction's worth of
        time with nothing scheduled inside the swept interval — takes a
        fast path: one heap peek, one addition, no loop entry.  This is
        the hottest function in the simulator (called once per retired
        instruction), so the fast path is deliberately branch-minimal.
        """
        # A single range check rejects negatives, NaN (every comparison
        # with NaN is false), and infinity without adding branches to
        # the fast path.
        if not 0.0 <= dt < math.inf:
            raise ValueError(
                f"cannot move time backwards or by a non-finite step (dt={dt})"
            )
        deadline = self._now + dt
        queue = self._queue
        if not queue or queue[0].time > deadline:
            self._now = deadline
            return
        self._sweep_to(deadline)

    def advance_to(self, t: float) -> None:
        """Advance the clock to exactly absolute time ``t``.

        Unlike ``advance(t - now)``, the final clock value is ``t`` to
        the last bit (no ``now + (t - now)`` rounding), which is what
        the power system's batched charging relies on to reproduce the
        stepped time grid exactly.
        """
        if not self._now <= t < math.inf:
            raise ValueError(
                f"cannot move time backwards or to a non-finite instant "
                f"({t!r} vs now={self._now})"
            )
        queue = self._queue
        if not queue or queue[0].time > t:
            self._now = t
            return
        self._sweep_to(t)

    def _sweep_to(self, deadline: float) -> None:
        while self._queue and self._queue[0].time <= deadline:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            # Fire the event at its own deadline, not at the sweep end.
            self._now = max(self._now, event.time)
            if not event.passive:
                self._fired += 1
            event.callback()
            if event.period is not None and not event.cancelled:
                event.time = event.time + event.period
                heapq.heappush(self._queue, event)
        self._now = deadline

    def _sweep_passive(self, deadline: float) -> None:
        """Fire the passive events due by ``deadline``, then rewind the clock.

        Pops exactly what :meth:`_sweep_to` would, in the same order and
        at the same instants, but stops at the first live non-passive
        event and puts ``_now`` back where it was.  The device's fast
        spend path uses it to fire a passive sampler tick inside a
        step whose supply arithmetic it replays itself.
        """
        queue = self._queue
        now = self._now
        while queue and queue[0].time <= deadline:
            event = queue[0]
            if event.cancelled:
                heapq.heappop(queue)
                continue
            if not event.passive:
                break
            heapq.heappop(queue)
            self._now = max(self._now, event.time)
            event.callback()
            if event.period is not None and not event.cancelled:
                event.time = event.time + event.period
                heapq.heappush(queue, event)
        self._now = now

    def run_until(self, t: float) -> None:
        """Advance the clock to absolute time ``t`` (no-op if in the past).

        NaN and infinity are rejected explicitly: NaN compares false
        against everything, so without the guard it would silently
        no-op instead of surfacing the caller's arithmetic bug.
        """
        if math.isnan(t) or t == math.inf:
            raise ValueError(f"run_until() needs a finite time (got {t!r})")
        if t > self._now:
            self.advance(t - self._now)

    def next_event_time(self) -> float:
        """Deadline of the earliest live event, or ``math.inf`` when idle.

        Cancelled events sitting at the top of the heap are discarded on
        the way (they would be skipped by ``advance`` anyway).
        """
        queue = self._queue
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
        return queue[0].time if queue else math.inf

    # -- cooperative stop requests ---------------------------------------
    #
    # Long-running drivers (the intermittent executor's reboot loop, the
    # power system's charging loop) poll ``stop_requested`` at their safe
    # points — boot boundaries, charging steps — and return early when an
    # event callback or external hook raises the flag.  The clock itself
    # is untouched: after a stop the driver can simply be called again to
    # resume from exactly where it left off, which is what makes the
    # campaign engine's run-until-divergence capture resumable.

    def request_stop(self, reason: str = "requested") -> None:
        """Ask cooperative run loops to return at their next safe point."""
        self._stop_reason = reason

    def clear_stop(self) -> None:
        """Acknowledge and clear a pending stop request."""
        self._stop_reason = None

    @property
    def stop_requested(self) -> bool:
        """True while a stop request is pending."""
        return self._stop_reason is not None

    @property
    def stop_reason(self) -> str | None:
        """The pending stop request's reason, or ``None``."""
        return self._stop_reason

    # -- scheduling -------------------------------------------------------
    def call_at(
        self, t: float, callback: Callable[[], None], *, host: bool = False
    ) -> Event:
        """Schedule ``callback`` to fire once at absolute time ``t``.

        ``host=True`` marks the event as *host-side* — bookkeeping that
        belongs to the machine running the simulation (wall-clock
        watchdog polls, progress reporting) rather than to the simulated
        world.  Host events never enter snapshots: they are not captured
        by :meth:`export_events` and survive a restore untouched.
        """
        if not self._now <= t < math.inf:
            raise ValueError(
                f"cannot schedule in the past or at a non-finite instant "
                f"({t!r} vs now={self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time=t, seq=seq, callback=callback, host=host)
        heapq.heappush(self._queue, event)
        return event

    def call_after(
        self, delay: float, callback: Callable[[], None], *, host: bool = False
    ) -> Event:
        """Schedule ``callback`` to fire once ``delay`` seconds from now."""
        return self.call_at(self._now + delay, callback, host=host)

    def call_every(
        self,
        period: float,
        callback: Callable[[], None],
        start: float | None = None,
        *,
        host: bool = False,
        passive: bool = False,
    ) -> Event:
        """Schedule ``callback`` to fire every ``period`` seconds.

        The first firing is at ``start`` (absolute) if given, otherwise
        one full period from now.  ``start`` must not lie in the past —
        the same guard :meth:`call_at` enforces.  Returns the
        :class:`Event`; call its ``cancel()`` to stop the recurrence.
        ``host=True`` marks the recurrence as host-side state that
        snapshots must ignore (see :meth:`call_at`).

        ``passive=True`` promises that the callback only reads the
        simulated world and records what it saw (an RNG draw for
        measurement noise counts as reading): it never changes the
        supply, source, load, comparator or capacitor, and never
        schedules an event.  Passive firings do not count as fired
        events (cached supply constants stay valid across them), and
        the device's fast spend path fires them inside the step instead
        of leaving its replay window.  A callback that may disturb the
        world in any way — drawing fading, injecting current — must not
        be marked.
        """
        if not 0.0 < period < math.inf:  # also rejects NaN
            raise ValueError(f"period must be positive and finite (got {period})")
        if start is not None and not self._now <= start < math.inf:
            raise ValueError(
                f"cannot schedule in the past or at a non-finite instant "
                f"({start!r} vs now={self._now})"
            )
        first = start if start is not None else self._now + period
        seq = self._seq
        self._seq = seq + 1
        event = Event(
            time=first, seq=seq, callback=callback, period=period, host=host,
            passive=passive,
        )
        heapq.heappush(self._queue, event)
        return event

    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for e in self._queue if not e.cancelled)

    # -- snapshot support -------------------------------------------------
    #
    # Callbacks are captured *by reference*: snapshots live in-process
    # and fork within the same worker, so the closures stay valid.  Host
    # events (wall-clock watchdog polls and the like) are excluded on
    # capture and preserved across restore — they describe the machine
    # running the simulation, not the simulated world.

    def export_events(self) -> list[tuple]:
        """The live simulated event queue as restorable tuples.

        Cancelled events are dropped (they would be skipped anyway) and
        host-side events are excluded — see :meth:`call_at`.
        """
        return [
            (e.time, e.seq, e.callback, e.period, e.passive)
            for e in sorted(self._queue)
            if not (e.cancelled or e.host)
        ]

    def restore_events(self, exported: list[tuple]) -> None:
        """Replace the simulated event queue with an exported one.

        Live host-side events currently queued are kept: a restore
        rewinds the simulated world, not the host's bookkeeping.
        Callers must restore the clock (``_now``) and sequence counter
        before or after this call via :class:`repro.snapshot` — this
        method only rebuilds the heap.
        """
        queue = [
            Event(time=t, seq=seq, callback=cb, period=period, passive=passive)
            for (t, seq, cb, period, passive) in exported
        ]
        queue.extend(e for e in self._queue if e.host and not e.cancelled)
        heapq.heapify(queue)
        self._queue = queue
