"""The developer-facing EDB facade.

Wraps the board, monitor, breakpoints, energy manipulation, and libEDB
into the object a user of this library instantiates::

    sim = Simulator(seed=7)
    power = make_wisp_power_system(sim)
    target = TargetDevice(sim, power)
    edb = EDB(sim, target)

    edb.trace("energy")
    edb.trace("watchpoints")
    executor = IntermittentExecutor(sim, target, app, edb=edb.libedb())
    result = executor.run(duration=2.0)
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.active import SaveRestoreRecord
from repro.core.board import BreakEvent, EDBBoard
from repro.core.breakpoints import Breakpoint, BreakpointManager
from repro.core.libedb import LibEDB
from repro.core.monitor import PassiveMonitor
from repro.core.protocol import MAX_PAYLOAD
from repro.core.session import InteractiveSession
from repro.mcu.device import TargetDevice
from repro.sim import units
from repro.sim.kernel import Simulator

#: The cycle budget of every console and RPC ``run``/``emulate``:
#: generous (a 2 s WISP run is ~8M cycles) but finite, so a livelocked
#: guest cannot hang either front end.
DEFAULT_MAX_CYCLES = 200_000_000


class EDB:
    """One debugger attached to one target device.

    Parameters
    ----------
    sim:
        Simulation kernel.
    device:
        The target to attach to.
    sample_rate:
        Passive energy-monitoring rate in Hz.
    """

    def __init__(
        self,
        sim: Simulator,
        device: TargetDevice,
        sample_rate: float = 4 * units.KHZ,
    ) -> None:
        self.sim = sim
        self.device = device
        self.board = EDBBoard(sim, sample_rate=sample_rate)
        self.board.attach(device)
        self.board.set_session_factory(
            lambda event: InteractiveSession(self.board, event)
        )
        self._libedb: LibEDB | None = None
        self._watched_pcs: set[int] = set()

    # -- what the host may ask of the target ---------------------------------
    #
    # One input rule for the Table 1 console and the JSON-RPC service: a
    # violation raises ValueError, which the console prints as an
    # ``error:`` line and the service answers with InvalidParams.
    @staticmethod
    def check_charge_volts(volts: float) -> float:
        """A ``charge`` target: ``0 < volts <= 5.5``."""
        if not 0.0 < volts <= 5.5:
            raise ValueError(f"charge volts {volts} out of range (0, 5.5]")
        return volts

    @staticmethod
    def check_volts(volts: float) -> float:
        """A ``discharge`` target or an energy threshold: ``0 <= volts <= 5.5``."""
        if not 0.0 <= volts <= 5.5:
            raise ValueError(f"volts {volts} out of range [0, 5.5]")
        return volts

    @staticmethod
    def check_word(value: int) -> int:
        """A target address or 16-bit value: ``0..0xFFFF``."""
        if not 0 <= value <= 0xFFFF:
            raise ValueError(f"{value} out of range 0..0xFFFF")
        return value

    @staticmethod
    def check_read_count(count: int) -> int:
        """A memory read length: ``1..MAX_PAYLOAD`` bytes."""
        if not 1 <= count <= MAX_PAYLOAD:
            raise ValueError(f"read count {count} out of range 1..{MAX_PAYLOAD}")
        return count

    @staticmethod
    def check_write_data(data: bytes) -> bytes:
        """A memory write payload: ``1..MAX_PAYLOAD-2`` bytes."""
        if not 1 <= len(data) <= MAX_PAYLOAD - 2:
            raise ValueError(
                f"write size {len(data)} out of range 1..{MAX_PAYLOAD - 2}"
            )
        return data

    # -- linking the target-side library ----------------------------------
    def libedb(self) -> LibEDB:
        """The target-side library to link into the application."""
        if self._libedb is None:
            self._libedb = LibEDB(self.device, self.board)
        return self._libedb

    # -- passive mode -----------------------------------------------------------
    @property
    def monitor(self) -> PassiveMonitor:
        """The passive-mode stream monitor."""
        assert self.board.monitor is not None
        return self.board.monitor

    def trace(self, stream: str) -> None:
        """Console ``trace`` command: enable one passive stream."""
        self.monitor.enable(stream)

    def set_watchpoint_enabled(self, wp_id: int, enabled: bool) -> None:
        """Console ``watch en|dis``: unmask or mask one watchpoint id."""
        disabled = self.monitor.disabled_watchpoints
        if enabled:
            disabled.discard(wp_id)
        else:
            disabled.add(wp_id)

    def untrace(self, stream: str) -> None:
        """Disable one passive stream."""
        self.monitor.disable(stream)

    @property
    def printf_output(self) -> list[tuple[float, str]]:
        """All printf text received from the target, with timestamps."""
        return self.board.printf_log

    # -- breakpoints ----------------------------------------------------------------
    @property
    def breakpoints(self) -> BreakpointManager:
        """The breakpoint registry."""
        return self.board.breakpoints

    def break_at(self, breakpoint_id: int, one_shot: bool = False) -> Breakpoint:
        """Arm a code breakpoint for ``BREAKPOINT(id)`` sites."""
        return self.breakpoints.add_code(breakpoint_id, one_shot=one_shot)

    def break_on_energy(self, threshold_v: float, one_shot: bool = False) -> Breakpoint:
        """Arm an energy breakpoint at ``threshold_v`` volts."""
        bp = self.breakpoints.add_energy(threshold_v, one_shot=one_shot)
        self.board.arm_energy_sampling()
        return bp

    # -- ISA-level PC watches ----------------------------------------------
    #
    # Marker breakpoints need no cache plumbing: MARK instructions are
    # untranslatable, so a block always ends before one and the marker
    # hook observes plain single-stepping.  Raw-PC watches are different
    # — an arbitrary address may sit mid-block — so registration is
    # forwarded to the CPU, which excludes the address from block
    # translation (targeted invalidation: only blocks overlapping the
    # watch are dropped and retranslated, via the per-page block index).
    def watch_pc(self, pc: int) -> None:
        """Single-step through ``pc``: every hook/trace sees it exactly.

        Forwarded to :meth:`repro.mcu.cpu.Cpu.add_watch_pc`; the CPU
        stops translating blocks across the address, so PC-matching
        instrumentation fires exactly as it would without the block
        cache.
        """
        self._watched_pcs.add(pc & 0xFFFF)
        self.device.cpu.add_watch_pc(pc)

    def unwatch_pc(self, pc: int) -> None:
        """Remove a raw-PC watch and re-allow block translation."""
        self._watched_pcs.discard(pc & 0xFFFF)
        self.device.cpu.remove_watch_pc(pc)

    def break_combined(
        self, breakpoint_id: int, threshold_v: float, one_shot: bool = False
    ) -> Breakpoint:
        """Arm a combined code+energy breakpoint."""
        return self.breakpoints.add_combined(
            breakpoint_id, threshold_v, one_shot=one_shot
        )

    def on_break(self, handler: Callable[[BreakEvent, InteractiveSession], None]):
        """Install the handler invoked when the target stops."""
        self.board.on_break = handler

    def on_assert(self, handler: Callable[[BreakEvent, InteractiveSession], None]):
        """Install the handler for keep-alive assertion failures."""
        self.board.on_assert = handler

    def on_printf(self, handler: Callable[[str], None]) -> None:
        """Install a live listener for printf output."""
        self.board.on_printf = handler

    # -- active mode / energy manipulation ----------------------------------------------
    def charge(self, voltage: float) -> float:
        """Console ``charge``: raise the target's stored energy."""
        return self.board.charge_target(voltage)

    def discharge(self, voltage: float) -> float:
        """Console ``discharge``: lower the target's stored energy."""
        return self.board.discharge_target(voltage)

    @property
    def save_restore_records(self) -> list[SaveRestoreRecord]:
        """Every completed save/restore bracket (Table 3's raw data)."""
        assert self.board.energy is not None
        return self.board.energy.records

    def release(self) -> None:
        """Drop a keep-alive tether (end of a post-assert session)."""
        assert self.board.energy is not None
        self.board.energy.release()

    @property
    def is_tethered(self) -> bool:
        """True while the target runs on EDB's continuous supply."""
        return self.device.power.is_tethered

    def host_access(self, action: Callable[[InteractiveSession], Any]) -> Any:
        """Run one host access energy-interference-free (§3.3.4).

        Save Vcap and tether (unless an open break/assert session
        already holds the target), act through the target-side
        protocol, restore with the trim-up path.  Every console and RPC
        memory or register access goes through here.
        """
        energy = self.board.energy
        assert energy is not None
        event = BreakEvent("console", self.sim.now, self.device.power.vcap)
        held = energy.in_active_task or self.is_tethered
        if not held:
            energy.begin_task()
        try:
            return action(InteractiveSession(self.board, event))
        finally:
            if not held:
                energy.end_task(trim_up=True)

    # -- divergence capture -----------------------------------------------------------
    def divergence_context(self, tail: int = 64) -> dict:
        """Monitor-derived context around a failing run's end.

        The campaign engine re-executes a diverging run with EDB
        attached in passive mode and stores this snapshot in its report:
        the last ``tail`` energy samples, per-watchpoint hit counts, and
        any printf output — the same correlated streams a developer
        would pull up in the console to understand the failure.
        """
        times, volts = self.monitor.energy_series()
        energy_tail = [
            [round(t, 9), round(v, 6)]
            for t, v in list(zip(times, volts))[-tail:]
        ]
        # Hit counts come from the monitor's aggregate stats, which
        # count every decoded marker pulse; the "watchpoints" *stream*
        # only has events while that trace was enabled, so deriving
        # counts from it undercounts (or reads zero) whenever tracing
        # was off or enabled late.
        watchpoints = {
            str(wp_id): stats.hits
            for wp_id, stats in sorted(self.monitor.watchpoints.items())
        }
        return {
            "energy_tail": energy_tail,
            "watchpoint_hits": watchpoints,
            "printf": [text for _, text in self.printf_output],
        }

    # -- characterisation -------------------------------------------------------------
    def interference_report(self, trials: int = 50) -> dict:
        """Per-connection worst-case leakage (the Table 2 sweep)."""
        return self.board.harness.characterise(trials=trials)

    def worst_case_interference(self, trials: int = 50) -> float:
        """Total worst-case interference current in amperes."""
        return self.board.harness.worst_case_total(trials=trials)

    def detach(self) -> None:
        """Physically disconnect from the target."""
        for pc in list(self._watched_pcs):
            self.device.cpu.remove_watch_pc(pc)
        self._watched_pcs.clear()
        self.board.detach()
