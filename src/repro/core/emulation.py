"""Intermittence emulation via the charge/discharge commands (§4.2).

The paper: *"EDB can emulate intermittence at the granularity of
individual charge-discharge cycles using the charge/discharge
commands."*  That is what this module does: with the harvester out of
the picture (a bench target, or a deployment being reproduced
indoors), EDB itself produces the charge/discharge pattern — charge the
capacitor to a chosen turn-on level, let the application run it down to
brown-out, repeat — optionally varying the per-cycle turn-on level to
replay a *recorded* pattern of good and bad harvesting cycles.

This gives developers deterministic, scriptable intermittence: the same
cycle pattern, every run, independent of the RF environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.debugger import EDB
from repro.mcu.device import ExecutionLimit, PowerFailure
from repro.mcu.hlapi import DeviceAPI, ProgramComplete
from repro.mcu.memory import MemoryFault
from repro.runtime.executor import AssertionHaltSignal, IntermittentExecutor


@dataclass
class EmulatedCycle:
    """What happened during one emulated charge/discharge cycle."""

    index: int
    turn_on_voltage: float
    start_time: float
    active_time: float
    outcome: str  # "brownout", "completed", "fault", "assert", "cutoff"
    detail: Any = None


@dataclass
class EmulationResult:
    """Summary of an emulation run."""

    cycles: list[EmulatedCycle] = field(default_factory=list)

    @property
    def outcome(self) -> str:
        """Outcome of the final cycle ("brownout" if all were)."""
        return self.cycles[-1].outcome if self.cycles else "none"

    def count(self, outcome: str) -> int:
        """Number of cycles ending a particular way."""
        return sum(1 for c in self.cycles if c.outcome == outcome)

    def __repr__(self) -> str:
        return (
            f"EmulationResult({len(self.cycles)} cycles, "
            f"final={self.outcome!r}, faults={self.count('fault')})"
        )


class IntermittenceEmulator:
    """Drives synthetic charge/discharge cycles through EDB.

    Parameters
    ----------
    edb:
        The attached debugger (its charge/discharge circuit does the
        energy manipulation).
    program:
        The application to run (``main(api)``, optional ``flash(api)``).
    edb_linked:
        Link libEDB into the application (watchpoints, asserts, ...).

    The target's own harvester is disabled for the duration of the
    emulation — the whole point is that EDB controls the energy.
    """

    def __init__(self, edb: EDB, program: Any, edb_linked: bool = True) -> None:
        self.edb = edb
        self.device = edb.device
        self.program = program
        self.api = DeviceAPI(
            self.device, edb=edb.libedb() if edb_linked else None
        )
        self.flashed = False

    def flash(self) -> None:
        """Initialise the program image (uncosted, like real flashing)."""
        if hasattr(self.program, "flash"):
            power = self.device.power
            was_enabled = getattr(power.source, "enabled", None)
            # Flash on EDB's supply: charge up, init, done.
            self.edb.charge(power.turn_on_voltage)
            self.program.flash(self.api)
            if was_enabled is not None:
                power.source.enabled = was_enabled
        self.flashed = True

    def run(
        self,
        cycles: int = 10,
        turn_on_voltage: float | Sequence[float] = 2.4,
        cycle_timeout: float = 1.0,
        stop_on_fault: bool = False,
    ) -> EmulationResult:
        """Emulate ``cycles`` charge/discharge cycles.

        Parameters
        ----------
        cycles:
            How many cycles to produce.
        turn_on_voltage:
            A single level, or one level per cycle (replaying a pattern
            of strong and weak harvests — a weak cycle starts lower and
            gives the program less energy).
        cycle_timeout:
            Simulated-time cap per cycle; a program that sleeps its way
            past this is marked ``"cutoff"`` and the next cycle begins.
        stop_on_fault:
            Stop the emulation at the first memory fault.
        """
        power = self.device.power
        levels = (
            list(turn_on_voltage)
            if not isinstance(turn_on_voltage, (int, float))
            else [float(turn_on_voltage)] * cycles
        )
        if len(levels) < cycles:
            raise ValueError(
                f"{cycles} cycles requested but only {len(levels)} "
                "turn-on levels given"
            )
        # Validate every level before flashing or charging, so a
        # rejected request leaves the target untouched.
        for index, level in enumerate(levels[:cycles]):
            if level < power.turn_on_voltage:
                raise ValueError(
                    f"cycle {index}: turn-on level {level} V is below "
                    f"the comparator threshold "
                    f"({power.turn_on_voltage} V)"
                )

        if not self.flashed:
            self.flash()
        source_enabled = getattr(power.source, "enabled", None)
        if source_enabled is not None:
            power.source.enabled = False  # EDB supplies all energy

        result = EmulationResult()
        try:
            for index, level in enumerate(levels[:cycles]):
                self.edb.charge(level)
                power.reset_comparator()
                self.device.reboot()
                start = self.edb.sim.now
                self.device.stop_after = start + cycle_timeout
                outcome, detail = self._run_one_cycle()
                self.device.stop_after = None
                result.cycles.append(
                    EmulatedCycle(
                        index=index,
                        turn_on_voltage=level,
                        start_time=start,
                        active_time=self.edb.sim.now - start,
                        outcome=outcome,
                        detail=detail,
                    )
                )
                if outcome in ("completed", "assert"):
                    break
                if outcome == "fault" and stop_on_fault:
                    break
        finally:
            self.device.stop_after = None
            if source_enabled is not None:
                power.source.enabled = source_enabled
        return result

    def _run_one_cycle(self) -> tuple[str, Any]:
        try:
            self.program.main(self.api)
            return "completed", None
        except ProgramComplete as exc:
            return "completed", exc.args[0] if exc.args else None
        except PowerFailure:
            return "brownout", None
        except ExecutionLimit:
            return "cutoff", None
        except MemoryFault as fault:
            return "fault", str(fault)
        except AssertionHaltSignal as halt:
            return "assert", halt


def emulate(
    edb: EDB,
    executor: IntermittentExecutor,
    cycles: int,
    turn_on_voltage: float,
    max_cycles: int,
) -> EmulationResult:
    """Console and RPC ``emulate`` of ``executor``'s program, under a
    ``max_cycles`` watchdog.  The emulator shares the executor's API (so
    the statics carry over) and flashes only if the executor has not."""
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1 (got {cycles})")
    from repro.campaign.watchdog import RunWatchdog  # core never imports campaign

    emulator = IntermittenceEmulator(edb, executor.program)
    emulator.api = executor.api
    emulator.flashed = executor.flashed
    try:
        with RunWatchdog(edb.device, max_cycles):
            return emulator.run(cycles=cycles, turn_on_voltage=turn_on_voltage)
    finally:
        if emulator.flashed:
            executor.mark_flashed()
