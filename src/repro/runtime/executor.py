"""The intermittent execution loop.

:class:`IntermittentExecutor` runs a program the way an energy-
harvesting device runs it: charge the capacitor to the turn-on
threshold, reboot (clearing volatile state), execute ``main()`` until
the supply browns out, and repeat — tens to hundreds of times per
second.  A continuous-power mode is provided as the control condition
(what a JTAG-style debugger would impose on the target).

The executor also understands the ways an intermittent run can end:

- the workload finishes (:class:`~repro.mcu.hlapi.ProgramComplete`),
- the simulated-time budget expires,
- an EDB keep-alive assertion fails and halts the target
  (:class:`~repro.core.libedb.AssertionHalt`),
- the program corrupts memory and wedges (a
  :class:`~repro.mcu.memory.MemoryFault` on every subsequent boot —
  the paper's "only way to recover is to re-flash" state).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.mcu.device import ExecutionLimit, PowerFailure, TargetDevice
from repro.mcu.hlapi import DeviceAPI, ProgramComplete
from repro.mcu.memory import MemoryFault
from repro.power.harvester import TetheredSupply
from repro.power.supply import ChargingTimeout
from repro.sim.kernel import BudgetExceeded, Simulator


class RunStatus(enum.Enum):
    """How an intermittent run ended."""

    COMPLETED = "completed"
    TIMEOUT = "timeout"  # simulated-time budget expired (apps loop forever)
    ASSERT_FAILED = "assert_failed"  # EDB keep-alive assert halted the target
    CRASHED = "crashed"  # unrecoverable memory corruption
    STARVED = "starved"  # harvester could not reach turn-on
    INTERRUPTED = "interrupted"  # a cooperative stop request paused the run
    NONTERMINATING = "nonterminating"  # a watchdog budget expired (livelock?)


@dataclass
class RunResult:
    """Outcome and statistics of one intermittent (or continuous) run."""

    status: RunStatus
    sim_time: float
    reboots: int
    boots: int
    faults: list[str] = field(default_factory=list)
    first_fault_time: float | None = None
    detail: Any = None

    def __repr__(self) -> str:
        return (
            f"RunResult({self.status.value}, t={self.sim_time * 1e3:.1f}ms, "
            f"boots={self.boots}, reboots={self.reboots}, "
            f"faults={len(self.faults)})"
        )


class IntermittentExecutor:
    """Drives a high-level program across charge/discharge cycles.

    Parameters
    ----------
    sim / device:
        The simulation kernel and the target.
    program:
        Any object with ``main(api)`` (see
        :class:`~repro.mcu.hlapi.IntermittentProgram`); an optional
        ``flash(api)`` initialises FRAM once before the first boot.
    edb:
        Target-side libEDB to link into the application, or ``None``
        for a release build.
    """

    def __init__(
        self,
        sim: Simulator,
        device: TargetDevice,
        program: Any,
        edb: Any = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.program = program
        self.api = DeviceAPI(device, edb=edb)
        #: True once the program's FRAM image is initialised.
        self.flashed = False

    def flash(self) -> None:
        """Initialise the program's FRAM image (like flashing over JTAG).

        A programmer powers the device while flashing, so the image
        initialisation runs on a temporary tether; afterwards the
        capacitor is returned to its pre-flash level and the device is
        back on harvested power.
        """
        if hasattr(self.program, "flash"):
            power = self.device.power
            v_before = power.vcap
            power.tether(TetheredSupply(voltage=3.0, resistance=1.0))
            self.sim.advance(1e-3)
            power.step(1e-3)
            try:
                self.program.flash(self.api)
            finally:
                power.untether()
                power.capacitor.voltage = v_before
                power.reset_comparator()
        self.flashed = True

    def mark_flashed(self) -> None:
        """Count the image initialised by someone else (EDB's §4.2 emulator)."""
        self.flashed = True

    # -- the intermittent loop -------------------------------------------------
    def run(
        self,
        duration: float | None = None,
        max_boots: int | None = None,
        stop_on_fault: bool = False,
        until: float | None = None,
        mid_boot: bool = False,
    ) -> RunResult:
        """Run intermittently for ``duration`` seconds of simulated time.

        Parameters
        ----------
        duration:
            Simulated-time budget, measured from the current clock.
        max_boots:
            Optional cap on powered execution attempts.
        stop_on_fault:
            Return as soon as the first memory fault occurs instead of
            letting the device keep crash-looping (the paper's symptom
            phase); the fault is recorded either way.
        until:
            Absolute simulated-time deadline, mutually exclusive with
            ``duration``.  Resuming a paused run needs this: re-deriving
            the deadline as ``now + (deadline - now)`` is not bit-exact
            in float arithmetic, and the snapshot/fork machinery's
            byte-identical contract hinges on landing on the *same*
            deadline every segment.
        mid_boot:
            Continue the boot the device is in instead of starting one:
            the first ``main`` call runs without charging or rebooting
            and is not counted in ``boots``.  For a device restored to a
            snapshot taken inside a boot, between two ``step_block``
            calls, of a program whose ``main`` continues from any such
            point (``mid_boot_resumable``); the lane engine's peels
            resume from these.
        """
        if (duration is None) == (until is None):
            raise ValueError("pass exactly one of duration= or until=")
        if mid_boot and not (
            getattr(self.program, "mid_boot_resumable", False)
            and self.device.power.is_on
        ):
            raise ValueError(
                "mid_boot needs a powered device and a program that "
                "resumes mid-boot"
            )
        if not self.flashed:
            self.flash()
        # Hot-path handles: a campaign boots the device hundreds of
        # times per run, so the per-boot attribute chains are hoisted
        # once (the same idiom as DeviceAPI's bound-method handles).
        sim = self.sim
        device = self.device
        power = device.power
        main = self.program.main
        deadline = until if until is not None else sim.now + duration
        device.stop_after = deadline
        start_reboots = device.reboot_count
        boots = 0
        faults: list[str] = []
        first_fault: float | None = None
        status = RunStatus.TIMEOUT
        detail = None
        resume = mid_boot
        try:
            while sim.now < deadline:
                if sim.stop_requested:
                    # Resumable pause: the clock and device state are
                    # left untouched, so calling run() again continues
                    # from exactly this point (after clear_stop()).
                    status = RunStatus.INTERRUPTED
                    detail = sim.stop_reason
                    break
                if max_boots is not None and boots >= max_boots:
                    break
                if not power.is_on:
                    try:
                        # Never charge (much) past the run deadline,
                        # and call a target starved if it cannot reach turn-on within a
                        # couple of seconds (organic charge times are tens of
                        # milliseconds).
                        power.charge_until_on(
                            timeout=min(
                                2.0, max(0.01, deadline - sim.now) + 0.1
                            )
                        )
                    except ChargingTimeout as exc:
                        if sim.now >= deadline:
                            break
                        status = RunStatus.STARVED
                        detail = str(exc)
                        break
                    if sim.now >= deadline:
                        break
                    if not power.is_on:
                        continue  # charging paused by a stop request
                if resume:
                    resume = False  # the powered boot goes on
                else:
                    device.reboot()
                    boots += 1
                try:
                    main(self.api)
                    status = RunStatus.COMPLETED
                    break
                except ProgramComplete as exc:
                    status = RunStatus.COMPLETED
                    detail = exc.args[0] if exc.args else None
                    break
                except PowerFailure:
                    continue
                except MemoryFault as fault:
                    faults.append(str(fault))
                    if first_fault is None:
                        first_fault = sim.now
                    sim.trace.record("target.fault", str(fault))
                    if stop_on_fault:
                        status = RunStatus.CRASHED
                        break
                    # Undefined behaviour: the wedged program burns the
                    # rest of the charge cycle doing nothing useful.
                    try:
                        self.api.drain_until_brownout()
                    except PowerFailure:
                        continue
                except AssertionHaltSignal as halt:
                    status = RunStatus.ASSERT_FAILED
                    detail = halt
                    break
            else:
                status = RunStatus.TIMEOUT
            if faults and status is RunStatus.TIMEOUT:
                status = RunStatus.CRASHED
        except ExecutionLimit:
            status = RunStatus.CRASHED if faults else RunStatus.TIMEOUT
        except BudgetExceeded as exc:
            # A watchdog (cycle or wall-clock budget) unwound the run:
            # the workload did not finish within its budget, which is
            # conservatively reported as possible non-termination.
            status = RunStatus.NONTERMINATING
            detail = str(exc)
        finally:
            self.device.stop_after = None
        return RunResult(
            status=status,
            sim_time=self.sim.now,
            reboots=self.device.reboot_count - start_reboots,
            boots=boots,
            faults=faults,
            first_fault_time=first_fault,
            detail=detail,
        )

    # -- the control condition ---------------------------------------------------
    def run_continuous(
        self, duration: float, supply_voltage: float = 3.0
    ) -> RunResult:
        """Run on continuous (tethered) power — what JTAG would impose.

        This is the paper's control: with continuous power the
        intermittence bug *never* manifests, which is exactly why
        conventional debuggers cannot reproduce it.
        """
        if not self.flashed:
            self.flash()
        deadline = self.sim.now + duration
        self.device.stop_after = deadline
        supply = TetheredSupply(voltage=supply_voltage)
        self.device.power.tether(supply)
        faults: list[str] = []
        status = RunStatus.TIMEOUT
        detail = None
        boots = 0
        try:
            # Bring the rail up instantly (bench supplies are stiff).
            self.device.power.capacitor.voltage = supply_voltage
            self.device.power.step(0.0)
            self.device.reboot()
            boots = 1
            try:
                self.program.main(self.api)
                status = RunStatus.COMPLETED
            except ProgramComplete as exc:
                status = RunStatus.COMPLETED
                detail = exc.args[0] if exc.args else None
            except MemoryFault as fault:
                faults.append(str(fault))
                status = RunStatus.CRASHED
            except AssertionHaltSignal as halt:
                status = RunStatus.ASSERT_FAILED
                detail = halt
        except ExecutionLimit:
            status = RunStatus.TIMEOUT
        except BudgetExceeded as exc:
            status = RunStatus.NONTERMINATING
            detail = str(exc)
        finally:
            self.device.stop_after = None
            self.device.power.untether()
        return RunResult(
            status=status,
            sim_time=self.sim.now,
            reboots=0,
            boots=boots,
            faults=faults,
            first_fault_time=None,
            detail=detail,
        )


class AssertionHaltSignal(Exception):
    """Raised by libEDB when a failed keep-alive assert halts the target.

    Defined here (rather than in :mod:`repro.core.libedb`) so the
    runtime layer has no import dependency on the debugger package; the
    debugger raises this very class.
    """

    def __init__(self, message: str, vcap_at_failure: float) -> None:
        super().__init__(message)
        self.vcap_at_failure = vcap_at_failure
