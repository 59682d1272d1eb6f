"""The target device: MCU + memory + peripherals on an intermittent supply.

:class:`TargetDevice` is the simulated WISP.  It is the only component
that converts *work* (CPU cycles, UART bytes, I2C transactions) into
*time and energy*: every unit of work advances the simulation clock and
drains the storage capacitor, and if the capacitor crosses the brown-out
threshold mid-work the device raises :class:`PowerFailure` — the
simulator's rendition of an intermittent reboot.

A reboot (:meth:`TargetDevice.reboot`) does exactly what the paper says
a power failure does: clears volatile state (register file, SRAM, GPIO,
peripheral queues), retains non-volatile state (FRAM), and transfers
control back to the program entry point.
"""

from __future__ import annotations

import math
import os
from typing import Callable

from repro.io.i2c import I2CBus
from repro.io.lines import DigitalLine
from repro.io.uart import Uart
from repro.mcu.adc import Adc, AdcChannelMux
from repro.mcu.assembler import Program
from repro.mcu.cpu import Cpu
from repro.mcu.gpio import GpioPort
from repro.mcu.memory import MemoryMap, make_msp430_memory_map
from repro.power.supply import PowerSystem
from repro.power.wisp import WispPowerConstants
from repro.sim import units
from repro.sim.kernel import Simulator


class PowerFailure(Exception):
    """The supply browned out while the device was doing work."""

    def __init__(self, message: str, vcap: float, at: float) -> None:
        super().__init__(message)
        self.vcap = vcap
        self.at = at


class ExecutionLimit(Exception):
    """The executor's simulated-time deadline expired mid-execution."""


def dispatch_mode() -> str:
    """How a device built now dispatches instructions; see ``docs/PERF.md``.

    ``"block"`` (the default) runs translated blocks on the spend
    window.  ``REPRO_NO_BLOCKCACHE=1`` (any value but ``0``) selects
    ``"step"``: no block translation and no spend window, the
    single-step reference path.  ``REPRO_FORCE_DEOPT=1`` selects
    ``"deopt"``: blocks are translated but every guard refuses them, so
    dispatch single-steps with warm caches.  With both set the mode is
    ``"step"``.  This is the one reader of the two variables.
    """
    if os.environ.get("REPRO_NO_BLOCKCACHE", "") not in ("", "0"):
        return "step"
    if os.environ.get("REPRO_FORCE_DEOPT", "") not in ("", "0"):
        return "deopt"
    return "block"


class _SpendWindow:
    """Steady-state constants for the fast spend path of ``execute_cycles``.

    Valid while the supply's environment epoch, the simulator's
    fired-event counter, the GPIO load sum, and the probed source
    parameters are unchanged and the clock stays strictly before
    ``bound``.  ``segments`` memoizes the per-``cycles`` step constants
    ``(dt, exp_charge, leak_factor)`` — computed with exactly the
    expressions ``charge_step`` and ``step_leakage`` use, so replaying
    them is bit-identical to the slow path.  ``extra`` memoizes
    ``(net, v_inf)`` per nonzero ``extra_current`` (bus transfers) for
    the current GPIO load.
    """

    __slots__ = (
        "epoch", "fired", "gpio_load", "source", "src_has_enabled",
        "src_has_distance", "src_enabled", "src_distance", "voc", "rs",
        "net", "v_inf", "tau", "cap", "vmax", "floor", "bound",
        "leak_tau", "segments", "extra",
    )


#: Why a spend left the fast path, the keys of
#: :attr:`TargetDevice.slow_spends`: a non-passive event due inside the
#: step (or one a passive tick left behind), no window (none built, none
#: buildable, or a zero-cycle spend), the stepped Vcap below the floor
#: (brown-out threshold or Vcap watch level), the step reaching the
#: source's hold bound, the executor deadline reached.
SLOW_SPEND_CAUSES = ("event", "no_window", "floor", "bound", "deadline")


#: An unarmed unit or cycle deadline: an int beyond any reachable count.
NEVER = 1 << 62


class Watch:
    """A device-owned threshold; see :meth:`TargetDevice.watch`.

    Fires after a work unit once the device's total work units reach
    ``units``, ``cycles_executed`` reaches ``cycles``, or Vcap is at or
    below ``vcap``.  It stays armed until re-armed or disarmed.
    """

    __slots__ = ("_device", "callback", "units", "cycles", "vcap")

    def __init__(self, device: "TargetDevice", callback: Callable[[], None]):
        self._device = device
        self.callback = callback
        self.arm()

    def arm(
        self, units: int = NEVER, cycles: int = NEVER, vcap: float = -math.inf
    ) -> None:
        """Set all three triggers; omitted ones are disarmed."""
        self.units, self.cycles, self.vcap = units, cycles, vcap
        self._device._rearm()

    def disarm(self) -> None:
        """Disarm all triggers; the watch stays installed."""
        self.arm()

    def remove(self) -> None:
        """Uninstall from the device (idempotent)."""
        if self in self._device._watches:
            self._device._watches.remove(self)
            self._device._rearm()


class TargetDevice:
    """A WISP-class energy-harvesting target.

    Parameters
    ----------
    sim:
        Simulation kernel.
    power:
        The intermittent power system feeding the device.
    constants:
        Electrical constants (clock rate, currents); defaults to WISP 5.
    memory:
        Address space; defaults to the MSP430FR5969-flavoured map.
    marker_bits:
        Number of GPIO lines allocated to EDB code markers; supports
        ``2**marker_bits - 1`` distinct watchpoint identifiers (§4.1.3).
    """

    def __init__(
        self,
        sim: Simulator,
        power: PowerSystem,
        constants: WispPowerConstants | None = None,
        memory: MemoryMap | None = None,
        marker_bits: int = 4,
    ) -> None:
        self.sim = sim
        self.power = power
        self.constants = constants or WispPowerConstants()
        self.memory = memory or make_msp430_memory_map()
        # Hot-path constants, hoisted out of execute_cycles.  The static
        # current is the same left-to-right sum the inline expression
        # performed, so downstream float arithmetic is unchanged.
        self._cycle_time = self.constants.cycle_time
        self._static_current = (
            self.constants.active_current + self.constants.system_current
        )

        self.gpio = GpioPort(sim)
        self.gpio.add_pin("led", load_current=self.constants.led_current)
        self.adc = Adc(
            reference_voltage=3.3, noise_sigma_v=0.5 * units.MV, rng=sim.rng,
            stream="target-adc",
        )
        self.adc_mux = AdcChannelMux(self.adc)
        self.adc_mux.add_channel("vcap", lambda: self.power.vcap)

        self.uart = Uart(sim, spend=self.spend_time, name="uart")
        self.debug_uart = Uart(sim, spend=self.spend_time, name="debug_uart")
        self.i2c = I2CBus(sim, spend=self.spend_time)

        if marker_bits < 1:
            raise ValueError("need at least one code-marker line")
        self.marker_lines = [
            DigitalLine(sim, f"code_marker_{i}") for i in range(marker_bits)
        ]
        self.debug_signal = DigitalLine(sim, "debug_signal")
        self.on_code_marker: list[Callable[[int], None]] = []

        self.cpu = Cpu(self.memory, spend=self.execute_cycles)
        self.cpu.on_mark = self._cpu_mark
        self._program: Program | None = None

        self.cycles_executed = 0
        self.reboot_count = 0
        self.energy_consumed = 0.0
        self._stop_after: float | None = None  # executor deadline (sim time)
        # The dispatch mode (see dispatch_mode), fixed at build time.
        # "step" builds no spend window (see execute_cycles) and no
        # blocks; "deopt" refuses every block guard.
        self.dispatch = dispatch_mode()
        self._windowed = self.dispatch != "step"
        self._refuse_blocks = self.dispatch == "deopt"
        self._spend_window: _SpendWindow | None = None
        # Fast-path refusals by cause (SLOW_SPEND_CAUSES).  Execution
        # only: snapshots neither capture nor restore it, and no report
        # or transcript shows it.
        self.slow_spends = dict.fromkeys(SLOW_SPEND_CAUSES, 0)
        self.cpu.block_cache_enabled = self._windowed
        self.cpu.block_guard = self.block_guard
        # Observers of power-failure resets (fault injectors re-arm
        # their per-boot schedules here; recorders log boot boundaries).
        self.on_reboot: list[Callable[[int], None]] = []
        # Work units: completed execute_cycles/sleep calls outside a
        # watch callback, in total and since the current boot began.
        self.work_units = 0
        self._boot_start_units = 0
        # Watches (see watch()) and the nearest of their triggers.
        self._watches: list[Watch] = []
        self._firing = False
        self._unit_deadline = self._cycle_deadline = NEVER
        self._vcap_level = -math.inf

    # -- work -> time + energy ------------------------------------------------
    @property
    def max_marker_id(self) -> int:
        """Largest encodable watchpoint identifier (``2^n - 1``)."""
        return (1 << len(self.marker_lines)) - 1

    @property
    def stop_after(self) -> float | None:
        """Executor deadline in simulated seconds (``None`` = unlimited)."""
        return self._stop_after

    @stop_after.setter
    def stop_after(self, value: float | None) -> None:
        # Every external intervention point in the codebase that rewinds
        # or re-targets execution (executor run boundaries, snapshot
        # restore, the intermittence emulator's cycle setup) sets the
        # deadline — dropping the spend window here makes those
        # boundaries cache-coherent for free.  Rebuilding costs one
        # source probe on the next unit of work.
        self._stop_after = value
        self._spend_window = None

    def invalidate_energy_window(self) -> None:
        """Drop the cached fast-spend window (rebuilt on next work)."""
        self._spend_window = None

    def _check_power(self) -> None:
        if not self.power.is_on:
            raise PowerFailure(
                f"brown-out at {self.sim.now * 1e3:.3f} ms "
                f"(Vcap = {self.power.vcap:.3f} V)",
                vcap=self.power.vcap,
                at=self.sim.now,
            )

    def execute_cycles(self, cycles: int, extra_current: float = 0.0) -> None:
        """Burn ``cycles`` of CPU time against the supply.

        Raises :class:`PowerFailure` if the supply browns out during or
        before the work.

        The steady-state fast path below replays the slow path's exact
        per-step arithmetic (same expressions, same operand order, same
        clamping — the discipline ``_charge_fast_forward`` established)
        from memoized constants, valid only inside a window where
        nothing can perturb the trajectory: no non-passive scheduled
        event due, no source condition change (``hold_until``), no
        comparator transition and no Vcap watch reached (the committed
        voltage stays at or above ``floor``).  Passive events due inside
        the step (the energy sampler) fire at their own instants before
        the commit, seeing the pre-step Vcap as the slow path's sweep
        would.  Anything else falls through to the historical
        one-call-at-a-time path, which also (re)builds the window; each
        fall-through is counted in :attr:`slow_spends` by cause.
        """
        fw = self._spend_window
        if fw is None or cycles <= 0:
            return self._slow_spend("no_window", cycles, extra_current)
        power = self.power
        sim = self.sim
        source = fw.source
        if not (
            fw.epoch == power._env_epoch
            and fw.fired == sim._fired
            # Presence flags captured at build time: the harvester
            # classes declare enabled/distance_m in __init__, so
            # attribute *presence* is a property of the source's type,
            # not of runtime state — direct loads beat the defaulted
            # getattr probes measurably here.
            and (not fw.src_has_enabled or source.enabled == fw.src_enabled)
            and (
                not fw.src_has_distance
                or source.distance_m == fw.src_distance
            )
        ):
            # The cached constants went stale (an env bump, a fired
            # event): rebuild instead of paying a full slow step.  The
            # fast path only ever replays the *current* constants, so
            # committing from a just-rebuilt window is bit-identical to
            # the slow step that would otherwise have rebuilt it
            # afterwards.
            fw = self._build_spend_window()
            self._spend_window = fw
            if fw is None:
                return self._slow_spend("no_window", cycles, extra_current)
        elif fw.gpio_load != self.gpio._load_current_cache:
            # A GPIO edge invalidated the load cache (an edge sets it to
            # None).  Recompute: most heartbeat pins carry no load, so
            # the sum usually comes back unchanged; when it did change,
            # only the net-load constants shift — everything probed
            # from the supply (voc/rs, constant until ``bound`` by the
            # hold-window contract, and nothing commits past ``bound``;
            # floor; the tau-derived exponentials in ``segments``) is
            # still exact.
            gpio_load = self.gpio.total_load_current()
            if gpio_load != fw.gpio_load:
                net = (
                    power.regulator.input_current(
                        1.0, self._static_current + gpio_load
                    )
                    - power._injected_current
                )
                fw.gpio_load = gpio_load
                fw.net = net
                fw.v_inf = fw.voc - net * fw.rs
                fw.extra.clear()
        stop = self._stop_after
        if stop is not None and sim._now >= stop:
            return self._slow_spend("deadline", cycles, extra_current)
        try:
            dt, exp_charge, leak_factor = fw.segments[cycles]
        except KeyError:
            dt = cycles * self._cycle_time
            seg = (
                dt,
                math.exp(-dt / fw.tau),
                math.exp(-dt / fw.leak_tau)
                if fw.leak_tau is not None
                else None,
            )
            if len(fw.segments) >= 256:
                fw.segments.clear()
            fw.segments[cycles] = seg
            dt, exp_charge, leak_factor = seg
        t1 = sim._now + dt
        if not t1 < fw.bound:
            return self._slow_spend("bound", cycles, extra_current)
        queue = sim._queue
        due = queue and queue[0].time <= t1
        if due and not queue[0].passive:
            return self._slow_spend("event", cycles, extra_current)
        capacitor = power.capacitor
        v = capacitor._voltage
        if not v > 0.0:
            return self._slow_spend("floor", cycles, extra_current)
        if extra_current == 0.0:
            if fw.voc > v:
                new_v = fw.v_inf + (v - fw.v_inf) * exp_charge
            else:
                new_v = v - fw.net * dt / fw.cap
        else:
            net, v_inf = self._extra_constants(fw, extra_current)
            if fw.voc > v:
                new_v = v_inf + (v - v_inf) * exp_charge
            else:
                new_v = v - net * dt / fw.cap
        # Branch-chain clamp: bit-identical to min(max(new_v, 0.0),
        # vmax) including the NaN- and signed-zero-propagation corners.
        if new_v < 0.0:
            v1 = 0.0
        elif new_v > fw.vmax:
            v1 = fw.vmax
        else:
            v1 = new_v
        if leak_factor is not None and v1 > 0.0:
            v1 = v1 * leak_factor
            if v1 < 0.0:
                v1 = 0.0
            elif v1 > fw.vmax:
                v1 = fw.vmax
        if not v1 >= fw.floor:
            return self._slow_spend("floor", cycles, extra_current)
        if due:
            # The slow path's order: callbacks at their own instants
            # with the pre-step Vcap, then the step.  Whatever they left
            # behind must still match the replayed constants; if not,
            # the slow path sweeps what remains and steps afresh.
            sim._sweep_passive(t1)
            queue = sim._queue
            if (
                (queue and queue[0].time <= t1)
                or self._spend_window is not fw
                or capacitor._voltage != v
                or not self._spend_window_live(fw)
            ):
                return self._slow_spend("event", cycles, extra_current)
        sim._now = t1
        capacitor._voltage = v1
        self.cycles_executed += cycles
        drained = 0.5 * fw.cap * v * v - 0.5 * fw.cap * v1 * v1
        if drained > 0.0:
            self.energy_consumed += drained
        units = self.work_units + 1
        self.work_units = units
        if (
            units >= self._unit_deadline
            or self.cycles_executed >= self._cycle_deadline
        ):
            self._fire_watches()

    def _extra_constants(
        self, fw: _SpendWindow, extra_current: float
    ) -> tuple[float, float]:
        """``(net, v_inf)`` of a spend drawing ``extra_current`` on top."""
        try:
            return fw.extra[extra_current]
        except KeyError:
            pass
        # The slow path's load, ((static + gpio) + extra), fed to the
        # regulator at a live rail.
        power = self.power
        net = (
            power.regulator.input_current(
                1.0, self._static_current + fw.gpio_load + extra_current
            )
            - power._injected_current
        )
        constants = (net, fw.voc - net * fw.rs)
        if len(fw.extra) >= 16:
            fw.extra.clear()
        fw.extra[extra_current] = constants
        return constants

    def _slow_spend(self, cause: str, cycles: int, extra_current: float) -> None:
        """Count a fast-path refusal under ``cause``, then spend slowly."""
        self.slow_spends[cause] += 1
        self._execute_cycles_slow(cycles, extra_current)

    def _execute_cycles_slow(self, cycles: int, extra_current: float) -> None:
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative (got {cycles})")
        current = (
            self._static_current
            + self.gpio.total_load_current()
            + extra_current
        )
        self._step(cycles * self._cycle_time, current, cycles)
        self._refresh_spend_window()
        self._unit_done()

    def _step(self, dt: float, current: float, cycles: int = 0) -> None:
        """Advance ``dt`` at ``current`` one supply step at a time."""
        if self._stop_after is not None and self.sim.now >= self._stop_after:
            raise ExecutionLimit(f"deadline {self._stop_after:.6f} s reached")
        self._check_power()
        # Inline of capacitor.energy (0.5 * C * V * V, the exact
        # cap_energy expression): this runs twice per unit of work and
        # the property + helper call overhead dominates it.
        capacitor = self.power.capacitor
        v = capacitor._voltage
        energy_before = 0.5 * capacitor.capacitance * v * v
        self.sim.advance(dt)
        self.power.step(dt, current)
        self.cycles_executed += cycles
        v = capacitor._voltage
        drained = energy_before - 0.5 * capacitor.capacitance * v * v
        if drained > 0.0:
            self.energy_consumed += drained
        self._check_power()

    def _spend_window_live(self, fw: _SpendWindow) -> bool:
        """Whether an existing window is still trustworthy right now."""
        sim = self.sim
        power = self.power
        source = fw.source
        return (
            fw.epoch == power._env_epoch
            and fw.fired == sim._fired
            # total_load_current() rather than the raw cache: a GPIO
            # edge nulls the cache even when the recomputed sum is
            # unchanged (heartbeat pins carry no load), and an
            # unchanged sum keeps every constant in the window exact.
            and fw.gpio_load == self.gpio.total_load_current()
            and (not fw.src_has_enabled or source.enabled == fw.src_enabled)
            and (
                not fw.src_has_distance
                or source.distance_m == fw.src_distance
            )
            and sim._now < fw.bound
        )

    def _refresh_spend_window(self) -> None:
        """(Re)build the fast spend window after a successful slow step.

        Kept when still live — a fast-path bail on a transient condition
        (an imminent event, low energy) does not mean the constants
        changed.
        """
        if not self._windowed:
            return
        fw = self._spend_window
        if fw is not None and self._spend_window_live(fw):
            return
        self._spend_window = self._build_spend_window()

    def _build_spend_window(self) -> _SpendWindow | None:
        power = self.power
        probe = power.steady_window()
        if probe is None:
            return None
        voc, rs, bound, floor = probe
        if self._vcap_level > floor:
            # The next float above the Vcap watch level: a step that
            # reaches the level always takes the slow path.
            floor = math.nextafter(self._vcap_level, math.inf)
        gpio_load = self.gpio.total_load_current()
        # The slow path computes ((static + gpio) + extra); for
        # extra == 0.0, x + 0.0 == x bitwise for the positive current
        # sums involved — so this is the same float the slow path feeds
        # the regulator.  Nonzero extras get their own constants
        # (``extra``), from the full expression.
        current = self._static_current + gpio_load
        # input_current is voltage-independent above cut-off; probe it
        # with a nominal live rail (the fast path separately requires
        # v > 0 before using the constant).
        net = (
            power.regulator.input_current(1.0, current)
            - power._injected_current
        )
        capacitor = power.capacitor
        cap = capacitor.capacitance
        source = power._tether if power._tether is not None else power.source
        fw = _SpendWindow()
        fw.epoch = power._env_epoch
        fw.fired = self.sim._fired
        fw.gpio_load = gpio_load
        fw.source = source
        fw.src_has_enabled = hasattr(source, "enabled")
        fw.src_has_distance = hasattr(source, "distance_m")
        fw.src_enabled = source.enabled if fw.src_has_enabled else True
        fw.src_distance = (
            source.distance_m if fw.src_has_distance else None
        )
        fw.voc = voc
        fw.rs = rs
        fw.net = net
        fw.tau = rs * cap
        fw.v_inf = voc - net * rs
        fw.cap = cap
        fw.vmax = capacitor.max_voltage
        fw.floor = floor
        fw.bound = bound
        leak_r = capacitor.leakage_resistance
        fw.leak_tau = leak_r * cap if leak_r is not None else None
        fw.segments = {}
        fw.extra = {}
        return fw

    # -- watches ---------------------------------------------------------------
    def watch(self, callback: Callable[[], None]) -> Watch:
        """Install an unarmed :class:`Watch` that calls ``callback``.

        Reached watches fire after a work unit, in installation order.
        """
        watch = Watch(self, callback)
        self._watches.append(watch)
        return watch

    @property
    def boot_units(self) -> int:
        """Work units this boot (``on_reboot`` sees the ended boot's)."""
        return self.work_units - self._boot_start_units

    def _rearm(self) -> None:
        watches = self._watches
        self._unit_deadline = min((w.units for w in watches), default=NEVER)
        self._cycle_deadline = min((w.cycles for w in watches), default=NEVER)
        level = max((w.vcap for w in watches), default=-math.inf)
        if level != self._vcap_level:
            self._vcap_level = level
            self._spend_window = None  # its floor folds the level in

    def _unit_done(self) -> None:
        self.work_units += 1
        if (
            self.work_units >= self._unit_deadline
            or self.cycles_executed >= self._cycle_deadline
            or self.power.capacitor._voltage <= self._vcap_level
        ):
            self._fire_watches()

    def _fire_watches(self) -> None:
        """Call back reached watches; nested work neither counts nor fires."""
        if self._firing:
            return
        units = self.work_units
        self._firing = True
        try:
            for watch in tuple(self._watches):
                if (
                    watch.units <= units
                    or watch.cycles <= self.cycles_executed
                    or self.power.capacitor._voltage <= watch.vcap
                ):
                    watch.callback()
        finally:
            self.work_units = units
            self._firing = False

    def block_guard(self, worst_cycles: int) -> bool:
        """Whether a translated block of ``worst_cycles`` may run now.

        Conservative by design — the CPU deoptimizes to per-instruction
        stepping when this returns ``False``: near brown-out (the
        capacitor is within the block's worst-case droop of the
        threshold), when a scheduled event falls inside the block's
        cycle span, or when no steady window exists at all.  A passive
        event at the head of the queue does not deoptimize: it only
        reads and records, and the spend of the thunk it falls in fires
        it at the same instant single-stepping would.  Correctness
        never depends on this guard: every thunk still pays its spend
        through :meth:`execute_cycles`, which re-checks everything —
        the guard only keeps deoptimization at observation points
        honest and cheap.
        """
        if self._refuse_blocks:
            return False
        fw = self._spend_window
        if fw is None or not self._spend_window_live(fw):
            return False
        sim = self.sim
        dt = worst_cycles * self._cycle_time
        t1 = sim._now + dt
        if not t1 < fw.bound:
            return False
        queue = sim._queue
        if queue and queue[0].time <= t1 and not queue[0].passive:
            return False
        if self._stop_after is not None and t1 >= self._stop_after:
            return False
        v = self.power.capacitor._voltage
        if not v > 0.0:
            return False
        if fw.floor == -math.inf:
            return True
        # Worst-case voltage droop over the whole block: the net load
        # cannot pull the capacitor down faster than net/C in either
        # charge_step branch, plus leakage at the clamp voltage.
        drop = 2.0 * abs(fw.net) * dt / fw.cap
        if fw.leak_tau is not None:
            drop += fw.vmax * dt / fw.leak_tau
        return v - drop >= fw.floor

    def spend_time(self, seconds: float, extra_current: float = 0.0) -> None:
        """Burn wall-clock work (bus transfers) against the supply."""
        cycles = max(1, round(seconds * self.constants.clock_hz))
        self.execute_cycles(cycles, extra_current=extra_current)

    def sleep(self, seconds: float) -> None:
        """Low-power sleep: time passes at the sleep current.

        Sleep is work like any other: the energy drawn at the sleep
        current lands in :attr:`energy_consumed`, and it counts as a
        work unit that fires watches — an attached debugger's energy
        breakpoints must fire whether the device burned the energy
        computing or dozing.
        """
        self._step(seconds, self.constants.sleep_current)
        self._unit_done()

    # -- code markers (EDB program-event monitoring) ----------------------------
    def code_marker(self, marker_id: int) -> None:
        """Pulse the code-marker GPIO lines to encode ``marker_id``.

        This is the near-free program-event signalling of §4.1.3: the
        target holds the lines for a single cycle.  Identifier 0 is
        reserved (it is indistinguishable from "no marker").
        """
        if not 1 <= marker_id <= self.max_marker_id:
            raise ValueError(
                f"marker id {marker_id} out of range 1..{self.max_marker_id}"
            )
        # The release must survive a brown-out inside the one-cycle
        # pulse: without the finally, a PowerFailure raised by the spend
        # leaves the lines driven high until the next reboot, and the
        # debugger would read a phantom marker while the target is dark.
        try:
            for bit, line in enumerate(self.marker_lines):
                line.drive(bool(marker_id & (1 << bit)))
            self.execute_cycles(1)
            for hook in self.on_code_marker:
                hook(marker_id)
        finally:
            for line in self.marker_lines:
                line.drive(False)

    def _cpu_mark(self, marker_id: int) -> None:
        self.code_marker(marker_id)

    # -- reboot / program control -------------------------------------------------
    def reboot(self) -> None:
        """Power-failure reset: clear volatile state, keep FRAM."""
        self.memory.clear_volatile()
        self.gpio.reset()
        self.uart.reset()
        self.debug_uart.reset()
        for line in self.marker_lines:
            line.drive(False)
        self.debug_signal.drive(False)
        if self._program is not None:
            self.cpu.reset(self._program.entry)
        else:
            self.cpu.reset(0)
        self.reboot_count += 1
        self.sim.trace.record("target.reboot", self.reboot_count)
        for hook in self.on_reboot:
            hook(self.reboot_count)
        self._boot_start_units = self.work_units

    def load_program(self, program: Program) -> None:
        """Write an assembled image into FRAM and point the CPU at it."""
        self.memory.write_bytes(program.origin, program.to_bytes())
        self._program = program
        self.cpu.reset(program.entry)

    @property
    def program(self) -> Program | None:
        """The currently loaded ISA program image, if any."""
        return self._program

    # -- self-measurement ------------------------------------------------------------
    def measure_own_vcap(self) -> float:
        """The target measuring its *own* storage voltage via its ADC.

        Costs ~160 cycles (ADC setup + conversion), which — as §4.1
        notes — itself perturbs the energy state being measured.
        """
        self.execute_cycles(160)
        return self.adc_mux.read("vcap")
