"""The intermittent power system: harvester + capacitor + comparator.

:class:`PowerSystem` glues an :class:`~repro.power.harvester.EnergySource`
to a :class:`~repro.power.capacitor.StorageCapacitor` and a regulator,
and applies the hysteresis comparator that defines intermittent
operation: the load turns on when the capacitor reaches the *turn-on
threshold* and browns out when it falls below the *brown-out threshold*
(2.4 V and 1.8 V on the WISP 5).

The power system is also the point where EDB touches the target's
energy state:

- passive-mode leakage currents are injected via
  :meth:`PowerSystem.inject_current`;
- active-mode tethering swaps in a stiff supply via
  :meth:`PowerSystem.tether`;
- the charge/discharge circuit manipulates the capacitor directly
  (see :mod:`repro.analog.charge_circuit`).
"""

from __future__ import annotations

import enum
import math
from typing import Callable

from repro.power.capacitor import StorageCapacitor
from repro.power.harvester import EnergySource, charge_step
from repro.power.regulator import LinearRegulator
from repro.sim import units
from repro.sim.kernel import Simulator


class PowerState(enum.Enum):
    """Operating state of the intermittently powered load."""

    OFF = "off"  # below turn-on threshold, charging
    ON = "on"  # operating, discharging toward brown-out


class PowerSystem:
    """Intermittent supply with hysteresis thresholds.

    Parameters
    ----------
    sim:
        Simulation kernel (clock + trace).
    source:
        Ambient energy source (Thevenin model).
    capacitor:
        Energy storage element.
    regulator:
        On-board LDO feeding the MCU.
    turn_on_voltage / brownout_voltage:
        Comparator thresholds in volts; turn-on must exceed brown-out.
    trace_channel:
        Channel prefix for power events in the simulation trace.
    """

    def __init__(
        self,
        sim: Simulator,
        source: EnergySource,
        capacitor: StorageCapacitor,
        regulator: LinearRegulator | None = None,
        turn_on_voltage: float = 2.4,
        brownout_voltage: float = 1.8,
        trace_channel: str = "power",
    ) -> None:
        if turn_on_voltage <= brownout_voltage:
            raise ValueError(
                f"turn-on threshold ({turn_on_voltage} V) must exceed "
                f"brown-out threshold ({brownout_voltage} V)"
            )
        self.sim = sim
        self.source = source
        self.capacitor = capacitor
        self.regulator = regulator or LinearRegulator()
        self.turn_on_voltage = turn_on_voltage
        self.brownout_voltage = brownout_voltage
        self.trace_channel = trace_channel

        self._state = PowerState.OFF
        self._tether: EnergySource | None = None
        self._injected_current = 0.0
        self.reboots = 0
        self.turn_ons = 0
        self.on_power_change: list[Callable[[PowerState], None]] = []
        # Environment epoch: bumped whenever anything that a cached
        # steady-state view of the supply could depend on changes out
        # of band — tether/untether, injected current, comparator
        # transitions and resets.  The device's fast spend window (see
        # TargetDevice.execute_cycles) compares this counter instead of
        # subscribing to every hook.  Code that mutates source
        # parameters directly mid-run should call
        # :meth:`invalidate_env`.
        self._env_epoch = 0
        # Per-source probe cache for the batching fast paths: the
        # hold_until/thevenin lookups are per-*type* facts, but both
        # probes run on every batched step and the defaulted getattr
        # pair is measurable there.  Keyed by source identity so a
        # tether swap naturally misses.
        self._probe_cache: tuple | None = None
        # Memoised constants of ``idle_step`` (see there).
        self._idle_window: _IdleWindow | None = None
        self._refresh_state(initial=True)

    # -- observers --------------------------------------------------------
    @property
    def vcap(self) -> float:
        """Capacitor (storage) voltage in volts."""
        return self.capacitor.voltage

    @property
    def vreg(self) -> float:
        """Regulated rail voltage in volts (tracks Vcap in dropout)."""
        return self.regulator.output_voltage(self.capacitor.voltage)

    @property
    def state(self) -> PowerState:
        """Current comparator state."""
        return self._state

    @property
    def is_on(self) -> bool:
        """True while the load is powered.

        Either the comparator is in its ON state (between turn-on and
        brown-out), or EDB has tethered the target to a continuous
        supply — a tethered MCU is powered regardless of the stored
        energy level (that is the whole point of keep-alive).
        """
        return self._state is PowerState.ON or self.is_tethered

    @property
    def is_tethered(self) -> bool:
        """True while EDB has swapped in a continuous supply."""
        return self._tether is not None

    def headroom_energy(self) -> float:
        """Usable energy above the brown-out threshold, in joules."""
        floor = units.cap_energy(self.capacitor.capacitance, self.brownout_voltage)
        return max(0.0, self.capacitor.energy - floor)

    # -- EDB attachment points ---------------------------------------------
    def inject_current(self, current_a: float) -> None:
        """Set the net DC current injected by an attached debugger.

        Positive current charges the target (energy-interference *into*
        the device); negative discharges it.  The value persists until
        changed — it models a steady leakage operating point.
        """
        self._injected_current = current_a
        self._env_epoch += 1

    @property
    def injected_current(self) -> float:
        """Currently injected debugger-side DC current (amperes)."""
        return self._injected_current

    def tether(self, supply: EnergySource) -> None:
        """Power the target from ``supply`` instead of the harvester."""
        self._tether = supply
        self._env_epoch += 1

    def untether(self) -> None:
        """Return the target to harvested power."""
        self._tether = None
        self._env_epoch += 1

    def invalidate_env(self) -> None:
        """Declare that the electrical environment changed out of band.

        Call after mutating source parameters directly (distance,
        enablement, duty) outside a simulator event — cached
        steady-state views of the supply are dropped and rebuilt from
        the live values on the next step.
        """
        self._env_epoch += 1

    def force_brownout(self, margin_v: float = 0.02) -> bool:
        """Yank the capacitor just below the brown-out threshold.

        The surgical fault-injection primitive shared by the test
        injectors and the campaign engine: the *next* unit of device
        work observes the dead rail and raises ``PowerFailure``, exactly
        as an organic brown-out would.  Returns ``False`` (and does
        nothing) when the target is tethered — a stiff supply cannot be
        browned out, which mirrors the hardware.
        """
        if self.is_tethered:
            return False
        self.capacitor.voltage = min(
            self.capacitor.voltage, self.brownout_voltage - margin_v
        )
        self.step(0.0)
        return True

    # -- dynamics -----------------------------------------------------------
    def _active_source(self) -> EnergySource:
        return self._tether if self._tether is not None else self.source

    def _source_probes(self, source: EnergySource) -> tuple:
        """``(source, hold_until, thevenin)`` with memoized lookups."""
        cache = self._probe_cache
        if cache is not None and cache[0] is source:
            return cache
        cache = (
            source,
            getattr(source, "hold_until", None),
            getattr(source, "thevenin", None),
        )
        self._probe_cache = cache
        return cache

    def step(self, dt: float, load_current: float = 0.0) -> bool:
        """Advance the electrical state by ``dt`` with the given load.

        ``load_current`` is what the MCU and peripherals draw from the
        regulator; the regulator adds its quiescent current.  Returns
        ``True`` if the load is still powered after the step.
        """
        if dt < 0.0:
            raise ValueError(f"dt must be non-negative (got {dt})")
        source = self._active_source()
        t = self.sim.now
        capacitor = self.capacitor
        input_current = self.regulator.input_current(
            capacitor.voltage, load_current
        )
        net_load = input_current - self._injected_current
        # One source evaluation per step: thevenin() returns the exact
        # (Voc, Rs) pair the two separate accessors would.
        thevenin = self._source_probes(source)[2]
        if thevenin is not None:
            voc, rs = thevenin(t)
        else:
            voc = source.open_circuit_voltage(t)
            rs = source.source_resistance(t)
        new_v = charge_step(
            v0=capacitor.voltage,
            voc=voc,
            rs=rs,
            capacitance=capacitor.capacitance,
            load_current=net_load,
            dt=dt,
        )
        capacitor.voltage = new_v
        if capacitor.leakage_resistance is not None:
            capacitor.step_leakage(dt)
        self._refresh_state()
        return self.is_on

    def idle_step(self, dt: float) -> None:
        """Advance the electrical state with the load powered off.

        Every tick of EDB's charge/discharge control loops runs one:
        only the harvester (or tether) and any injected debugger current
        act on the capacitor.

        Replays ``step(dt, 0.0)`` bit for bit (same expressions, operand
        order, clamps and comparator transitions — the discipline
        ``_charge_fast_forward`` follows) from memoised constants: the
        Thevenin pair, ``exp(-dt/tau)``, the regulator's quiescent draw
        and the leakage factor.  The constants are rebuilt whenever one
        may have changed: another ``dt``, a bump of the environment
        epoch (a new injected current, a tether swap, a comparator
        reset, :meth:`invalidate_env`), a changed ``enabled`` or
        ``distance_m`` on the active source (environment events set
        those directly; the device's spend window checks them too), or
        the clock reaching the source's hold bound.  A source
        without ``hold_until``, a dead capacitor (the regulator draws
        nothing) and a non-positive ``dt`` take ``step`` itself.
        """
        window = self._idle_window
        source = self._tether if self._tether is not None else self.source
        if not (
            window is not None
            and window.dt == dt
            and window.epoch == self._env_epoch
            and self.sim._now < window.bound
            and (not window.has_enabled or source.enabled == window.enabled)
            and (
                not window.has_distance or source.distance_m == window.distance
            )
        ):
            window = self._idle_window = self._build_idle_window(dt, source)
        capacitor = self.capacitor
        v = capacitor._voltage
        if window is None or not v > 0.0:
            self.step(dt, 0.0)
            return
        if window.voc > v:
            new_v = window.v_inf + (v - window.v_inf) * window.exp_charge
        else:
            new_v = v - window.lin_delta
        # Branch-chain clamps: bit-identical to the voltage setter's
        # min(max(v, 0.0), vmax), as in TargetDevice.execute_cycles.
        vmax = capacitor.max_voltage
        if new_v < 0.0:
            new_v = 0.0
        elif new_v > vmax:
            new_v = vmax
        leak_factor = window.leak_factor
        if leak_factor is not None and new_v > 0.0:
            new_v = new_v * leak_factor
            if new_v < 0.0:
                new_v = 0.0
            elif new_v > vmax:
                new_v = vmax
        capacitor._voltage = new_v
        if self._state is PowerState.ON:
            if new_v < self.brownout_voltage and self._tether is None:
                self._refresh_state()
        elif new_v >= self.turn_on_voltage:
            self._refresh_state()

    def _build_idle_window(
        self, dt: float, source: EnergySource
    ) -> "_IdleWindow | None":
        """``idle_step``'s constants for ``dt`` from now, or ``None``."""
        if not dt > 0.0:
            return None
        held = self._held_conditions(source)
        if held is None:
            return None
        voc, rs, bound = held
        capacitor = self.capacitor
        capacitance = capacitor.capacitance
        # input_current is voltage-independent above cut-off; probe it
        # with a nominal live rail (idle_step only uses the constants
        # while the capacitor is charged).
        net_load = self.regulator.input_current(1.0, 0.0) - self._injected_current
        window = _IdleWindow()
        window.dt = dt
        window.epoch = self._env_epoch
        window.bound = bound
        window.has_enabled = hasattr(source, "enabled")
        window.enabled = source.enabled if window.has_enabled else None
        window.has_distance = hasattr(source, "distance_m")
        window.distance = source.distance_m if window.has_distance else None
        window.voc = voc
        # Same expressions as charge_step() and step_leakage().
        window.v_inf = voc - net_load * rs
        window.exp_charge = math.exp(-dt / (rs * capacitance))
        window.lin_delta = net_load * dt / capacitance
        leak_r = capacitor.leakage_resistance
        window.leak_factor = (
            math.exp(-dt / (leak_r * capacitance)) if leak_r is not None else None
        )
        return window

    def charge_until_on(
        self,
        step_dt: float = 100 * units.US,
        timeout: float = 10.0,
        batch: bool = True,
    ) -> float:
        """Simulate the off period until the turn-on threshold is reached.

        Advances the simulation clock (so scheduled events — e.g. EDB's
        ADC sampling — keep firing while the target is dark).  Returns
        the charging time spent.  Raises :class:`ChargingTimeout` if the
        source cannot reach the threshold within ``timeout`` seconds —
        which happens when debugging instrumentation (or a broken app)
        out-draws the harvester.

        The charge is normally fast-forwarded analytically: instead of
        paying the full per-step machinery every 100 us, the RC curve is
        replayed on the same time grid in pure local arithmetic and the
        clock jumps straight to the turn-on crossing, clamped to the
        next scheduled event and to any change in source conditions (a
        fading redraw, a duty edge) so nothing fires late.  The replay
        is *bit-exact* with respect to the stepped integration — that is
        the campaign engine's byte-identical-report contract.  ``batch``
        exists as a verification escape hatch: ``batch=False`` forces
        the historical one-``step``-per-iteration path.
        """
        start = self.sim.now
        while not self.is_on:
            if self.sim.stop_requested:
                break  # cooperative stop: caller resumes charging later
            if self.sim.now - start > timeout:
                raise ChargingTimeout(
                    f"capacitor stuck at {self.vcap:.3f} V after "
                    f"{timeout:.2f} s of charging (turn-on is "
                    f"{self.turn_on_voltage:.2f} V)"
                )
            if not batch or not self._charge_fast_forward(
                step_dt, start, timeout
            ):
                # Plain step, not idle_step: this path runs exactly where
                # the fast-forward found no window, so memoising would
                # only pay a probe that cannot be reused.
                self.sim.advance(step_dt)
                self.step(step_dt, 0.0)
        return self.sim.now - start

    def _charge_fast_forward(
        self, step_dt: float, start: float, timeout: float
    ) -> bool:
        """Fast-forward whole charging steps; True if any were taken.

        Replays the exact arithmetic of ``step(dt, 0.0)`` (regulator draw,
        :func:`charge_step`, clamping, leakage) on the exact time grid
        (``now`` advanced by repeated ``+ step_dt``), but only inside a
        window where nothing can observe or perturb the trajectory:
        strictly before the next scheduled event and strictly before the
        source's conditions may change (see ``hold_until``).  Anything
        outside the window — an imminent event, a fading redraw, a duty
        edge, a degenerate voltage — falls back to the caller's
        one-step-at-a-time path, which handles it exactly as before.
        """
        source = self._active_source()
        _, hold_until, thevenin = self._source_probes(source)
        if hold_until is None:
            return False  # unknown source model: never batch over it
        t0 = self.sim.now
        bound = hold_until(t0)
        next_event = self.sim.next_event_time()
        if next_event < bound:
            bound = next_event
        if not bound > t0:  # also rejects a NaN bound
            return False
        cap = self.capacitor
        v = cap.voltage
        if v <= 0.0:
            return False  # regulator cut-off edge: take the slow path
        # Inside the window the source is constant and call-free, so
        # sampling at t0 is the value every step would see.
        if thevenin is not None:
            voc, rs = thevenin(t0)
        else:
            voc = source.open_circuit_voltage(t0)
            rs = source.source_resistance(t0)
        net_load = self.regulator.input_current(v, 0.0) - self._injected_current
        capacitance = cap.capacitance
        vmax = cap.max_voltage
        turn_on = self.turn_on_voltage
        # Per-step constants, computed exactly as charge_step() and
        # step_leakage() compute them (same expressions, same rounding).
        tau = rs * capacitance
        exp_charge = math.exp(-step_dt / tau)
        v_inf = voc - net_load * rs
        lin_delta = net_load * step_dt / capacitance
        leak_r = cap.leakage_resistance
        leak_factor = (
            math.exp(-step_dt / (leak_r * capacitance))
            if leak_r is not None
            else 1.0
        )
        t = t0
        steps = 0
        while True:
            next_t = t + step_dt
            if next_t >= bound:
                break
            if t - start > timeout:
                break  # outer loop re-checks and raises ChargingTimeout
            if voc > v:
                new_v = v_inf + (v - v_inf) * exp_charge
            else:
                new_v = v - lin_delta  # rectifier blocks: linear discharge
            v = min(max(new_v, 0.0), vmax)
            if leak_r is not None and v > 0.0:
                v = min(max(v * leak_factor, 0.0), vmax)
            t = next_t
            steps += 1
            if v >= turn_on or v <= 0.0:
                break
        if steps == 0:
            return False
        # Defence in depth against boundary rounding in hold_until():
        # the source must still read back the sampled conditions at the
        # end of the window, else discard the batch and replay slowly.
        if thevenin is not None:
            if thevenin(t) != (voc, rs):
                return False
        elif (
            source.open_circuit_voltage(t) != voc
            or source.source_resistance(t) != rs
        ):
            return False
        self.sim.advance_to(t)  # exact grid time; fires nothing by construction
        cap.voltage = v
        self._refresh_state()
        return True

    def reset_comparator(self) -> None:
        """Re-evaluate the comparator from scratch (cold-start rules).

        Used after externally forcing the capacitor voltage (e.g. the
        executor restoring the pre-flash level): the load is considered
        OFF unless the voltage is at or above the turn-on threshold.
        """
        self._state = (
            PowerState.ON
            if self.capacitor.voltage >= self.turn_on_voltage
            else PowerState.OFF
        )
        self._env_epoch += 1

    def steady_window(self) -> tuple[float, float, float, float] | None:
        """A window in which per-step supply arithmetic is replayable.

        Returns ``(voc, rs, bound, floor)``, meaning: while the
        comparator stays ON, the clock is strictly before ``bound``, and
        the stepped voltage stays at or above ``floor``, every supply
        step is a pure function of ``(v, dt)`` with the returned
        Thevenin pair — no RNG draws, no comparator transitions, no
        trace records, no hooks.  ``floor`` is the brown-out threshold,
        or ``-inf`` for a tethered target (a stiff supply cannot brown
        out).  Returns ``None`` when no such window exists right now
        (comparator OFF, an unknown source model, or source conditions
        about to change).

        ``hold_until`` is queried *before* ``thevenin`` so that a
        pending fading redraw (hold_until returning "now") aborts the
        probe without consuming the RNG draw — it must land on the
        stepped path's schedule.  The bound is shrunk by a few ulps as
        defence against boundary rounding in the sources' duty-edge
        arithmetic (same hazard ``_charge_fast_forward`` re-verifies
        against); the shrink only ever causes earlier slow-stepping.
        """
        if self._state is not PowerState.ON:
            return None
        held = self._held_conditions(self._active_source())
        if held is None:
            return None
        floor = -math.inf if self.is_tethered else self.brownout_voltage
        return (*held, floor)

    def _held_conditions(
        self, source: EnergySource
    ) -> tuple[float, float, float] | None:
        """``(voc, rs, bound)``: ``source``'s conditions held until ``bound``.

        ``None`` for an unknown source model or conditions about to
        change.  See :meth:`steady_window` for the probe order and the
        bound's shrink.
        """
        _, hold_until, thevenin = self._source_probes(source)
        if hold_until is None:
            return None  # unknown source model: never batch over it
        t0 = self.sim.now
        bound = hold_until(t0)
        if bound != math.inf:
            bound -= 8.0 * math.ulp(bound)
        if not bound > t0:  # also rejects a NaN bound
            return None
        if thevenin is not None:
            voc, rs = thevenin(t0)
        else:
            voc = source.open_circuit_voltage(t0)
            rs = source.source_resistance(t0)
        return voc, rs, bound

    def _refresh_state(self, initial: bool = False) -> None:
        v = self.capacitor.voltage
        if self._state is PowerState.ON:
            # A tethered target cannot brown out: the stiff supply holds
            # the rail above the threshold by construction, but guard
            # against a mid-step dip while the tether charges the cap.
            if v < self.brownout_voltage and not self.is_tethered:
                self._state = PowerState.OFF
                self._env_epoch += 1
                self.reboots += 1
                self.sim.trace.record(f"{self.trace_channel}.brownout", v)
                for hook in self.on_power_change:
                    hook(self._state)
        else:
            if v >= self.turn_on_voltage:
                self._state = PowerState.ON
                self._env_epoch += 1
                self.turn_ons += 1
                if not initial:
                    self.sim.trace.record(f"{self.trace_channel}.turn_on", v)
                for hook in self.on_power_change:
                    hook(self._state)


class _IdleWindow:
    """Memoised constants of :meth:`PowerSystem.idle_step`, with their key."""

    __slots__ = (
        "dt",
        "epoch",
        "bound",
        "has_enabled",
        "enabled",
        "has_distance",
        "distance",
        "voc",
        "v_inf",
        "exp_charge",
        "lin_delta",
        "leak_factor",
    )


class ChargingTimeout(RuntimeError):
    """The harvester could not bring the capacitor up to turn-on."""
