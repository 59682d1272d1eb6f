"""EDB's charge/discharge circuit and its software control loops.

Hardware (§4.1.1): a GPIO pin drives the target's storage capacitor
through a low-pass filter and keeper diode to charge it; a fixed
resistive load discharges it.  While inactive the circuit sits in a
high-impedance state (its leakage is part of the Table 2 harness).

Software: basic iterative control loops — sample the capacitor voltage
through EDB's ADC every control period, keep charging/discharging until
the measurement crosses the setpoint.

The model reproduces the two real inaccuracy mechanisms that Table 3
measures:

- *quantisation*: the loop only observes the voltage once per control
  period through a 12-bit ADC, so it always overshoots the setpoint by
  up to one period's worth of charge;
- *filter dump*: when the charging GPIO turns off, the low-pass
  filter's capacitor is still charged above the target voltage and
  bleeds through the keeper diode into the storage capacitor, adding a
  final ~50 mV — the dominant term in the paper's mean 54 mV
  save/restore discrepancy.
"""

from __future__ import annotations

import math

from repro.mcu.adc import Adc
from repro.power.supply import PowerSystem
from repro.sim import units
from repro.sim.kernel import Simulator


class ChargeDischargeCircuit:
    """The energy-manipulation circuit plus its control loops.

    Parameters
    ----------
    sim / power:
        Simulation kernel and the *target's* power system (the circuit
        manipulates the target's storage capacitor directly).
    adc:
        EDB's ADC, through which the control loops observe Vcap.
    charge_current:
        Current delivered while the charging GPIO is on.
    discharge_resistance:
        The fixed resistive discharge load.
    control_period:
        Interval between control-loop voltage samples.
    gpio_voltage:
        EDB's GPIO rail (sets the filter-dump magnitude).
    filter_capacitance:
        The low-pass filter capacitor that causes the post-charge dump.
    diode_drop:
        Keeper diode forward drop.
    """

    def __init__(
        self,
        sim: Simulator,
        power: PowerSystem,
        adc: Adc,
        charge_current: float = 5 * units.MA,
        discharge_resistance: float = 220 * units.OHM,
        # The fine load draws V / 1.5 kOhm, which out-pulls the ~1.1 mA a
        # WISP harvests at 1 m from the reader only above about 1.65 V.
        # Below that, near the reader, the approach loop stalls a few mV
        # above the target and discharge_to runs into its timeout.
        fine_discharge_resistance: float = 1.5 * units.KOHM,
        coarse_band: float = 10 * units.MV,
        control_period: float = 100 * units.US,
        gpio_voltage: float = 3.3,
        filter_capacitance: float = 3.3 * units.UF,
        diode_drop: float = 0.25,
    ) -> None:
        if not charge_current > 0.0:
            raise ValueError(f"charge current must be positive (got {charge_current})")
        if not 0.0 < control_period < math.inf:
            raise ValueError(
                f"control period must be positive and finite (got {control_period})"
            )
        self.sim = sim
        self.power = power
        self.adc = adc
        self.charge_current = charge_current
        self.discharge_resistance = discharge_resistance
        self.fine_discharge_resistance = fine_discharge_resistance
        self.coarse_band = coarse_band
        self.control_period = control_period
        self.gpio_voltage = gpio_voltage
        self.filter_capacitance = filter_capacitance
        self.diode_drop = diode_drop
        self.charge_operations = 0
        self.discharge_operations = 0

    # -- internals --------------------------------------------------------
    def _filter_dump(self) -> None:
        """The post-charge filter-capacitor dump through the keeper diode.

        Charge conservation between the filter cap (at the GPIO rail)
        and the storage cap, down to one diode drop of headroom, with
        ~25 % lot-to-lot and timing spread.
        """
        headroom = self.gpio_voltage - self.power.vcap - self.diode_drop
        if headroom <= 0.0:
            return
        charge = self.filter_capacitance * headroom
        spread = self.sim.rng.gauss("charge-circuit.dump", 1.0, 0.25)
        spread = min(max(spread, 0.0), 2.0)
        delta_v = charge * spread / self.power.capacitor.capacitance
        self.power.capacitor.voltage = self.power.vcap + delta_v

    def _control(
        self, v_target: float, timeout: float, charge_current: float | None
    ) -> None:
        """The control loop both directions share.

        Each tick measures Vcap through the ADC, stops once the
        measurement crosses ``v_target``, else drives the capacitor for
        one control period and lets one period of simulated time pass
        at idle target load (``sim.advance`` then ``power.idle_step``,
        inlined up to the idle step).  ``charge_current`` charges with
        a pulse-width-modulated final approach; ``None`` discharges
        through the coarse, then the fine, load.
        """
        sim = self.sim
        power = self.power
        measure = self.adc.measure
        idle_step = power.idle_step
        capacitor = power.capacitor
        capacitance = capacitor.capacitance
        vmax = capacitor.max_voltage
        period = self.control_period
        charging = charge_current is not None
        deadline = sim.now + timeout
        while True:
            measured = measure(capacitor._voltage)
            if charging:
                if not measured < v_target:
                    return
            elif not measured > v_target:
                return
            v = capacitor._voltage
            if sim._now >= deadline:
                loop = "charge_to" if charging else "discharge_to"
                raise TimeoutError(f"{loop}({v_target:.3f}) stuck at {v:.3f} V")
            if charging:
                # Pulse-width modulate the final approach: never deliver
                # (much) more charge than the remaining gap needs.
                gap = v_target - measured + 1e-3
                pulse = min(period, capacitance * gap / charge_current)
                current = charge_current
            else:
                # Stage selection: use the coarse load only while a full
                # control period of it cannot overshoot the setpoint
                # (plus the configured band); finish with the fine load,
                # whose per-period step bounds the final undershoot.
                gap = measured - v_target
                coarse_current = v / self.discharge_resistance
                coarse_step = coarse_current * period / capacitance
                if gap > coarse_step + self.coarse_band:
                    current = -coarse_current
                else:
                    current = -(v / self.fine_discharge_resistance)
                pulse = period
            # StorageCapacitor.apply_current, clamp as its voltage setter.
            v = v + current * pulse / capacitance
            if v < 0.0:
                v = 0.0
            elif v > vmax:
                v = vmax
            capacitor._voltage = v
            # Simulator.advance(period).
            now = sim._now + period
            queue = sim._queue
            if not queue or queue[0].time > now:
                sim._now = now
            else:
                sim._sweep_to(now)
            idle_step(period)

    # -- public control loops ------------------------------------------------
    def charge_to(
        self, v_target: float, timeout: float = 1.0, fine: bool = False
    ) -> float:
        """Charge the target's capacitor until it measures >= ``v_target``.

        Returns the *true* final capacitor voltage.  ``fine`` uses a
        10x smaller charging current for trim operations (smaller
        quantisation overshoot, same filter dump).
        """
        if v_target <= 0.0:
            raise ValueError(f"target voltage must be positive (got {v_target})")
        self._control(
            v_target, timeout, self.charge_current * (0.1 if fine else 1.0)
        )
        self._filter_dump()
        self.charge_operations += 1
        self.sim.trace.record("edb.charge", self.power.vcap, target=v_target)
        return self.power.vcap

    def discharge_to(self, v_target: float, timeout: float = 1.0) -> float:
        """Discharge through the resistive loads until measured <= target.

        Two-stage control: the coarse load runs the bulk of the way,
        then the fine (high-resistance) load finishes the approach, so
        the final undershoot is a couple of millivolts — small enough
        that high-rate compensation (printf, energy guards) stays
        nearly free for the target.
        """
        if v_target < 0.0:
            raise ValueError(f"target voltage must be non-negative (got {v_target})")
        self._control(v_target, timeout, None)
        self.discharge_operations += 1
        self.sim.trace.record("edb.discharge", self.power.vcap, target=v_target)
        return self.power.vcap

    def restore_to(self, v_target: float) -> float:
        """Return the capacitor to a previously saved level.

        Used by energy compensation (§3.2): after an active-mode task
        on tethered power leaves the capacitor at the tether voltage,
        bring it back to the saved level — discharge below, then trim
        up with the fine charge path.  The trim's filter dump is what
        leaves the restored level a few tens of millivolts above the
        saved one (Table 3's ``+54 mV`` mean).
        """
        if self.power.vcap > v_target:
            self.discharge_to(v_target)
        if self.power.vcap < v_target:
            self.charge_to(v_target, fine=True)
        return self.power.vcap
