"""The energy storage capacitor.

The capacitor is the single energy buffer of the target device: the
harvester fills it, the MCU drains it, and EDB's charge/discharge
circuit manipulates it during active-mode debugging.  State is the
terminal voltage; energy follows ``E = 1/2 C V^2``.
"""

from __future__ import annotations

import math

from repro.sim import units


def closed_form_step(
    v: float,
    dt: float,
    voc: float,
    v_inf: float,
    exp_charge: float,
    net: float,
    capacitance: float,
    max_voltage: float,
    leak_factor: float | None,
) -> float:
    """One analytic RC(+leakage) trajectory step from precomputed constants.

    This is the reference form of the arithmetic the device's fast
    spend path inlines (``TargetDevice.execute_cycles``): the Thevenin charge solution
    ``v_inf + (v - v_inf) * exp(-dt/tau)`` while the open-circuit
    voltage is above the rail, the constant-net discharge
    ``v - net*dt/C`` otherwise, branch-chain clamped to
    ``[0, max_voltage]``, then the leakage decay factor
    ``exp(-dt/leak_tau)`` under the same clamp.  Expression shapes and
    operand order are load-bearing: the equivalence tests pin the
    device's inlined copy against this function bit for bit, which is
    what keeps the memoized fast path from drifting off the single-step
    trajectory.  ``exp_charge`` and
    ``leak_factor`` are the caller-memoized exponentials (``None``
    disables leakage).
    """
    if voc > v:
        new_v = v_inf + (v - v_inf) * exp_charge
    else:
        new_v = v - net * dt / capacitance
    if new_v < 0.0:
        out = 0.0
    elif new_v > max_voltage:
        out = max_voltage
    else:
        out = new_v
    if leak_factor is not None and out > 0.0:
        out = out * leak_factor
        if out < 0.0:
            out = 0.0
        elif out > max_voltage:
            out = max_voltage
    return out


class StorageCapacitor:
    """An ideal capacitor with optional self-leakage.

    Parameters
    ----------
    capacitance:
        Capacitance in farads (the WISP 5 uses 47 uF).
    voltage:
        Initial terminal voltage in volts.
    max_voltage:
        Clamp voltage in volts; charging above this is shunted (models
        the overvoltage-protection clamp present on harvesting front
        ends).
    leakage_resistance:
        Self-discharge path in ohms (``None`` disables self-leakage).
    """

    def __init__(
        self,
        capacitance: float,
        voltage: float = 0.0,
        max_voltage: float = 5.5,
        leakage_resistance: float | None = None,
    ) -> None:
        if capacitance <= 0.0:
            raise ValueError(f"capacitance must be positive (got {capacitance})")
        if voltage < 0.0:
            raise ValueError(f"initial voltage must be non-negative (got {voltage})")
        self.capacitance = capacitance
        self.max_voltage = max_voltage
        self.leakage_resistance = leakage_resistance
        self._voltage = min(voltage, max_voltage)

    # -- state ----------------------------------------------------------
    @property
    def voltage(self) -> float:
        """Terminal voltage in volts."""
        return self._voltage

    @voltage.setter
    def voltage(self, value: float) -> None:
        self._voltage = min(max(value, 0.0), self.max_voltage)

    @property
    def energy(self) -> float:
        """Stored energy in joules (``1/2 C V^2``)."""
        return units.cap_energy(self.capacitance, self._voltage)

    @property
    def charge(self) -> float:
        """Stored charge in coulombs (``Q = C V``)."""
        return self.capacitance * self._voltage

    def energy_fraction(self, reference_voltage: float) -> float:
        """Stored energy as a fraction of the energy at ``reference_voltage``.

        The paper reports energy costs "as percentage of 47 uF storage
        capacity", meaning relative to the energy held at the maximum
        operating voltage (2.4 V for the WISP).
        """
        reference = units.cap_energy(self.capacitance, reference_voltage)
        return self.energy / reference if reference > 0.0 else 0.0

    # -- energy/charge transfer -----------------------------------------
    def add_energy(self, energy_j: float) -> None:
        """Deposit ``energy_j`` joules (clamped at ``max_voltage``)."""
        if energy_j < 0.0:
            raise ValueError("use drain_energy() to remove energy")
        self.voltage = units.cap_voltage(self.capacitance, self.energy + energy_j)

    def drain_energy(self, energy_j: float) -> float:
        """Remove up to ``energy_j`` joules; returns the amount removed."""
        if energy_j < 0.0:
            raise ValueError("use add_energy() to deposit energy")
        removed = min(energy_j, self.energy)
        self.voltage = units.cap_voltage(self.capacitance, self.energy - removed)
        return removed

    def apply_current(self, current_a: float, dt: float) -> None:
        """Integrate a constant current for ``dt`` seconds.

        Positive current charges, negative discharges.  ``dV = I dt / C``.
        """
        if dt < 0.0:
            raise ValueError(f"dt must be non-negative (got {dt})")
        self.voltage = self._voltage + current_a * dt / self.capacitance

    def closed_form_advance(
        self, dt: float, voc: float, rs: float, net_current: float
    ) -> float:
        """Advance the terminal voltage one closed-form step; returns it.

        Computes the step constants (``tau = rs * C``, the leakage
        decay) and applies :func:`closed_form_step`.  Analytic
        screening predictors sketch whole charge/discharge trajectories
        with this, no simulator required; the device's fast paths run
        the same arithmetic from memoized constants.
        """
        if dt < 0.0:
            raise ValueError(f"dt must be non-negative (got {dt})")
        cap = self.capacitance
        exp_charge = math.exp(-dt / (rs * cap))
        leak_r = self.leakage_resistance
        leak_factor = (
            math.exp(-dt / (leak_r * cap)) if leak_r is not None else None
        )
        self._voltage = closed_form_step(
            self._voltage,
            dt,
            voc,
            voc - net_current * rs,
            exp_charge,
            net_current,
            cap,
            self.max_voltage,
            leak_factor,
        )
        return self._voltage

    def step_leakage(self, dt: float) -> None:
        """Apply self-discharge through ``leakage_resistance`` for ``dt``."""
        if self.leakage_resistance is None or self._voltage <= 0.0:
            return
        tau = self.leakage_resistance * self.capacitance
        self.voltage = self._voltage * math.exp(-dt / tau)

    def __repr__(self) -> str:
        return (
            f"StorageCapacitor({self.capacitance / units.UF:.1f}uF, "
            f"{self._voltage:.3f}V, {self.energy / units.UJ:.2f}uJ)"
        )
