"""Ambient energy sources.

Every source is reduced to a Thevenin equivalent — an open-circuit
voltage ``Voc`` behind a source resistance ``Rs`` — feeding the storage
capacitor through an ideal rectifying diode (no reverse flow).  The high
``Rs`` of ambient sources is exactly what produces the paper's
characteristic sawtooth charging (Figure 2B): charge current falls off
as the capacitor voltage approaches ``Voc``.

Sources implemented:

- :class:`RFHarvester` — RF energy from an RFID reader, with 1/d^2 path
  loss and optional multipath fading jitter.  This is the source used
  by the paper's WISP-based evaluation (Impinj reader at 30 dBm, 1 m).
- :class:`SolarHarvester` — a small PV cell, power proportional to
  irradiance.
- :class:`ConstantCurrentSource` — an idealised bench source, useful in
  tests.
- :class:`TraceDrivenSource` — replays a recorded ``(time, Voc, Rs)``
  trace, in the spirit of Ekho [Hester et al., SenSys'14].
- :class:`TetheredSupply` — a stiff continuous supply; what EDB switches
  in when it tethers the target (keep-alive asserts, energy guards).
- :class:`NullSource` — harvests nothing (for pure-discharge tests).
"""

from __future__ import annotations

import bisect
import math
from typing import Protocol, Sequence

from repro.sim import units
from repro.sim.rng import RngHub


class EnergySource(Protocol):
    """Thevenin view of an energy source at a given simulated time.

    Sources may additionally implement the *optional* extension::

        def hold_until(self, t: float) -> float: ...

    returning a time strictly after ``t`` up to (but excluding) which
    ``open_circuit_voltage``/``source_resistance`` are guaranteed to
    return the same values as at ``t`` — and to do so without mutating
    any internal state (no fading redraws, no RNG consumption).  The
    power system's charging fast path batches steps only inside such a
    window; sources without ``hold_until`` are never batched over.
    Returning ``t`` itself means "no guarantee right now"; the result is
    never earlier than ``t``.  A bound found by float arithmetic (a duty
    edge) is the source's to take early enough that rounding never
    carries it past the true change: callers use it as it stands.
    """

    def open_circuit_voltage(self, t: float) -> float:
        """Open-circuit voltage ``Voc`` in volts at time ``t``."""
        ...

    def source_resistance(self, t: float) -> float:
        """Source resistance ``Rs`` in ohms at time ``t``."""
        ...

    def thevenin(self, t: float) -> tuple[float, float]:
        """``(Voc, Rs)`` in one call.

        Must return exactly the same pair the two separate accessors
        would — it exists so the per-cycle supply step pays one source
        evaluation instead of two.  Sources without it are still valid;
        the power system falls back to the separate accessors.
        """
        ...


class NullSource:
    """A source that supplies no energy at all."""

    def open_circuit_voltage(self, t: float) -> float:
        return 0.0

    def source_resistance(self, t: float) -> float:
        return 1.0 * units.MOHM

    def thevenin(self, t: float) -> tuple[float, float]:
        return 0.0, 1.0 * units.MOHM

    def hold_until(self, t: float) -> float:
        """Conditions never change."""
        return math.inf


class ConstantCurrentSource:
    """Idealised source that pushes a fixed current below a compliance voltage.

    Modelled as ``Voc = compliance_v`` with ``Rs`` chosen so the
    short-circuit current equals ``current_a``.
    """

    def __init__(self, current_a: float, compliance_v: float = 3.3) -> None:
        if current_a <= 0.0:
            raise ValueError(f"current must be positive (got {current_a})")
        self.current_a = current_a
        self.compliance_v = compliance_v

    def open_circuit_voltage(self, t: float) -> float:
        return self.compliance_v

    def source_resistance(self, t: float) -> float:
        return self.compliance_v / self.current_a

    def thevenin(self, t: float) -> tuple[float, float]:
        return self.compliance_v, self.compliance_v / self.current_a

    def hold_until(self, t: float) -> float:
        """Conditions never change."""
        return math.inf


class RFHarvester:
    """RF energy harvesting front end (antenna + rectifier + boost).

    Parameters
    ----------
    tx_power_dbm:
        Reader transmit power (the paper uses up to 30 dBm).
    distance_m:
        Antenna-to-tag distance; harvestable power falls off as 1/d^2
        (the paper: "the amount of harvestable energy is inversely
        proportional to this distance").
    efficiency:
        End-to-end RF-to-DC conversion efficiency of the rectifier and
        boost converter (WISP-class front ends achieve a few percent at
        1 m).
    open_voltage:
        Boost-converter output clamp, i.e. the Thevenin ``Voc``.
    reference_gain:
        Lumped antenna-gain / wavelength constant, calibrated so that a
        30 dBm reader at 1 m yields ~2 mW of harvestable power — enough
        that a WISP drawing ~1 mA mostly stays up at 1 m (the paper's
        RFID firmware answers 86 % of queries there) while discharge
        cycles lengthen and charging dominates as distance grows.
    fading_sigma:
        Log-normal shadowing sigma (dB); 0 disables fading jitter.
    rng:
        Hub for the fading stream (required when ``fading_sigma > 0``).
    duty_period / duty_fraction:
        Optional on/off modulation of the RF field: the reader
        illuminates the tag for ``duty_fraction`` of every
        ``duty_period`` seconds and is dark the rest (inventory-round
        pauses, regulatory duty limits).  ``duty_period = 0`` (default)
        means continuous illumination.  The modulation is a pure
        function of simulated time, so perturbing it never costs
        determinism.
    """

    def __init__(
        self,
        tx_power_dbm: float = 30.0,
        distance_m: float = 1.0,
        efficiency: float = 0.03,
        open_voltage: float = 3.3,
        reference_gain: float = 0.065,
        fading_sigma: float = 0.0,
        rng: RngHub | None = None,
        duty_period: float = 0.0,
        duty_fraction: float = 1.0,
    ) -> None:
        if distance_m <= 0.0:
            raise ValueError(f"distance must be positive (got {distance_m})")
        if not 0.0 < efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1] (got {efficiency})")
        if duty_period < 0.0:
            raise ValueError(f"duty period must be >= 0 (got {duty_period})")
        if not 0.0 < duty_fraction <= 1.0:
            raise ValueError(
                f"duty fraction must be in (0, 1] (got {duty_fraction})"
            )
        self.tx_power_dbm = tx_power_dbm
        self.distance_m = distance_m
        self.efficiency = efficiency
        self.open_voltage = open_voltage
        self.reference_gain = reference_gain
        self.fading_sigma = fading_sigma
        self.duty_period = duty_period
        self.duty_fraction = duty_fraction
        self._rng = rng
        self._fade_db = 0.0
        self._fade_until = -1.0
        self.enabled = True
        # Base (pre-fading) power cache, keyed on the parameters it is
        # computed from — campaigns retune distance between runs, so the
        # key is checked on every call rather than assumed immutable.
        self._base_power_key: tuple | None = None
        self._base_power = 0.0

    def field_on(self, t: float) -> bool:
        """Whether the reader's RF field illuminates the tag at ``t``."""
        if self.duty_period <= 0.0 or self.duty_fraction >= 1.0:
            return True
        phase = (t % self.duty_period) / self.duty_period
        return phase < self.duty_fraction

    def harvested_power(self, t: float) -> float:
        """DC power available to the storage element, in watts."""
        if not self.enabled or not self.field_on(t):
            return 0.0
        key = (
            self.tx_power_dbm,
            self.reference_gain,
            self.distance_m,
            self.efficiency,
        )
        if key != self._base_power_key:
            # Same expressions (and therefore the same rounding) as the
            # historical per-call computation.
            tx_watts = units.dbm_to_watts(self.tx_power_dbm)
            received = tx_watts * self.reference_gain / (self.distance_m**2)
            self._base_power = received * self.efficiency
            self._base_power_key = key
        power = self._base_power
        if self.fading_sigma > 0.0 and self._rng is not None:
            power *= 10.0 ** (self._fade_db_at(t) / 10.0)
        return power

    def _fade_db_at(self, t: float) -> float:
        # Hold each fading draw for a coherence interval of 10 ms.
        if t >= self._fade_until:
            self._fade_db = self._rng.gauss("rf-fading", 0.0, self.fading_sigma)
            self._fade_until = t + 10 * units.MS
        return self._fade_db

    def open_circuit_voltage(self, t: float) -> float:
        return self.open_voltage if self.harvested_power(t) > 0.0 else 0.0

    def source_resistance(self, t: float) -> float:
        power = self.harvested_power(t)
        if power <= 0.0:
            return 1.0 * units.MOHM
        # Maximum power transfer: P_available = Voc^2 / (4 Rs).
        return self.open_voltage**2 / (4.0 * power)

    def thevenin(self, t: float) -> tuple[float, float]:
        # One harvested_power() evaluation instead of two; the branch
        # structure and expressions mirror the separate accessors
        # exactly, so the returned pair is bit-identical.
        power = self.harvested_power(t)
        if power <= 0.0:
            return 0.0, 1.0 * units.MOHM
        return self.open_voltage, self.open_voltage**2 / (4.0 * power)

    def hold_until(self, t: float) -> float:
        """Conditions hold until the next duty edge or fading redraw.

        Strictly conservative: the returned time never exceeds the next
        instant at which ``harvested_power`` could change value or draw
        from the RNG, and is never earlier than ``t``.  The duty edge is
        found by the same test as ``field_on`` and taken a few ulps
        early, so that rounding in the edge arithmetic never carries the
        hold past the true edge.  While the field is off,
        ``harvested_power`` reads 0 without drawing whatever the fading
        state, so the hold runs to the start of the next period; a
        lapsed fading draw then redraws at the first lit instant,
        exactly where the stepped integration places it.  While the
        field is lit and the fading coherence interval has lapsed (the
        next call would redraw), returns ``t`` itself so the caller
        takes the slow path and the redraw lands where the stepped
        integration would have placed it.
        """
        hold = math.inf
        if self.duty_period > 0.0 and self.duty_fraction < 1.0:
            period = self.duty_period
            offset = t % period
            base = t - offset
            lit = offset / period < self.duty_fraction  # as field_on()
            edge = base + period * self.duty_fraction if lit else base + period
            hold = edge - 4.0 * math.ulp(edge)
            if not lit:
                return hold if hold > t else t
        if self.fading_sigma > 0.0 and self._rng is not None:
            fade_hold = self._fade_until if self._fade_until > t else t
            if fade_hold < hold:
                hold = fade_hold
        return hold if hold > t else t


class SolarHarvester:
    """A small photovoltaic cell under indoor/outdoor irradiance.

    ``power = area * irradiance * efficiency``; the Thevenin mapping is
    the same maximum-power-transfer construction as the RF harvester.
    """

    def __init__(
        self,
        irradiance_w_m2: float = 300.0,
        area_m2: float = 2e-4,
        efficiency: float = 0.15,
        open_voltage: float = 3.0,
    ) -> None:
        if irradiance_w_m2 < 0.0:
            raise ValueError("irradiance must be non-negative")
        self.irradiance_w_m2 = irradiance_w_m2
        self.area_m2 = area_m2
        self.efficiency = efficiency
        self.open_voltage = open_voltage

    def harvested_power(self, t: float) -> float:
        """DC power available from the cell, in watts."""
        return self.irradiance_w_m2 * self.area_m2 * self.efficiency

    def open_circuit_voltage(self, t: float) -> float:
        return self.open_voltage if self.harvested_power(t) > 0.0 else 0.0

    def source_resistance(self, t: float) -> float:
        power = self.harvested_power(t)
        if power <= 0.0:
            return 1.0 * units.MOHM
        return self.open_voltage**2 / (4.0 * power)

    def thevenin(self, t: float) -> tuple[float, float]:
        power = self.harvested_power(t)
        if power <= 0.0:
            return 0.0, 1.0 * units.MOHM
        return self.open_voltage, self.open_voltage**2 / (4.0 * power)

    def hold_until(self, t: float) -> float:
        """Irradiance is a parameter, not a function of time."""
        return math.inf


class TraceDrivenSource:
    """Replays a recorded harvesting-condition trace (Ekho-style).

    Parameters
    ----------
    times:
        Strictly increasing sample times (seconds).
    voc:
        Open-circuit voltage at each sample.
    rs:
        Source resistance at each sample (ohms).

    Between samples the most recent sample holds (zero-order hold);
    before the first sample the first sample holds.
    """

    def __init__(
        self, times: Sequence[float], voc: Sequence[float], rs: Sequence[float]
    ) -> None:
        if not times:
            raise ValueError("trace must contain at least one sample")
        if len(times) != len(voc) or len(times) != len(rs):
            raise ValueError("times, voc, rs must have equal length")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("trace times must be strictly increasing")
        self.times = list(times)
        self.voc = list(voc)
        self.rs = list(rs)

    def _index(self, t: float) -> int:
        return max(0, bisect.bisect_right(self.times, t) - 1)

    def open_circuit_voltage(self, t: float) -> float:
        return self.voc[self._index(t)]

    def source_resistance(self, t: float) -> float:
        return self.rs[self._index(t)]

    def thevenin(self, t: float) -> tuple[float, float]:
        index = self._index(t)
        return self.voc[index], self.rs[index]

    def hold_until(self, t: float) -> float:
        """The zero-order hold holds until the next trace sample."""
        index = bisect.bisect_right(self.times, t)
        return self.times[index] if index < len(self.times) else math.inf


class TetheredSupply:
    """A stiff, continuous power supply (EDB's tether).

    Low source resistance means the capacitor charges to ``voltage``
    almost immediately and the load can draw arbitrarily much — this is
    what gives active-mode debugging its "arbitrary energy" property.
    """

    def __init__(self, voltage: float = 3.0, resistance: float = 10.0) -> None:
        self.voltage = voltage
        self.resistance = resistance

    def open_circuit_voltage(self, t: float) -> float:
        return self.voltage

    def source_resistance(self, t: float) -> float:
        return self.resistance

    def thevenin(self, t: float) -> tuple[float, float]:
        return self.voltage, self.resistance

    def hold_until(self, t: float) -> float:
        """A bench supply is stiff and constant."""
        return math.inf


def charge_step(
    v0: float,
    voc: float,
    rs: float,
    capacitance: float,
    load_current: float,
    dt: float,
) -> float:
    """Advance a source-fed, load-drained capacitor by ``dt`` seconds.

    Solves the linear ODE ``C dV/dt = (Voc - V)/Rs - I_load`` exactly
    over the step when the source conducts, and falls back to pure
    linear discharge when the rectifier blocks (``Voc <= V``).

    Returns the new capacitor voltage (not clamped; the caller clamps).
    """
    if dt <= 0.0:
        return v0
    if voc > v0:
        tau = rs * capacitance
        v_inf = voc - load_current * rs
        return v_inf + (v0 - v_inf) * math.exp(-dt / tau)
    # Rectifier blocks: the load linearly discharges the capacitor.
    return v0 - load_current * dt / capacitance
