"""Unit + property tests for the power subsystem.

Covers the capacitor, the harvester Thevenin models and the exact RC
charge step, the regulator's dropout tracking, and the hysteresis
comparator that makes operation intermittent (the Figure 2B sawtooth).
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.power.capacitor import StorageCapacitor
from repro.power.harvester import (
    ConstantCurrentSource,
    NullSource,
    RFHarvester,
    SolarHarvester,
    TetheredSupply,
    TraceDrivenSource,
    charge_step,
)
from repro.power.regulator import LinearRegulator
from repro.power.supply import ChargingTimeout, PowerState, PowerSystem
from repro.power.wisp import WispPowerConstants, make_wisp_power_system
from repro.sim import units
from repro.sim.kernel import Simulator


class TestCapacitor:
    def test_energy_formula(self):
        cap = StorageCapacitor(47 * units.UF, voltage=2.4)
        assert cap.energy == pytest.approx(0.5 * 47e-6 * 2.4**2)

    def test_charge_formula(self):
        cap = StorageCapacitor(47 * units.UF, voltage=2.0)
        assert cap.charge == pytest.approx(47e-6 * 2.0)

    def test_voltage_clamped_at_max(self):
        cap = StorageCapacitor(1 * units.UF, voltage=1.0, max_voltage=3.0)
        cap.voltage = 10.0
        assert cap.voltage == 3.0

    def test_voltage_never_negative(self):
        cap = StorageCapacitor(1 * units.UF, voltage=0.5)
        cap.apply_current(-1.0, 1.0)  # absurd discharge
        assert cap.voltage == 0.0

    def test_add_energy_raises_voltage(self):
        cap = StorageCapacitor(47 * units.UF, voltage=1.8)
        before = cap.voltage
        cap.add_energy(10 * units.UJ)
        assert cap.voltage > before

    def test_drain_energy_returns_amount_removed(self):
        cap = StorageCapacitor(47 * units.UF, voltage=2.0)
        removed = cap.drain_energy(1 * units.UJ)
        assert removed == pytest.approx(1e-6)

    def test_drain_more_than_stored_caps_at_stored(self):
        cap = StorageCapacitor(1 * units.UF, voltage=1.0)
        stored = cap.energy
        removed = cap.drain_energy(1.0)
        assert removed == pytest.approx(stored)
        assert cap.voltage == 0.0

    def test_apply_current_integrates(self):
        cap = StorageCapacitor(47 * units.UF, voltage=2.0)
        cap.apply_current(1 * units.MA, 47 * units.MS)  # dV = I t / C = 1 V
        assert cap.voltage == pytest.approx(3.0)

    def test_leakage_decays_exponentially(self):
        cap = StorageCapacitor(
            1 * units.UF, voltage=2.0, leakage_resistance=1 * units.MOHM
        )
        cap.step_leakage(1.0)  # tau = 1 s
        assert cap.voltage == pytest.approx(2.0 * math.exp(-1), rel=1e-6)

    def test_energy_fraction_of_reference(self):
        cap = StorageCapacitor(47 * units.UF, voltage=1.2)
        assert cap.energy_fraction(2.4) == pytest.approx(0.25)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            StorageCapacitor(0.0)
        with pytest.raises(ValueError):
            StorageCapacitor(1e-6, voltage=-1.0)

    @given(
        c=st.floats(1e-9, 1e-3),
        v=st.floats(0.0, 5.0),
    )
    def test_energy_voltage_roundtrip(self, c, v):
        energy = units.cap_energy(c, v)
        assert units.cap_voltage(c, energy) == pytest.approx(v, abs=1e-9)

    @given(
        v0=st.floats(0.1, 3.0),
        de=st.floats(0.0, 1e-4),
    )
    def test_add_then_drain_restores_voltage(self, v0, de):
        cap = StorageCapacitor(47 * units.UF, voltage=v0, max_voltage=100.0)
        cap.add_energy(de)
        cap.drain_energy(de)
        assert cap.voltage == pytest.approx(v0, rel=1e-9)


class TestChargeStep:
    def test_no_time_no_change(self):
        assert charge_step(2.0, 3.3, 1e3, 47e-6, 1e-3, 0.0) == 2.0

    def test_converges_to_voc_with_no_load(self):
        v = charge_step(1.0, 3.3, 1e3, 47e-6, 0.0, 10.0)  # >> tau
        assert v == pytest.approx(3.3, abs=1e-6)

    def test_converges_to_loaded_equilibrium(self):
        # V_inf = Voc - I*Rs
        v = charge_step(2.0, 3.3, 1e3, 47e-6, 1e-3, 10.0)
        assert v == pytest.approx(3.3 - 1.0, abs=1e-6)

    def test_blocked_rectifier_discharges_linearly(self):
        v = charge_step(2.0, 0.0, 1e3, 47e-6, 1e-3, 47e-3)
        assert v == pytest.approx(1.0)

    @given(
        v0=st.floats(0.0, 3.3),
        dt=st.floats(1e-6, 1.0),
    )
    @settings(max_examples=50)
    def test_charging_never_overshoots_voc(self, v0, dt):
        v = charge_step(v0, 3.3, 1e3, 47e-6, 0.0, dt)
        assert v <= 3.3 + 1e-9
        assert v >= v0 - 1e-9  # no load: monotone toward Voc

    @given(
        v0=st.floats(0.5, 3.0),
        dt1=st.floats(1e-6, 0.1),
        dt2=st.floats(1e-6, 0.1),
    )
    @settings(max_examples=50)
    def test_step_composition(self, v0, dt1, dt2):
        """Two consecutive steps equal one combined step (exact ODE)."""
        a = charge_step(v0, 3.3, 1e3, 47e-6, 0.5e-3, dt1)
        b = charge_step(a, 3.3, 1e3, 47e-6, 0.5e-3, dt2)
        combined = charge_step(v0, 3.3, 1e3, 47e-6, 0.5e-3, dt1 + dt2)
        assert b == pytest.approx(combined, rel=1e-9)


class TestHarvesters:
    def test_null_source_gives_nothing(self):
        src = NullSource()
        assert src.open_circuit_voltage(0.0) == 0.0

    def test_constant_current_thevenin(self):
        src = ConstantCurrentSource(1 * units.MA, compliance_v=3.0)
        # Short-circuit current = Voc / Rs = desired current.
        assert src.open_circuit_voltage(0) / src.source_resistance(0) == (
            pytest.approx(1e-3)
        )

    def test_rf_power_scales_inverse_square(self):
        near = RFHarvester(distance_m=1.0)
        far = RFHarvester(distance_m=2.0)
        assert near.harvested_power(0) == pytest.approx(4 * far.harvested_power(0))

    def test_rf_disabled_harvests_nothing(self):
        h = RFHarvester()
        h.enabled = False
        assert h.harvested_power(0) == 0.0
        assert h.open_circuit_voltage(0) == 0.0

    def test_rf_max_power_transfer_relation(self):
        h = RFHarvester()
        power = h.harvested_power(0)
        rs = h.source_resistance(0)
        assert h.open_voltage**2 / (4 * rs) == pytest.approx(power)

    @given(
        period=st.one_of(st.just(0.0), st.floats(1e-4, 0.1)),
        fraction=st.one_of(st.just(1.0), st.floats(0.01, 0.99)),
        sigma=st.one_of(st.just(0.0), st.floats(0.1, 6.0)),
        t=st.floats(0.0, 5.0),
        drawn_before=st.one_of(st.none(), st.floats(0.0, 0.03)),
    )
    # Duty edges whose float arithmetic rounds one ulp past the true
    # edge: the float below the unshrunk end of this dark phase is lit
    # again, and the one below the unshrunk end of this lit phase dark.
    @example(
        period=0.027431667480627364, fraction=0.3, sigma=1.5,
        t=0.5871835884641824, drawn_before=0.02,
    )
    @example(
        period=0.02, fraction=0.385451065393404, sigma=1.5,
        t=0.00438360118569292, drawn_before=0.001,
    )
    @settings(max_examples=300, deadline=None)
    def test_rf_hold_until_holds_power_without_drawing(
        self, period, fraction, sigma, t, drawn_before
    ):
        """``harvested_power`` is constant and draw-free on ``[t, hold)``.

        ``drawn_before`` places the last fading draw that long before
        ``t`` (``None``: nothing drawn yet), so the draw at ``t`` may be
        fresh or lapsed, in a lit or a dark phase.  While the field is
        dark, the hold also reaches the start of the next period.
        """
        sim = Simulator(seed=3)
        h = RFHarvester(
            distance_m=1.3, fading_sigma=sigma, rng=sim.rng,
            duty_period=period, duty_fraction=fraction,
        )
        if drawn_before is not None and t - drawn_before >= 0.0:
            h.harvested_power(t - drawn_before)
        hold = h.hold_until(t)
        assert hold >= t
        if period > 0.0 and fraction < 1.0 and not h.field_on(t):
            end = t - t % period + period
            assert hold >= end - 8.0 * math.ulp(end)
        if not hold > t:
            return

        def state():
            streams = {k: s.getstate() for k, s in sim.rng._streams.items()}
            return streams, h._fade_db, h._fade_until

        before = state()
        power = h.harvested_power(t)
        top = hold if hold < math.inf else t + 10.0
        probes = [t + (top - t) * f for f in (0.25, 0.5, 0.999)]
        probes.append(math.nextafter(top, -math.inf))
        for x in probes:
            if t <= x < hold:
                assert h.harvested_power(x) == power
        assert state() == before

    def test_solar_scales_with_irradiance(self):
        dim = SolarHarvester(irradiance_w_m2=100)
        bright = SolarHarvester(irradiance_w_m2=300)
        assert bright.harvested_power(0) == pytest.approx(3 * dim.harvested_power(0))

    def test_trace_driven_zero_order_hold(self):
        src = TraceDrivenSource([0.0, 1.0], [3.0, 0.0], [1e3, 1e3])
        assert src.open_circuit_voltage(0.5) == 3.0
        assert src.open_circuit_voltage(1.5) == 0.0

    def test_trace_before_first_sample_holds_first(self):
        src = TraceDrivenSource([1.0], [2.5], [1e3])
        assert src.open_circuit_voltage(0.0) == 2.5

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            TraceDrivenSource([], [], [])
        with pytest.raises(ValueError):
            TraceDrivenSource([0.0, 0.0], [1, 1], [1, 1])
        with pytest.raises(ValueError):
            TraceDrivenSource([0.0], [1], [1, 2])

    def test_tethered_supply_is_stiff(self):
        supply = TetheredSupply(voltage=3.0)
        assert supply.source_resistance(0) <= 10.0


class TestRegulator:
    def test_in_regulation(self):
        reg = LinearRegulator(nominal_output=2.0, dropout=0.1)
        assert reg.output_voltage(2.4) == pytest.approx(2.0)

    def test_dropout_tracking(self):
        """Section 4.1.2: Vreg follows Vcap down during a power failure."""
        reg = LinearRegulator(nominal_output=2.0, dropout=0.1)
        assert reg.output_voltage(1.9) == pytest.approx(1.8)
        assert reg.in_dropout(1.9)

    def test_dead_input(self):
        reg = LinearRegulator()
        assert reg.output_voltage(0.05) == 0.0

    def test_input_current_adds_quiescent(self):
        reg = LinearRegulator(quiescent_current=1e-6)
        assert reg.input_current(2.4, 1e-3) == pytest.approx(1.001e-3)

    def test_no_input_no_current(self):
        assert LinearRegulator().input_current(0.0, 1e-3) == 0.0


class TestPowerSystem:
    def _system(self, sim, voltage=1.8):
        return make_wisp_power_system(sim, initial_voltage=voltage)

    def test_starts_off_below_turn_on(self, sim):
        power = self._system(sim)
        assert power.state is PowerState.OFF

    def test_turn_on_at_threshold(self, sim):
        power = self._system(sim, voltage=2.4)
        assert power.state is PowerState.ON

    def test_hysteresis_stays_on_between_thresholds(self, sim):
        power = self._system(sim, voltage=2.4)
        power.capacitor.voltage = 2.0
        power.step(0.0)
        assert power.is_on  # above brown-out, still on

    def test_brownout_turns_off(self, sim):
        power = self._system(sim, voltage=2.4)
        power.capacitor.voltage = 1.7
        power.step(0.0)
        assert not power.is_on
        assert power.reboots == 1

    def test_no_turn_on_between_thresholds_from_off(self, sim):
        power = self._system(sim, voltage=2.0)
        assert not power.is_on  # 2.0 < 2.4 turn-on

    def test_charge_until_on_reaches_threshold(self, sim):
        power = self._system(sim)
        elapsed = power.charge_until_on()
        assert power.is_on
        assert power.vcap >= 2.4 - 1e-6
        assert elapsed > 0.0

    def test_charge_until_on_advances_sim_clock(self, sim):
        power = self._system(sim)
        power.charge_until_on()
        assert sim.now > 0.0

    def test_charging_timeout_without_source(self, sim):
        from repro.power.capacitor import StorageCapacitor
        from repro.power.harvester import NullSource

        power = PowerSystem(
            sim, NullSource(), StorageCapacitor(47 * units.UF, voltage=1.8)
        )
        with pytest.raises(ChargingTimeout):
            power.charge_until_on(timeout=0.05)

    def test_discharge_under_load(self, sim):
        power = self._system(sim, voltage=2.4)
        v0 = power.vcap
        power.step(10 * units.MS, load_current=2 * units.MA)
        assert power.vcap < v0

    def test_injected_current_charges(self, sim):
        """A debugger leaking current *into* the target charges it."""
        power = self._system(sim, voltage=2.0)
        power.source.enabled = False
        power.inject_current(10 * units.UA)
        power.step(1.0, load_current=0.0)
        assert power.vcap > 2.0

    def test_tether_overrides_harvester(self, sim):
        power = self._system(sim, voltage=2.0)
        power.tether(TetheredSupply(voltage=3.0))
        power.step(1.0, load_current=0.0)
        assert power.vcap == pytest.approx(3.0, abs=0.01)

    def test_tethered_counts_as_on(self, sim):
        power = self._system(sim, voltage=1.0)
        assert not power.is_on
        power.tether(TetheredSupply(voltage=2.5))
        assert power.is_on

    def test_tethered_cannot_brownout(self, sim):
        power = self._system(sim, voltage=2.4)
        power.tether(TetheredSupply(voltage=2.5))
        power.capacitor.voltage = 1.0  # momentary dip while tether ramps
        assert power.step(1 * units.MS, load_current=1 * units.MA)
        assert power.reboots == 0

    def test_vreg_tracks_in_dropout(self, sim):
        power = self._system(sim, voltage=1.9)
        assert power.vreg == pytest.approx(1.8)

    def test_headroom_energy_zero_at_brownout(self, sim):
        power = self._system(sim, voltage=1.8)
        assert power.headroom_energy() == pytest.approx(0.0, abs=1e-12)

    def test_reset_comparator_cold_start_rules(self, sim):
        power = self._system(sim, voltage=2.4)
        power.capacitor.voltage = 2.0
        power.reset_comparator()
        assert not power.is_on  # cold start needs full turn-on voltage

    def test_turn_on_threshold_must_exceed_brownout(self, sim):
        from repro.power.capacitor import StorageCapacitor
        from repro.power.harvester import NullSource

        with pytest.raises(ValueError):
            PowerSystem(
                sim,
                NullSource(),
                StorageCapacitor(1e-6),
                turn_on_voltage=1.8,
                brownout_voltage=2.4,
            )

    def test_power_change_hooks_fire(self, sim):
        power = self._system(sim, voltage=2.4)
        states = []
        power.on_power_change.append(states.append)
        power.capacitor.voltage = 1.7
        power.step(0.0)
        assert states == [PowerState.OFF]

    @pytest.mark.parametrize("distance", [0.8, 1.0, 1.6])
    def test_settling_level_is_where_drain_ticks_settle(self, sim, distance):
        """The closed form agrees with 4 s of stepped drain ticks."""
        power = make_wisp_power_system(sim, distance_m=distance,
                                       initial_voltage=2.4)
        power.capacitor.leakage_resistance = 2e5
        power.inject_current(2e-5)
        dt, conductance = 100 * units.US, 1.0 / 1500.0
        level, bound = power.settling_level(dt, conductance)
        assert bound == math.inf
        for _ in range(40_000):
            power.capacitor.apply_current(-(power.vcap * conductance), dt)
            sim.advance(dt)
            power.step(dt, 0.0)
        assert power.vcap == pytest.approx(level, abs=1e-9)

    def test_settling_level_needs_a_charging_held_source(self, sim):
        power = make_wisp_power_system(sim, initial_voltage=2.4)
        dt = 100 * units.US
        power.source.enabled = False
        assert power.settling_level(dt, 1.0 / 1500.0) is None
        power.source.enabled = True
        power.inject_current(3e-3)  # settles past Voc: the rectifier blocks
        assert power.settling_level(dt, 1.0 / 1500.0) is None
        fading = make_wisp_power_system(sim, initial_voltage=2.4,
                                        fading_sigma=3.0)
        fading.source.harvested_power(sim.now)
        level, bound = fading.settling_level(dt, 1.0 / 1500.0)
        assert bound == sim.now + 10 * units.MS


class TestSawtooth:
    """The Figure 2B shape: charge to turn-on, discharge to brown-out."""

    def test_repeated_cycles(self, sim):
        power = make_wisp_power_system(sim, distance_m=1.6)
        cycles = 0
        for _ in range(3):
            power.charge_until_on()
            cycles += 1
            while power.is_on:
                sim.advance(1 * units.MS)
                power.step(1 * units.MS, load_current=1 * units.MA)
        assert power.turn_ons >= 3
        assert power.reboots >= 3

    def test_voltage_bounded_by_thresholds_during_cycling(self, sim):
        power = make_wisp_power_system(sim, distance_m=1.6)
        minimum, maximum = 10.0, 0.0
        for _ in range(2):
            power.charge_until_on()
            while power.is_on:
                sim.advance(0.5 * units.MS)
                power.step(0.5 * units.MS, load_current=1 * units.MA)
                minimum = min(minimum, power.vcap)
                maximum = max(maximum, power.vcap)
        assert minimum >= 1.75  # just below brown-out at the failing step
        assert maximum <= 2.45  # just above turn-on at the crossing step


class TestWispConstants:
    def test_full_energy_is_about_135_uj(self):
        c = WispPowerConstants()
        assert c.full_energy == pytest.approx(135.4e-6, rel=0.01)

    def test_cycle_time_at_4mhz(self):
        assert WispPowerConstants().cycle_time == pytest.approx(0.25e-6)

    def test_factory_defaults_to_brownout_start(self, sim):
        power = make_wisp_power_system(sim)
        assert power.vcap == pytest.approx(1.8)
