"""Unit tests for the analog interface: leakage models, harness, circuit.

These verify the *electrical* claims behind Tables 2 and 3: every
connection leaks at the nanoamp scale, the harness total stays far
below the target's milliamp-scale draw, and the charge/discharge
control loops converge with small, correctly signed errors.
"""

import pytest

from repro.analog.charge_circuit import ChargeDischargeCircuit
from repro.analog.components import (
    AnalogBufferTracker,
    DigitalBufferInput,
    InstrumentationAmplifier,
    KeeperDiode,
    LevelShifter,
    ProtectionDiodes,
)
from repro.analog.connections import EDBConnectionHarness, LineState
from repro.instruments.sourcemeter import SourceMeter
from repro.mcu.adc import Adc
from repro.power import make_wisp_power_system
from repro.sim import units
from repro.sim.kernel import Simulator
from repro.sim.rng import RngHub


@pytest.fixture
def rng():
    return RngHub(42)


class TestComponents:
    def test_inamp_bias_is_subnanoamp(self, rng):
        amp = InstrumentationAmplifier(rng, "a")
        for _ in range(100):
            assert abs(amp.leakage_current(2.4)) < 1 * units.NA

    def test_inamp_bias_flows_out_of_target(self, rng):
        amp = InstrumentationAmplifier(rng, "a")
        mean = sum(amp.leakage_current(2.4) for _ in range(200)) / 200
        assert mean < 0.0

    def test_keeper_diode_widest_scatter_of_subnano_rows(self, rng):
        diode = KeeperDiode(rng, "d")
        samples = [diode.leakage_current(2.4) for _ in range(200)]
        assert max(samples) - min(samples) > 0.5 * units.NA
        assert all(abs(s) < 5 * units.NA for s in samples)

    def test_buffer_high_leaks_tens_of_nanoamps(self, rng):
        tap = DigitalBufferInput(rng, "b")
        mean = sum(tap.leakage_current(2.4, True) for _ in range(200)) / 200
        assert 40 * units.NA < mean < 90 * units.NA

    def test_buffer_low_leaks_small_negative(self, rng):
        tap = DigitalBufferInput(rng, "b")
        mean = sum(tap.leakage_current(0.0, False) for _ in range(200)) / 200
        assert -3 * units.NA < mean < 0.0

    def test_level_shifter_is_picoamp_scale(self, rng):
        shifter = LevelShifter(rng, "s")
        for state in (True, False):
            samples = [shifter.leakage_current(2.4, state) for _ in range(100)]
            assert all(abs(s) < 0.1 * units.NA for s in samples)

    def test_tracker_follows_vreg(self, rng):
        tracker = AnalogBufferTracker(rng, "t")
        assert tracker.reference_voltage(1.9) == pytest.approx(1.9, abs=0.01)

    def test_protection_diodes_off_within_window(self):
        diodes = ProtectionDiodes()
        assert diodes.injected_current(2.0, 2.0) == 0.0
        assert diodes.injected_current(2.25, 2.0) == 0.0

    def test_protection_diodes_conduct_on_overdrive(self):
        """Section 4.1.2: >0.3 V mismatch activates the diodes."""
        diodes = ProtectionDiodes()
        current = diodes.injected_current(2.5, 2.0)
        assert current > 100 * units.UA

    def test_protection_diodes_conduct_below_ground(self):
        diodes = ProtectionDiodes()
        assert diodes.injected_current(-0.5, 2.0) < 0.0


class TestHarness:
    def test_all_figure5_connections_present(self, rng):
        harness = EDBConnectionHarness(rng)
        names = harness.names()
        for expected in (
            "capacitor_sense_manipulate",
            "regulator_sense_level_reference",
            "debugger_to_target_comm",
            "target_to_debugger_comm",
            "code_marker_0",
            "code_marker_1",
            "uart_rx",
            "uart_tx",
            "rf_rx",
            "rf_tx",
            "i2c_scl",
            "i2c_sda",
        ):
            assert expected in names
        assert len(names) == 12

    def test_worst_case_total_below_two_microamps(self, rng):
        """Table 2's bottom line: ~0.84 uA, ~0.2% of the 0.5 mA draw."""
        harness = EDBConnectionHarness(rng)
        total = harness.worst_case_total(trials=50)
        assert 0.3 * units.UA < total < 2 * units.UA
        assert total / (0.5 * units.MA) < 0.005

    def test_digital_rows_have_high_and_low_states(self, rng):
        harness = EDBConnectionHarness(rng)
        sweep = harness.characterise(trials=10)
        assert LineState.HIGH in sweep["uart_tx"]
        assert LineState.LOW in sweep["uart_tx"]
        assert LineState.ANALOG in sweep["capacitor_sense_manipulate"]

    def test_i2c_rows_far_below_buffer_rows(self, rng):
        harness = EDBConnectionHarness(rng)
        sweep = harness.characterise(trials=30)
        i2c_high = abs(sweep["i2c_scl"][LineState.HIGH]["avg"])
        uart_high = abs(sweep["uart_tx"][LineState.HIGH]["avg"])
        assert i2c_high < uart_high / 100

    def test_measure_unknown_state_rejected(self, rng):
        harness = EDBConnectionHarness(rng)
        conn = harness.connection("uart_tx")
        with pytest.raises(ValueError):
            conn.measure(2.4, LineState.ANALOG)

    def test_live_leakage_negligible_vs_load(self, rng):
        harness = EDBConnectionHarness(rng)
        leakage = harness.live_leakage({"uart_tx": True}, vcap=2.2)
        assert abs(leakage) < 2 * units.UA

    def test_unknown_connection_name(self, rng):
        harness = EDBConnectionHarness(rng)
        with pytest.raises(KeyError):
            harness.connection("jtag")


class TestSourceMeter:
    def test_characterise_full_harness(self, rng):
        meter = SourceMeter(samples_per_reading=20)
        sweep = meter.characterise_harness(EDBConnectionHarness(rng))
        stats = sweep["uart_tx"][LineState.HIGH]
        assert stats.minimum <= stats.average <= stats.maximum

    def test_worst_case_total_matches_harness_scale(self, rng):
        meter = SourceMeter(samples_per_reading=20)
        sweep = meter.characterise_harness(EDBConnectionHarness(rng))
        total = SourceMeter.worst_case_total(sweep)
        assert 0.3 * units.UA < total < 2 * units.UA

    def test_nanoamp_conversion(self, rng):
        meter = SourceMeter(samples_per_reading=5)
        conn = EDBConnectionHarness(rng).connection("uart_tx")
        stats = meter.measure(conn, LineState.HIGH)
        lo, avg, hi = stats.as_nanoamps()
        assert lo <= avg <= hi

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            SourceMeter(samples_per_reading=0)


class TestChargeDischargeCircuit:
    def _circuit(self, voltage=2.0):
        sim = Simulator(seed=77)
        power = make_wisp_power_system(sim, initial_voltage=voltage)
        power.source.enabled = False
        adc = Adc(rng=sim.rng, noise_sigma_v=0.5 * units.MV, stream="edb-adc")
        return sim, power, ChargeDischargeCircuit(sim, power, adc)

    def test_charge_reaches_target(self):
        _, power, circuit = self._circuit(2.0)
        circuit.charge_to(2.4)
        assert power.vcap >= 2.39

    def test_charge_overshoot_from_filter_dump(self):
        """The dominant Table 3 term: ~50 mV of post-charge dump."""
        _, power, circuit = self._circuit(2.0)
        circuit.charge_to(2.4)
        assert 0.0 < power.vcap - 2.4 < 0.15

    def test_discharge_reaches_target_from_above(self):
        _, power, circuit = self._circuit(2.4)
        circuit.discharge_to(2.0)
        assert power.vcap <= 2.001

    def test_discharge_undershoot_is_millivolts(self):
        _, power, circuit = self._circuit(2.4)
        circuit.discharge_to(2.0)
        assert 2.0 - power.vcap < 0.01

    def test_restore_to_lands_above_with_trim_up(self):
        _, power, circuit = self._circuit(2.5)
        circuit.restore_to(2.3)
        assert power.vcap > 2.3
        assert power.vcap - 2.3 < 0.15

    def test_charge_timeout(self):
        sim, power, circuit = self._circuit(2.0)
        circuit.charge_current = 1e-9  # effectively broken circuit
        with pytest.raises(TimeoutError):
            circuit.charge_to(2.4, timeout=0.01)

    def _harvested(self, voltage, seed=77, fading_sigma=0.0):
        """A circuit on a WISP harvesting at 1 m (optionally fading)."""
        sim = Simulator(seed=seed)
        power = make_wisp_power_system(
            sim, initial_voltage=voltage, fading_sigma=fading_sigma
        )
        adc = Adc(rng=sim.rng, noise_sigma_v=0.5 * units.MV, stream="edb-adc")
        return sim, power, ChargeDischargeCircuit(sim, power, adc)

    def test_discharge_below_the_settling_level_fails_at_once(self):
        """Near the reader the fine load cannot out-pull the harvester.

        At 1 m the fine load settles at 1.709 V; a discharge to 1.2 V
        says so at its first tick instead of burning its 1 s timeout,
        names that level, and leaves the capacitor alone.
        """
        sim, power, circuit = self._harvested(2.4)
        t0 = sim.now
        with pytest.raises(TimeoutError, match="cannot get below 1.709 V"):
            circuit.discharge_to(1.2)
        assert sim.now == t0 and power.vcap == 2.4

    def test_discharge_within_noise_of_the_settling_level_runs(self):
        """A target 1 mV under the level is still read as reached.

        Vcap never goes below the level, but ADC noise reads it below
        the target sooner or later; the loop must get that chance.
        """
        _, power, circuit = self._harvested(2.4)
        level, _ = power.settling_level(
            circuit.control_period, 1.0 / circuit.fine_discharge_resistance
        )
        circuit.discharge_to(level - 1 * units.MV)
        assert power.vcap > level - 1 * units.MV

    def test_discharge_waits_for_a_scheduled_field_change(self):
        """A one-shot event due inside the timeout may free the target.

        The reader's field goes dark 10 ms in; the loop must still be
        ticking then, and reaches 1.2 V soon after.
        """
        sim, power, circuit = self._harvested(3.0, seed=5)
        sim.call_after(0.010, lambda: setattr(power.source, "enabled", False))
        circuit.discharge_to(1.2)
        assert power.vcap <= 1.2 and sim.now > 0.010

    def test_fading_discharge_waits_out_a_strong_draw(self):
        """Under fading no level holds to the deadline: the loop waits.

        Without fading the fine load settles above 1.7 V at 1 m; here a
        strong 4 dB draw holds Vcap up for tens of milliseconds before
        weaker ones let the load reach the target, 72 ms in.
        """
        sim, power, circuit = self._harvested(3.1, seed=1, fading_sigma=4.0)
        circuit.discharge_to(1.7)
        assert power.vcap <= 1.7
        assert 0.05 < sim.now < 0.1

    def test_bad_targets_rejected(self):
        _, _, circuit = self._circuit()
        with pytest.raises(ValueError):
            circuit.charge_to(0.0)
        with pytest.raises(ValueError):
            circuit.discharge_to(-1.0)

    def test_operations_counted(self):
        _, _, circuit = self._circuit(2.2)
        circuit.charge_to(2.3)
        circuit.discharge_to(2.1)
        assert circuit.charge_operations == 1
        assert circuit.discharge_operations == 1

    def test_control_loops_advance_time(self):
        sim, _, circuit = self._circuit(2.0)
        t0 = sim.now
        circuit.charge_to(2.4)
        assert sim.now > t0
