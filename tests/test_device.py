"""Unit tests for TargetDevice: work/energy conversion, reboot, markers."""

import pytest

from repro.mcu.device import ExecutionLimit, PowerFailure, TargetDevice
from repro.mcu.memory import FRAM_BASE, SRAM_BASE
from repro.power import make_wisp_power_system
from repro.sim import units


class TestWorkAccounting:
    def test_cycles_advance_time(self, sim, wisp):
        t0 = sim.now
        wisp.execute_cycles(4000)  # 1 ms at 4 MHz
        assert sim.now - t0 == pytest.approx(1e-3)

    def test_cycles_drain_capacitor(self, wisp):
        v0 = wisp.power.vcap
        # Detach the harvester so draw is unambiguous.
        wisp.power.source.enabled = False
        wisp.execute_cycles(4000)
        assert wisp.power.vcap < v0

    def test_negative_cycles_rejected(self, wisp):
        with pytest.raises(ValueError):
            wisp.execute_cycles(-1)

    def test_power_failure_raised_at_brownout(self, wisp):
        wisp.power.source.enabled = False
        with pytest.raises(PowerFailure) as excinfo:
            for _ in range(10_000_000):
                wisp.execute_cycles(1000)
        assert excinfo.value.vcap == pytest.approx(1.8, abs=0.05)

    def test_execution_when_off_raises_immediately(self, sim):
        power = make_wisp_power_system(sim)  # starts at brown-out, OFF
        device = TargetDevice(sim, power)
        with pytest.raises(PowerFailure):
            device.execute_cycles(1)

    def test_extra_current_drains_faster(self, sim):
        def drain(extra):
            local = Simulator = None  # noqa: F841
            from repro.sim.kernel import Simulator as S

            s = S(seed=1)
            p = make_wisp_power_system(s)
            p.source.enabled = False
            d = TargetDevice(s, p)
            p.capacitor.voltage = 2.4
            p.reset_comparator()
            d.execute_cycles(4000, extra_current=extra)
            return p.vcap

        assert drain(5 * units.MA) < drain(0.0)

    def test_led_pin_adds_load(self, sim):
        from repro.sim.kernel import Simulator as S

        def run(led):
            s = S(seed=1)
            p = make_wisp_power_system(s)
            p.source.enabled = False
            d = TargetDevice(s, p)
            p.capacitor.voltage = 2.4
            p.reset_comparator()
            d.gpio.write("led", led)
            d.execute_cycles(4000)
            return p.vcap

        assert run(True) < run(False)

    def test_spend_time_converts_to_cycles(self, sim, wisp):
        before = wisp.cycles_executed
        wisp.spend_time(1e-3)
        assert wisp.cycles_executed - before == 4000

    def test_sleep_draws_little(self, sim, wisp):
        wisp.power.source.enabled = False
        v0 = wisp.power.vcap
        wisp.sleep(10 * units.MS)
        # Sleep at 2 uA for 10 ms is a few tens of microvolts.
        assert v0 - wisp.power.vcap < 1e-3

    def test_energy_consumed_accumulates(self, wisp):
        wisp.power.source.enabled = False
        wisp.execute_cycles(40_000)
        assert wisp.energy_consumed > 0.0


class TestDeadline:
    def test_stop_after_raises_execution_limit(self, sim, wisp):
        wisp.stop_after = sim.now + 1e-3
        with pytest.raises(ExecutionLimit):
            for _ in range(100_000):
                wisp.execute_cycles(100)

    def test_no_deadline_runs_freely(self, wisp):
        wisp.stop_after = None
        wisp.execute_cycles(100)  # no exception


class TestReboot:
    def test_clears_sram_keeps_fram(self, wisp):
        wisp.memory.write_u16(SRAM_BASE, 0xAAAA)
        wisp.memory.write_u16(FRAM_BASE, 0xBBBB)
        wisp.reboot()
        assert wisp.memory.read_u16(SRAM_BASE) == 0
        assert wisp.memory.read_u16(FRAM_BASE) == 0xBBBB

    def test_resets_gpio(self, wisp):
        wisp.gpio.write("led", True)
        wisp.reboot()
        assert not wisp.gpio.read("led")

    def test_clears_uart_rx_queue(self, wisp):
        wisp.uart.feed_rx(b"pending")
        wisp.reboot()
        assert wisp.uart.rx_pending == 0

    def test_increments_counter_and_traces(self, sim, wisp):
        wisp.reboot()
        wisp.reboot()
        assert wisp.reboot_count == 2
        assert sim.trace.count("target.reboot") == 2

    def test_resets_cpu_to_entry(self, wisp):
        from repro.mcu.assembler import assemble

        program = assemble("start: nop\nhalt")
        wisp.load_program(program)
        wisp.cpu.pc = 0x1234
        wisp.reboot()
        assert wisp.cpu.pc == program.entry


class TestCodeMarkers:
    def test_marker_notifies_hooks(self, wisp):
        seen = []
        wisp.on_code_marker.append(seen.append)
        wisp.code_marker(3)
        assert seen == [3]

    def test_marker_encodes_bits_on_lines(self, wisp):
        states = []
        wisp.marker_lines[0].subscribe(lambda s: states.append(("b0", s)))
        wisp.marker_lines[1].subscribe(lambda s: states.append(("b1", s)))
        wisp.code_marker(0b10)
        # bit1 pulses high then low; bit0 stays low.
        assert ("b1", True) in states
        assert ("b0", True) not in states

    def test_marker_id_range_enforced(self, wisp):
        with pytest.raises(ValueError):
            wisp.code_marker(0)
        with pytest.raises(ValueError):
            wisp.code_marker(wisp.max_marker_id + 1)

    def test_max_marker_id_from_line_count(self, sim):
        power = make_wisp_power_system(sim)
        device = TargetDevice(sim, power, marker_bits=2)
        assert device.max_marker_id == 3

    def test_marker_cost_is_one_cycle(self, wisp):
        before = wisp.cycles_executed
        wisp.code_marker(1)
        assert wisp.cycles_executed - before == 1


class TestHooks:
    def test_watch_fires_after_work(self, wisp):
        calls = []
        watch = wisp.watch(lambda: calls.append(wisp.work_units))
        watch.arm(units=wisp.work_units + 2)
        wisp.execute_cycles(10)
        assert calls == []
        wisp.execute_cycles(10)
        assert calls == [wisp.work_units]
        # A fired watch stays armed until its owner re-arms it.
        watch.disarm()
        wisp.execute_cycles(10)
        assert len(calls) == 1

    def test_hooks_not_reentrant(self, wisp):
        depth = {"n": 0, "max": 0, "calls": 0}

        def callback():
            depth["n"] += 1
            depth["calls"] += 1
            depth["max"] = max(depth["max"], depth["n"])
            wisp.execute_cycles(1)  # would recurse without the guard
            depth["n"] -= 1

        watch = wisp.watch(callback)
        watch.arm(units=0)  # reached by every unit
        units = wisp.work_units
        wisp.execute_cycles(10)
        assert depth == {"n": 0, "max": 1, "calls": 1}
        # The nested unit neither counted nor fired.
        assert wisp.work_units == units + 1


class TestSelfMeasurement:
    def test_measure_own_vcap_costs_energy(self, wisp):
        wisp.power.source.enabled = False
        v_reported = wisp.measure_own_vcap()
        # The reading is close to the true value...
        assert v_reported == pytest.approx(wisp.power.vcap, abs=0.01)
        # ...but taking it consumed cycles (perturbing what it measured).
        assert wisp.cycles_executed >= 160
