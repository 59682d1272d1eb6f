"""Unit tests for the host debug console (Table 1's command set)."""

import pytest

from repro import EDB, IntermittentExecutor, Simulator, TargetDevice
from repro import make_wisp_power_system
from repro.core.console import DebugConsole
from repro.mcu.hlapi import DeviceAPI
from repro.mcu.memory import FRAM_BASE


@pytest.fixture
def console_rig(sim):
    power = make_wisp_power_system(sim)
    device = TargetDevice(sim, power)
    edb = EDB(sim, device)
    edb.libedb()  # link the target-side library (memory access needs it)
    power.charge_until_on()
    console = DebugConsole(edb)
    return device, edb, console


class TestEnergyCommands:
    def test_charge(self, console_rig):
        device, _, console = console_rig
        out = console.execute("discharge 2.0")
        assert "discharged" in out
        out = console.execute("charge 2.4")
        assert "charged" in out
        assert device.power.vcap >= 2.39

    def test_charge_validates_voltage(self, console_rig):
        _, _, console = console_rig
        assert "error" in console.execute("charge 9.9")
        assert "error" in console.execute("charge")


class TestBreakCommands:
    def test_break_en_arms_code_breakpoint(self, console_rig):
        _, edb, console = console_rig
        out = console.execute("break en 3")
        assert "armed" in out
        assert edb.breakpoints.check_code_point(3, vcap=2.4) is not None

    def test_break_en_with_energy_arms_combined(self, console_rig):
        _, edb, console = console_rig
        console.execute("break en 3 2.0")
        assert edb.breakpoints.check_code_point(3, vcap=2.4) is None
        assert edb.breakpoints.check_code_point(3, vcap=1.9) is not None

    def test_break_dis(self, console_rig):
        _, edb, console = console_rig
        console.execute("break en 3")
        out = console.execute("break dis 3")
        assert "disabled 1" in out
        assert edb.breakpoints.check_code_point(3, vcap=2.4) is None

    def test_break_energy(self, console_rig):
        _, edb, console = console_rig
        out = console.execute("break energy 2.1")
        assert "armed" in out
        assert edb.breakpoints.check_energy(2.0) is not None

    def test_break_bad_syntax(self, console_rig):
        _, _, console = console_rig
        assert "error" in console.execute("break")
        assert "error" in console.execute("break maybe 3")


class TestWatchTraceCommands:
    def test_watch_dis_and_en(self, console_rig):
        _, edb, console = console_rig
        console.execute("watch dis 2")
        assert 2 in edb.monitor.disabled_watchpoints
        console.execute("watch en 2")
        assert 2 not in edb.monitor.disabled_watchpoints

    def test_trace_enables_stream(self, console_rig):
        _, edb, console = console_rig
        console.execute("trace energy")
        assert "energy" in edb.monitor.enabled

    def test_trace_unknown_stream(self, console_rig):
        _, _, console = console_rig
        assert "error" in console.execute("trace everything")


class TestMemoryCommands:
    def test_write_then_read(self, console_rig):
        device, _, console = console_rig
        address = FRAM_BASE + 0x100
        console.execute(f"write 0x{address:04X} 0xBEEF")
        out = console.execute(f"read 0x{address:04X} 2")
        assert "ef be" in out  # little-endian dump

    def test_read_restores_power_state(self, console_rig):
        device, _, console = console_rig
        v0 = device.power.vcap
        console.execute(f"read 0x{FRAM_BASE:04X} 4")
        assert not device.power.is_tethered
        assert device.power.vcap == pytest.approx(v0, abs=0.15)

    def test_read_bad_args(self, console_rig):
        _, _, console = console_rig
        assert "error" in console.execute("read")
        assert "error" in console.execute("read zz 2")


class TestRunAndStatus:
    def test_run_requires_bound_program(self, console_rig):
        _, _, console = console_rig
        assert "error" in console.execute("run 0.1")

    def test_run_with_executor(self, sim):
        from repro.apps import FibonacciApp

        power = make_wisp_power_system(sim)
        device = TargetDevice(sim, power)
        edb = EDB(sim, device)
        app = FibonacciApp(debug_build=False, capacity=40)
        executor = IntermittentExecutor(sim, device, app, edb=edb.libedb())
        console = DebugConsole(edb, executor=executor)
        out = console.execute("run 2.0")
        assert "run finished" in out

    def test_status_reports_voltages(self, console_rig):
        _, _, console = console_rig
        out = console.execute("status")
        assert "Vcap" in out
        assert "reboots" in out

    def test_wp_empty(self, console_rig):
        _, _, console = console_rig
        assert "no watchpoint hits" in console.execute("wp")

    def test_wp_lists_stats(self, console_rig):
        device, edb, console = console_rig
        DeviceAPI(device, edb=edb.libedb()).edb_watchpoint(1)
        out = console.execute("wp")
        assert "watchpoint 1: 1 hits" in out

    def test_printf_log(self, console_rig):
        device, edb, console = console_rig
        assert "no printf output" in console.execute("printf")
        DeviceAPI(device, edb=edb.libedb()).edb_printf("trace me")
        assert "trace me" in console.execute("printf")


class TestDispatch:
    def test_unknown_command(self, console_rig):
        _, _, console = console_rig
        assert "unknown command" in console.execute("frobnicate")

    def test_blank_and_comment_lines_ignored(self, console_rig):
        _, _, console = console_rig
        assert console.execute("") == ""
        assert console.execute("# comment") == ""

    def test_help_lists_commands(self, console_rig):
        _, _, console = console_rig
        out = console.execute("help")
        assert "charge" in out

    def test_live_break_handler_announces(self, console_rig):
        device, edb, console = console_rig
        api = DeviceAPI(device, edb=edb.libedb())
        edb.break_at(5)
        console.execute("# arm")
        api.edb_breakpoint(5)
        assert any("target stopped" in line for line in console.history)

    def test_repl_quits(self, console_rig):
        _, _, console = console_rig
        lines = iter(["status", "quit"])
        console.repl(input_fn=lambda prompt: next(lines))
        assert any("Vcap" in line for line in console.history)


class TestExtendedCommands:
    def test_interference_summary(self, console_rig):
        _, _, console = console_rig
        out = console.execute("interference")
        assert "worst-case interference" in out
        assert "nA" in out

    def test_profile_without_hits(self, console_rig):
        _, _, console = console_rig
        out = console.execute("profile 1 2")
        assert "no complete occurrences" in out

    def test_profile_with_hits(self, console_rig):
        device, edb, console = console_rig
        api = DeviceAPI(device, edb=edb.libedb())
        device.power.source.enabled = False
        for _ in range(3):
            api.edb_watchpoint(1)
            api.compute(30_000)
            api.edb_watchpoint(2)
        out = console.execute("profile 1 2")
        assert "energy median" in out
        assert "uJ |" in out  # the histogram

    def test_profile_bad_args(self, console_rig):
        _, _, console = console_rig
        assert "error" in console.execute("profile")
        assert "error" in console.execute("profile a b")

    def test_emulate_requires_program(self, console_rig):
        _, _, console = console_rig
        assert "error" in console.execute("emulate 2")

    def test_emulate_runs_cycles(self, sim):
        from repro.apps import FibonacciApp

        power = make_wisp_power_system(sim)
        device = TargetDevice(sim, power)
        edb = EDB(sim, device)
        app = FibonacciApp(debug_build=False, capacity=5000)
        executor = IntermittentExecutor(sim, device, app, edb=edb.libedb())
        console = DebugConsole(edb, executor=executor)
        out = console.execute("emulate 3")
        assert "emulated 3 cycle(s)" in out
        assert "brownouts=3" in out


class TestInputRule:
    """Out-of-range arguments print ``error:`` and never reach the target."""

    def test_charge_zero_is_an_error_line(self, console_rig):
        device, _, console = console_rig
        v0 = device.power.vcap
        assert console.execute("charge 0").startswith("error:")
        assert device.power.vcap == v0

    def test_read_zero_bytes_is_an_error_line(self, console_rig):
        device, _, console = console_rig
        assert console.execute(f"read 0x{FRAM_BASE:04X} 0").startswith("error:")
        assert device.cycles_executed == 0

    @pytest.mark.parametrize(
        "line",
        [
            f"write 0x{FRAM_BASE:04X} 0x12345",
            f"write 0x{FRAM_BASE:04X} -1",
            "write 0x10000 1",
            "read -5 2",
            "read 0x10000 2",
            f"read 0x{FRAM_BASE:04X} 256",
        ],
    )
    def test_memory_arguments_out_of_range(self, console_rig, line):
        device, _, console = console_rig
        before = device.memory.read_bytes(FRAM_BASE, 2)
        assert console.execute(line).startswith("error:")
        assert device.memory.read_bytes(FRAM_BASE, 2) == before
        assert device.cycles_executed == 0
        assert not device.power.is_tethered

    def test_run_is_under_the_cycle_watchdog(self, program_console, monkeypatch):
        """``run`` shares the service's watchdog: a budget trip, no hang."""
        _, console = program_console
        monkeypatch.setattr("repro.core.console.DEFAULT_MAX_CYCLES", 50_000)
        out = console.execute("run 2.0")
        assert "run finished: nonterminating" in out

    def test_emulate_zero_cycles_is_an_error_line(self, program_console):
        executor, console = program_console
        assert console.execute("emulate 0").startswith("error:")
        assert not executor.flashed

    def test_emulate_below_threshold_touches_nothing(self, program_console):
        executor, console = program_console
        device = executor.device
        before = (device.cycles_executed, executor.sim.now, device.power.vcap)
        out = console.execute("emulate 3 1.0")
        assert out.startswith("error:") and "comparator threshold" in out
        after = (device.cycles_executed, executor.sim.now, device.power.vcap)
        assert after == before
        assert not executor.flashed

    def test_emulate_over_budget_is_an_error_line(self, program_console, monkeypatch):
        executor, console = program_console
        monkeypatch.setattr("repro.core.console.DEFAULT_MAX_CYCLES", 50_000)
        out = console.execute("emulate 3")
        assert out.startswith("error: simulated-cycle budget of 50000 cycles")
        assert executor.flashed  # the emulator flashed before the trip


@pytest.fixture
def program_console(sim):
    """A console with a long Fibonacci run bound to it."""
    from repro.apps import FibonacciApp

    power = make_wisp_power_system(sim)
    device = TargetDevice(sim, power)
    edb = EDB(sim, device)
    app = FibonacciApp(debug_build=False, capacity=5000)
    executor = IntermittentExecutor(sim, device, app, edb=edb.libedb())
    return executor, DebugConsole(edb, executor=executor)
