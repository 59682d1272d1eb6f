"""The host debug console (§4.2, Table 1).

A command-line interface for interacting directly with EDB and
indirectly with the target.  The command vocabulary follows the paper's
Table 1:

====================================  =============================================
Command                               Effect
====================================  =============================================
``charge <volts>``                    raise the target's stored energy
``discharge <volts>``                 lower the target's stored energy
``break en <id> [volts]``             arm a code (or combined) breakpoint
``break dis <id>``                    disable breakpoints with that id
``break energy <volts>``              arm a pure energy breakpoint
``watch en|dis <id>``                 enable/disable a watchpoint id
``trace <stream>``                    stream energy/iobus/rfid/watchpoints
``read <addr> <len>``                 inspect target memory
``write <addr> <value>``              modify target memory
``run <seconds>``                     run the bound program intermittently
``emulate <cycles> [volts]``          EDB-driven intermittence emulation (§4.2)
``profile <start_id> [end_id]``       watchpoint-based energy/time profile
``interference``                      worst-case leakage summary (Table 2)
``status`` / ``wp`` / ``printf``      state, watchpoint stats, printf log
====================================  =============================================

The console is fully scriptable (``execute(line) -> str``), which is
how the tests drive it; ``repl()`` runs it interactively and ``main()``
is the ``edb-console`` entry point with a self-contained demo target.

The console only parses and renders text over the command code the
JSON-RPC service runs too (``EDB.host_access``, the input rule and the
``DEFAULT_MAX_CYCLES`` watchdog of :mod:`repro.core.debugger`).
"""

from __future__ import annotations

from typing import Callable

from repro.core.board import BreakEvent
from repro.core.debugger import DEFAULT_MAX_CYCLES, EDB
from repro.core.session import InteractiveSession
from repro.sim.kernel import BudgetExceeded


class ConsoleError(Exception):
    """Bad command syntax or arguments."""


def _parse_number(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ConsoleError(f"not a number: {text!r}") from None


def _parse_voltage(text: str, rule=EDB.check_volts) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConsoleError(f"not a voltage: {text!r}") from None
    return rule(value)


class DebugConsole:
    """Scriptable console bound to one :class:`EDB` instance.

    Parameters
    ----------
    edb:
        The debugger to operate.
    executor:
        Optional :class:`~repro.runtime.executor.IntermittentExecutor`
        for the ``run`` command.
    echo:
        Optional sink called with every output line (e.g. ``print``).
    """

    def __init__(
        self,
        edb: EDB,
        executor=None,
        echo: Callable[[str], None] | None = None,
    ) -> None:
        self.edb = edb
        self.executor = executor
        self.echo = echo
        self.history: list[str] = []
        self._install_live_handlers()

    def _install_live_handlers(self) -> None:
        def on_break(event: BreakEvent, session: InteractiveSession) -> None:
            self._out(
                f"*** target stopped: {event.reason} at "
                f"{event.time * 1e3:.2f} ms, Vcap={event.vcap:.3f} V"
            )

        def on_printf(text: str) -> None:
            self._out(f"[printf] {text}")

        if self.edb.board.on_break is None:
            self.edb.on_break(on_break)
        if self.edb.board.on_printf is None:
            self.edb.on_printf(on_printf)

    def _out(self, line: str) -> None:
        self.history.append(line)
        if self.echo is not None:
            self.echo(line)

    # -- command dispatch ----------------------------------------------------
    def execute(self, line: str) -> str:
        """Run one console command; returns its output text.

        Bad syntax, any ValueError a bad argument raises (the input
        rule's included) and an ``emulate`` over its cycle budget print
        as an ``error:`` line.
        """
        before = len(self.history)
        try:
            self._dispatch(line.strip())
        except (ConsoleError, ValueError, BudgetExceeded) as exc:
            self._out(f"error: {exc}")
        return "\n".join(self.history[before:])

    def _dispatch(self, line: str) -> None:
        if not line or line.startswith("#"):
            return
        parts = line.split()
        command, args = parts[0].lower(), parts[1:]
        handler = getattr(self, f"_cmd_{command}", None)
        if handler is None:
            raise ConsoleError(f"unknown command {command!r} (try 'help')")
        handler(args)

    # -- commands ------------------------------------------------------------------
    def _cmd_help(self, args: list[str]) -> None:
        self._out(__doc__.split("====", 1)[0].strip())
        self._out(
            "commands: charge discharge break watch trace read write "
            "run emulate profile interference status wp printf help"
        )

    def _cmd_charge(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ConsoleError("usage: charge <volts>")
        result = self.edb.charge(_parse_voltage(args[0], EDB.check_charge_volts))
        self._out(f"charged to {result:.3f} V")

    def _cmd_discharge(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ConsoleError("usage: discharge <volts>")
        result = self.edb.discharge(_parse_voltage(args[0]))
        self._out(f"discharged to {result:.3f} V")

    def _cmd_break(self, args: list[str]) -> None:
        if len(args) < 2:
            raise ConsoleError(
                "usage: break en <id> [volts] | break dis <id> | "
                "break energy <volts>"
            )
        mode = args[0].lower()
        if mode == "energy":
            bp = self.edb.break_on_energy(_parse_voltage(args[1]))
            self._out(f"armed: {bp.describe()}")
        elif mode == "en":
            bp_id = _parse_number(args[1])
            if len(args) >= 3:
                bp = self.edb.break_combined(bp_id, _parse_voltage(args[2]))
            else:
                affected = self.edb.breakpoints.set_enabled(bp_id, True)
                bp = self.edb.break_at(bp_id) if affected == 0 else None
            self._out(
                f"armed: {bp.describe()}" if bp else f"enabled breakpoints id={bp_id}"
            )
        elif mode == "dis":
            bp_id = _parse_number(args[1])
            count = self.edb.breakpoints.set_enabled(bp_id, False)
            self._out(f"disabled {count} breakpoint(s) with id={bp_id}")
        else:
            raise ConsoleError(f"unknown break mode {mode!r}")

    def _cmd_watch(self, args: list[str]) -> None:
        if len(args) != 2 or args[0].lower() not in ("en", "dis"):
            raise ConsoleError("usage: watch en|dis <id>")
        wp_id = _parse_number(args[1])
        enabled = args[0].lower() == "en"
        self.edb.set_watchpoint_enabled(wp_id, enabled)
        self._out(f"watchpoint {wp_id} {'enabled' if enabled else 'disabled'}")

    def _cmd_trace(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ConsoleError("usage: trace energy|iobus|rfid|watchpoints")
        stream = args[0].lower()
        self.edb.trace(stream)
        self._out(f"tracing {stream}")

    def _cmd_read(self, args: list[str]) -> None:
        if len(args) != 2:
            raise ConsoleError("usage: read <addr> <len>")
        address = EDB.check_word(_parse_number(args[0]))
        count = EDB.check_read_count(_parse_number(args[1]))
        data = self.edb.host_access(lambda s: s.read_bytes(address, count))
        self._out(f"0x{address:04X}: {data.hex(' ')}")

    def _cmd_write(self, args: list[str]) -> None:
        if len(args) != 2:
            raise ConsoleError("usage: write <addr> <value>")
        address = EDB.check_word(_parse_number(args[0]))
        value = EDB.check_word(_parse_number(args[1]))
        self.edb.host_access(lambda s: s.write_u16(address, value))
        self._out(f"0x{address:04X} <- 0x{value:04X}")

    def _cmd_run(self, args: list[str]) -> None:
        if self.executor is None:
            raise ConsoleError("no program bound to the console")
        if len(args) != 1:
            raise ConsoleError("usage: run <seconds>")
        try:
            duration = float(args[0])
        except ValueError:
            raise ConsoleError(f"not a duration: {args[0]!r}") from None
        from repro.campaign.watchdog import RunWatchdog  # core never imports campaign

        with RunWatchdog(self.edb.device, DEFAULT_MAX_CYCLES):
            result = self.executor.run(duration)
        self._out(
            f"run finished: {result.status.value}, boots={result.boots}, "
            f"reboots={result.reboots}, faults={len(result.faults)}"
        )

    def _cmd_emulate(self, args: list[str]) -> None:
        if self.executor is None:
            raise ConsoleError("no program bound to the console")
        if not 1 <= len(args) <= 2:
            raise ConsoleError("usage: emulate <cycles> [turn-on volts]")
        cycles = _parse_number(args[0])
        level = 2.4
        if len(args) == 2:
            level = _parse_voltage(args[1], EDB.check_charge_volts)
        from repro.core.emulation import emulate

        result = emulate(self.edb, self.executor, cycles, level, DEFAULT_MAX_CYCLES)
        self._out(
            f"emulated {len(result.cycles)} cycle(s): final="
            f"{result.outcome}, brownouts={result.count('brownout')}, "
            f"faults={result.count('fault')}"
        )

    def _cmd_profile(self, args: list[str]) -> None:
        if not 1 <= len(args) <= 2:
            raise ConsoleError("usage: profile <start_id> [end_id]")
        start_id = _parse_number(args[0])
        end_id = _parse_number(args[1]) if len(args) == 2 else start_id
        from repro.core.profiler import EnergyProfiler

        constants = self.edb.device.constants
        profiler = EnergyProfiler(
            self.edb.monitor,
            constants.capacitance,
            full_energy=constants.full_energy,
        )
        profiler.define_region("region", start_id, end_id)
        try:
            stats = profiler.stats("region")
        except ValueError:
            self._out(
                f"no complete occurrences between watchpoints "
                f"{start_id} and {end_id}"
            )
            return
        self._out(stats.render(constants.full_energy))
        self._out(profiler.histogram("region", bins=8, width=30))

    def _cmd_interference(self, args: list[str]) -> None:
        trials = 20
        total = self.edb.worst_case_interference(trials=trials)
        active = 0.5e-3
        self._out(
            f"worst-case interference: {total * 1e9:.1f} nA over "
            f"{len(self.edb.board.harness.names())} connections "
            f"({100 * total / active:.3f} % of the 0.5 mA active draw)"
        )

    def _cmd_status(self, args: list[str]) -> None:
        device = self.edb.device
        power = device.power
        self._out(
            f"t={self.edb.sim.now * 1e3:.2f} ms  Vcap={power.vcap:.3f} V  "
            f"Vreg={power.vreg:.3f} V  state={power.state.value}"
            + ("  [tethered]" if power.is_tethered else "")
        )
        self._out(
            f"reboots={device.reboot_count}  cycles={device.cycles_executed}  "
            f"breakpoints={len(self.edb.breakpoints.active())} armed"
        )

    def _cmd_wp(self, args: list[str]) -> None:
        stats = self.edb.monitor.watchpoints
        if not stats:
            self._out("no watchpoint hits recorded")
            return
        for wp_id in sorted(stats):
            record = stats[wp_id]
            avg_v = (
                sum(record.energy_readings) / len(record.energy_readings)
                if record.energy_readings
                else 0.0
            )
            self._out(
                f"watchpoint {wp_id}: {record.hits} hits, "
                f"mean Vcap {avg_v:.3f} V"
            )

    def _cmd_printf(self, args: list[str]) -> None:
        if not self.edb.printf_output:
            self._out("no printf output captured")
            return
        for t, text in self.edb.printf_output[-20:]:
            self._out(f"[{t * 1e3:9.3f} ms] {text}")

    # -- interactive loop -----------------------------------------------------------
    def repl(self, input_fn: Callable[[str], str] = input) -> None:
        """Interactive loop; 'quit' exits."""
        self._out("EDB console — 'help' for commands, 'quit' to exit")
        while True:
            try:
                line = input_fn("edb> ")
            except (EOFError, KeyboardInterrupt):
                break
            if line.strip().lower() in ("quit", "exit"):
                break
            self.execute(line)


def main() -> None:  # pragma: no cover - interactive entry point
    """``edb-console``: a self-contained demo session.

    Builds a simulated WISP running the Fibonacci case-study app with
    EDB attached, and drops into the interactive console.
    """
    from repro.apps.fibonacci import FibonacciApp
    from repro.mcu.device import TargetDevice
    from repro.power import make_wisp_power_system
    from repro.runtime.executor import IntermittentExecutor
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=42)
    power = make_wisp_power_system(sim)
    device = TargetDevice(sim, power)
    edb = EDB(sim, device)
    app = FibonacciApp(debug_build=False)
    executor = IntermittentExecutor(sim, device, app, edb=edb.libedb())
    console = DebugConsole(edb, executor=executor, echo=print)
    console.execute("status")
    console.repl()


if __name__ == "__main__":  # pragma: no cover
    main()
