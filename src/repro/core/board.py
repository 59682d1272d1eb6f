"""The EDB board: the hardware half of the debugger.

:class:`EDBBoard` owns the debugger-side hardware models — the 12-bit
ADC behind the Vcap/Vreg senses, the Figure 5 connection harness, the
charge/discharge circuit — and wires them to one attached target:

- it taps the target's code-marker lines, application UART, I2C bus,
  and debug link (all externally, i.e. through the leakage-modelled
  connection harness);
- it samples the target's energy level on its own schedule and injects
  the harness's aggregate leakage into the target's power system — the
  passive-mode interference that Table 2 shows is negligible;
- it services libEDB requests: keep-alive asserts, energy guards,
  printf frames, breakpoint triggers, and host memory reads/writes.

The developer-facing wrapper around this class is
:class:`repro.core.debugger.EDB`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.analog.charge_circuit import ChargeDischargeCircuit
from repro.analog.connections import EDBConnectionHarness
from repro.core.active import EnergyStateManager, SaveRestoreRecord
from repro.core.breakpoints import Breakpoint, BreakpointManager
from repro.core.monitor import PassiveMonitor
from repro.core.protocol import Decoder, Message, MsgType
from repro.mcu.adc import Adc
from repro.mcu.device import TargetDevice
from repro.runtime.executor import AssertionHaltSignal
from repro.sim import units
from repro.sim.kernel import Event, Simulator


@dataclass(frozen=True)
class BreakEvent:
    """Why the target stopped and entered an interactive session."""

    reason: str  # "breakpoint", "energy_breakpoint", "assert", "console"
    time: float
    vcap: float
    breakpoint: Breakpoint | None = None
    message: str = ""


class EDBBoard:
    """The debugger board, attachable to one target device.

    Parameters
    ----------
    sim:
        Simulation kernel.
    sample_rate:
        Passive energy-monitoring sample rate (Hz).
    leakage_update_rate:
        How often the aggregate harness leakage operating point is
        re-evaluated and injected into the target's supply (Hz).
    """

    def __init__(
        self,
        sim: Simulator,
        sample_rate: float = 4 * units.KHZ,
        leakage_update_rate: float = 200.0,
    ) -> None:
        self.sim = sim
        self.sample_rate = sample_rate
        self.leakage_update_rate = leakage_update_rate
        self.adc = Adc(
            reference_voltage=3.3,
            bits=12,
            noise_sigma_v=0.5 * units.MV,
            rng=sim.rng,
            stream="edb-adc",
        )
        self.harness = EDBConnectionHarness(sim.rng)
        self.device: TargetDevice | None = None
        self.circuit: ChargeDischargeCircuit | None = None
        self.energy: EnergyStateManager | None = None
        self.monitor: PassiveMonitor | None = None
        self.breakpoints = BreakpointManager()
        self.decoder = Decoder()
        self.printf_log: list[tuple[float, str]] = []
        self.break_events: list[BreakEvent] = []
        self.rfid_log: list[tuple[float, Any]] = []
        # Host-provided handlers: called with (event, session) when the
        # target stops.  ``None`` means record-and-resume.
        self.on_break: Callable[[BreakEvent, Any], None] | None = None
        self.on_assert: Callable[[BreakEvent, Any], None] | None = None
        self.on_printf: Callable[[str], None] | None = None
        self.libedb: Any = None  # set by LibEDB when it links in
        self._leakage_event: Event | None = None
        self._pending_energy_bp: Breakpoint | None = None
        self._last_mem_data: bytes | None = None
        self._session_factory: Callable[[BreakEvent], Any] | None = None
        self.interference_enabled = True

    # -- attachment ----------------------------------------------------------
    def attach(self, device: TargetDevice) -> None:
        """Connect the board to a target (Figure 5's header)."""
        if self.device is not None:
            raise RuntimeError("board is already attached to a target")
        self.device = device
        power = device.power
        self.circuit = ChargeDischargeCircuit(self.sim, power, self.adc)
        self.energy = EnergyStateManager(self.sim, power, self.adc, self.circuit)
        self.monitor = PassiveMonitor(
            self.sim,
            read_vcap=lambda: self.adc.measure(power.vcap),
            read_vreg=lambda: self.adc.measure(power.vreg),
            sample_rate=self.sample_rate,
        )
        device.on_code_marker.append(self._on_code_marker)
        device.uart.subscribe_tx(self._on_uart_byte)
        device.i2c.subscribe(self._on_i2c_txn)
        device.debug_uart.subscribe_tx(self._on_debug_byte)
        self._pending_watch = device.watch(self._service_pending)
        self._leakage_event = self.sim.call_every(
            1.0 / self.leakage_update_rate, self._update_leakage
        )
        self._update_leakage()

    def detach(self) -> None:
        """Disconnect from the target, removing all hooks and leakage."""
        if self.device is None:
            return
        device = self.device
        if self._on_code_marker in device.on_code_marker:
            device.on_code_marker.remove(self._on_code_marker)
        self._pending_watch.remove()
        if self._leakage_event is not None:
            self._leakage_event.cancel()
            self._leakage_event = None
        device.power.inject_current(0.0)
        self.device = None

    def _require_device(self) -> TargetDevice:
        if self.device is None:
            raise RuntimeError("board is not attached to a target")
        return self.device

    # -- passive-mode plumbing ---------------------------------------------------
    def _update_leakage(self) -> None:
        device = self.device
        if device is None or not self.interference_enabled:
            return
        states = {
            "code_marker_0": device.marker_lines[0].state,
            "code_marker_1": (
                device.marker_lines[1].state if len(device.marker_lines) > 1 else False
            ),
            "target_to_debugger_comm": device.debug_signal.state,
        }
        leakage = self.harness.live_leakage(states, device.power.vcap)
        device.power.inject_current(leakage)

    def _on_code_marker(self, marker_id: int) -> None:
        if self.monitor is not None:
            self.monitor.on_watchpoint(marker_id)

    def _on_uart_byte(self, data: bytes) -> None:
        if self.monitor is not None:
            self.monitor.on_io("uart", data)

    def _on_i2c_txn(self, record: dict) -> None:
        if self.monitor is not None:
            self.monitor.on_io("i2c", record)

    def on_rfid_message(self, message: Any) -> None:
        """Feed a message decoded from the RF taps (called by the RFID tap)."""
        self.rfid_log.append((self.sim.now, message))
        if self.monitor is not None:
            self.monitor.on_rfid(message)

    # -- debug-link message handling -------------------------------------------
    def _on_debug_byte(self, data: bytes) -> None:
        for message in self.decoder.feed(data):
            self._dispatch(message)

    def _dispatch(self, message: Message) -> None:
        if message.type is MsgType.PRINTF:
            text = message.decode_text()
            self.printf_log.append((self.sim.now, text))
            if self.monitor is not None:
                self.monitor.on_io("edb_printf", text)
            if self.on_printf is not None:
                self.on_printf(text)
        elif message.type is MsgType.ASSERT_FAIL:
            self._handle_assert_fail(message)
        elif message.type is MsgType.BREAKPOINT_HIT:
            pass  # bookkeeping only; servicing is synchronous in LibEDB
        elif message.type is MsgType.MEM_DATA:
            self._last_mem_data = message.payload
        elif message.type in (MsgType.GUARD_BEGIN, MsgType.GUARD_END):
            pass  # energy bracketing is handled synchronously in LibEDB

    # -- active-mode services (called by LibEDB / sessions) -------------------------
    def signal_attention(self) -> None:
        """The target raised the debug GPIO line: tether it *now*.

        This is the keep-alive path — it must not depend on the target
        having energy left to run a protocol exchange.
        """
        assert self.energy is not None
        self.energy.keep_alive()

    def begin_energy_guard(self) -> float:
        """Enter an energy-guarded region: save level, tether."""
        assert self.energy is not None
        self.sim.trace.record("edb.guard_begin", self._require_device().power.vcap)
        return self.energy.begin_task()

    def end_energy_guard(self) -> SaveRestoreRecord | None:
        """Leave an energy-guarded region: untether, restore level."""
        assert self.energy is not None
        record = self.energy.end_task(trim_up=False)
        self.sim.trace.record("edb.guard_end", self._require_device().power.vcap)
        return record

    def begin_printf(self) -> None:
        """Bracket an energy-interference-free printf (tether)."""
        assert self.energy is not None
        self.energy.begin_task()

    def end_printf(self) -> None:
        """Close the printf bracket (restore, discharge-only trim)."""
        assert self.energy is not None
        self.energy.end_task(trim_up=False)

    def _handle_assert_fail(self, message: Message) -> None:
        device = self._require_device()
        text = message.decode_text(skip=1)
        event = BreakEvent(
            reason="assert",
            time=self.sim.now,
            vcap=device.power.vcap,
            message=text,
        )
        self.break_events.append(event)
        self.sim.trace.record("edb.assert_fail", text)
        session = self._make_session(event)
        if self.on_assert is not None:
            self.on_assert(event, session)
        elif self.on_break is not None:
            self.on_break(event, session)
        raise AssertionHaltSignal(
            f"assert failed: {text}", vcap_at_failure=event.vcap
        )

    def check_code_breakpoint(self, breakpoint_id: int) -> Breakpoint | None:
        """Trigger evaluation for an executing BREAKPOINT(id) site."""
        device = self._require_device()
        return self.breakpoints.check_code_point(breakpoint_id, device.power.vcap)

    def service_breakpoint(self, bp: Breakpoint, reason: str = "breakpoint") -> None:
        """Run the full breakpoint service bracket.

        Save + tether, open an interactive session for the host
        handler, then restore (with the trim-up path, matching the
        paper's Table 3 measurement flow) and resume the target.
        """
        assert self.energy is not None
        device = self._require_device()
        event = BreakEvent(
            reason=reason,
            time=self.sim.now,
            vcap=device.power.vcap,
            breakpoint=bp,
        )
        self.break_events.append(event)
        self.sim.trace.record("edb.breakpoint", bp.describe())
        self.energy.begin_task()
        try:
            session = self._make_session(event)
            if self.on_break is not None:
                self.on_break(event, session)
        finally:
            self.energy.end_task(trim_up=True)

    # -- energy breakpoints (serviced off the sampler) ----------------------------
    def arm_energy_sampling(self) -> None:
        """Ensure the passive energy sampler runs (breakpoints need it).

        Idempotent: arming for every registered energy breakpoint must
        not stack duplicate listeners on a long-lived monitor.
        """
        assert self.monitor is not None
        self.monitor.enable("energy")
        if self._energy_sample_listener not in self.monitor.listeners:
            self.monitor.listeners.append(self._energy_sample_listener)

    def _energy_sample_listener(self, event) -> None:
        if event.stream != "energy" or self._pending_energy_bp is not None:
            return
        device = self.device
        if device is None or not device.power.is_on:
            return
        if self.energy is not None and self.energy.in_active_task:
            return
        bp = self.breakpoints.check_energy(event.value["vcap"])
        if bp is not None:
            # The interrupt line: a unit deadline already reached, so
            # the next counted work unit services the breakpoint.
            self._pending_energy_bp = bp
            self._pending_watch.arm(units=0)

    def _service_pending(self) -> None:
        self._pending_watch.disarm()
        bp = self._pending_energy_bp
        self._pending_energy_bp = None
        self.service_breakpoint(bp, reason="energy_breakpoint")

    # -- host memory access (through the target-side service loop) ----------------
    def read_target_memory(self, address: int, count: int) -> bytes:
        """Read target memory over the debug link.

        The transaction executes target-side code (libEDB's service
        routine), so it is only used while the target is tethered — an
        interactive session, a hit breakpoint, or a failed assert.
        """
        if self.libedb is None:
            raise RuntimeError("no libEDB linked into the target application")
        self._last_mem_data = None
        self.libedb.service_request(Message.read_mem(address, count))
        if self._last_mem_data is None:
            raise RuntimeError("target did not answer the memory read")
        return self._last_mem_data

    def write_target_memory(self, address: int, data: bytes) -> None:
        """Write target memory over the debug link."""
        if self.libedb is None:
            raise RuntimeError("no libEDB linked into the target application")
        self.libedb.service_request(Message.write_mem(address, data))

    # -- sessions -----------------------------------------------------------------
    def set_session_factory(self, factory: Callable[[BreakEvent], Any]) -> None:
        """Install the interactive-session constructor (set by EDB facade)."""
        self._session_factory = factory

    def _make_session(self, event: BreakEvent) -> Any:
        if self._session_factory is None:
            return None
        return self._session_factory(event)

    # -- console-level energy manipulation -----------------------------------------
    def charge_target(self, voltage: float) -> float:
        """Console ``charge`` command: raise Vcap to ``voltage``."""
        assert self.circuit is not None
        return self.circuit.charge_to(voltage)

    def discharge_target(self, voltage: float) -> float:
        """Console ``discharge`` command: lower Vcap to ``voltage``."""
        assert self.circuit is not None
        return self.circuit.discharge_to(voltage)
