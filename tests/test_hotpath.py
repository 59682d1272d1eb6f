"""Regression tests for the hot-path caches and energy-accounting fixes.

Covers two halves:

- bugfixes: stack traffic charging region cycles, sleep energy landing
  in ``energy_consumed`` (and counting as a watched work unit), code-marker
  lines released on a mid-pulse brown-out, ``call_every`` rejecting
  past starts;
- optimisations staying invisible: decode-cache invalidation on code
  stores, region-lookup fault semantics, batched charging reproducing
  the stepped trajectory bit for bit, debugger traffic (passive sampler
  ticks, UART/I2C transfers) spent on the fast path exactly as the
  reference path spends it, and the fixed-seed campaign report matching
  its committed golden byte for byte.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.config import CampaignConfig
from repro.campaign.report import render_json
from repro.campaign.scheduler import run_campaign
from repro.core.debugger import EDB
from repro.debug.server import handle_line
from repro.debug.service import DebugService
from repro.mcu.assembler import assemble
from repro.mcu.cpu import Cpu, Halted
from repro.mcu.device import (
    ExecutionLimit,
    PowerFailure,
    TargetDevice,
    dispatch_mode,
)
from repro.mcu.memory import (
    FRAM_BASE,
    MemoryFault,
    SRAM_BASE,
    SRAM_SIZE,
    make_msp430_memory_map,
)
from repro.power.capacitor import StorageCapacitor
from repro.power.harvester import NullSource, RFHarvester
from repro.power.supply import PowerSystem
from repro.power.wisp import make_wisp_power_system
from repro.sim import units
from repro.sim.kernel import Simulator


def _null_powered_device(voltage: float = 2.6) -> tuple[Simulator, TargetDevice]:
    """A device on a charged capacitor with no source: pure discharge."""
    sim = Simulator(seed=5)
    power = PowerSystem(
        sim=sim,
        source=NullSource(),
        capacitor=StorageCapacitor(capacitance=47 * units.UF, voltage=voltage),
    )
    return sim, TargetDevice(sim, power)


class TestStackEnergyAccounting:
    def _spends_for(self, source: str) -> list[list[int]]:
        """Per-instruction spend() call lists for one run of ``source``."""
        memory = make_msp430_memory_map()
        spends: list[list[int]] = []
        cpu = Cpu(memory, spend=lambda c: spends[-1].append(c))
        program = assemble(source)
        memory.write_bytes(program.origin, program.to_bytes())
        cpu.reset(program.entry)
        while True:
            spends.append([])
            try:
                cpu.step()
            except Halted:
                return spends

    def test_push_charges_stack_write_cycles(self):
        spends = self._spends_for("push #1\nhalt")
        # Instruction cycles, then the SRAM write the push performs.
        assert len(spends[0]) == 2
        assert spends[0][1] == 1  # SRAM write cost

    def test_pop_charges_stack_read_cycles(self):
        spends = self._spends_for("push #1\npop r4\nhalt")
        pop = spends[1]
        assert len(pop) == 2
        assert pop[1] == 1  # SRAM read cost

    def test_call_ret_charge_stack_cycles(self):
        spends = self._spends_for(
            "fn: ret\nstart: call #fn\nhalt"
        )
        call = spends[0]  # execution starts at `start`: call, ret, halt
        ret = spends[1]
        assert len(call) == 2 and call[1] == 1
        assert len(ret) == 2 and ret[1] == 1

    def test_push_costs_what_equivalent_mov_costs(self):
        mov = self._spends_for("buf: .word 0\nstart: mov #1, &buf\nhalt")
        push = self._spends_for("push #1\nhalt")
        # The MOV writes FRAM (3 cycles), the PUSH writes SRAM (1), but
        # both now pay a region write on top of the instruction cycles.
        assert len(mov[0]) == len(push[0]) == 2


class TestSleepAccounting:
    def test_sleep_accumulates_energy_consumed(self):
        _, device = _null_powered_device()
        before = device.energy_consumed
        device.sleep(10 * units.MS)
        assert device.energy_consumed > before

    def test_sleep_counts_a_unit_and_fires_watches(self):
        _, device = _null_powered_device()
        fired = []
        before = device.work_units
        device.watch(lambda: fired.append(device.sim.now)).arm(
            units=before + 1
        )
        device.sleep(1 * units.MS)
        assert device.work_units == before + 1
        assert fired


class TestCodeMarkerRelease:
    def test_marker_lines_released_on_brownout_mid_pulse(self):
        _, device = _null_powered_device()
        # Sag the rail below brown-out without refreshing the comparator:
        # the pulse's one-cycle spend observes the dead rail and raises.
        device.power.capacitor.voltage = device.power.brownout_voltage - 0.01
        with pytest.raises(PowerFailure):
            device.code_marker(0b101)
        assert all(not line.state for line in device.marker_lines)


class TestSchedulerGuards:
    def test_call_every_rejects_past_start(self):
        sim = Simulator(seed=1)
        sim.advance(1.0)
        with pytest.raises(ValueError):
            sim.call_every(0.1, lambda: None, start=0.5)

    def test_call_every_accepts_present_and_future_start(self):
        sim = Simulator(seed=1)
        sim.advance(1.0)
        sim.call_every(0.1, lambda: None, start=sim.now)
        sim.call_every(0.1, lambda: None, start=sim.now + 0.5)


class TestDecodeCache:
    def test_self_modifying_code_is_observed(self):
        memory = make_msp430_memory_map()
        cpu = Cpu(memory)
        program = assemble("start: nop\npatch: nop\nhalt")
        memory.write_bytes(program.origin, program.to_bytes())
        cpu.reset(program.entry)
        cpu.step()  # nop
        cpu.step()  # patch: nop — now cached
        halt_word = assemble("halt").words[0]
        memory.write_u16(program.symbols["patch"], halt_word)
        cpu.pc = program.symbols["patch"]
        with pytest.raises(Halted):
            cpu.step()

    def test_region_level_write_plus_explicit_invalidate(self):
        memory = make_msp430_memory_map()
        cpu = Cpu(memory)
        program = assemble("patch: nop\nhalt")
        memory.write_bytes(program.origin, program.to_bytes())
        cpu.reset(program.entry)
        cpu.step()  # cache the nop
        # A corruptor-style write through the region bypasses the map's
        # observers by design; the explicit invalidation hook makes the
        # CPU see the new bytes.
        halt_word = assemble("halt").words[0]
        region = memory.region_at(program.origin, 2)
        region.write_u16(program.symbols["patch"], halt_word)
        cpu.invalidate_decode_cache()
        cpu.pc = program.symbols["patch"]
        with pytest.raises(Halted):
            cpu.step()

    def test_clear_volatile_notifies_write_observers(self):
        memory = make_msp430_memory_map()
        seen = []
        memory.write_observers.append(lambda a, w: seen.append((a, w)))
        memory.clear_volatile()
        assert (SRAM_BASE, SRAM_SIZE) in seen


class TestRegionLookup:
    def test_fault_semantics_survive_the_caches(self):
        memory = make_msp430_memory_map()
        # Warm the last-hit and page caches first.
        assert memory.region_at(SRAM_BASE, 2).name == "sram"
        assert memory.region_at(FRAM_BASE, 2).name == "fram"
        with pytest.raises(MemoryFault):
            memory.region_at(0x0000, 2)  # NULL dereference
        with pytest.raises(MemoryFault):
            memory.region_at(SRAM_BASE + SRAM_SIZE - 1, 2)  # straddle
        with pytest.raises(MemoryFault):
            memory.region_at(0x3000, 2)  # gap between regions
        # Valid lookups still work after the faults.
        assert memory.region_at(SRAM_BASE + 4, 2).name == "sram"


class TestBatchedCharging:
    def _charge(self, batch: bool, duty: bool) -> tuple[float, float, int, int]:
        sim = Simulator(seed=99)
        if duty:
            source = RFHarvester(
                distance_m=1.4,
                fading_sigma=1.0,
                rng=sim.rng,
                duty_period=3 * units.MS,
                duty_fraction=0.7,
            )
            power = PowerSystem(
                sim=sim,
                source=source,
                capacitor=StorageCapacitor(
                    capacitance=47 * units.UF, voltage=1.8
                ),
            )
        else:
            power = make_wisp_power_system(sim, fading_sigma=1.5)
        ticks = []
        sim.call_every(500 * units.US, lambda: ticks.append(sim.now))
        power.charge_until_on(batch=batch)
        return sim.now, power.vcap, power.turn_ons, len(ticks)

    @pytest.mark.parametrize("duty", [False, True])
    def test_batched_equals_stepped_bit_for_bit(self, duty):
        fast = self._charge(batch=True, duty=duty)
        slow = self._charge(batch=False, duty=duty)
        assert fast == slow  # exact float equality, by construction

    def test_batching_skips_no_scheduled_events(self):
        # The periodic tick count is part of the tuple above, but assert
        # explicitly that batching does not starve the event queue.
        _, _, _, fast_ticks = self._charge(batch=True, duty=False)
        assert fast_ticks > 0

    def test_dark_phase_longer_than_a_fade_is_held(self, monkeypatch):
        """A dark phase outlasting the fading coherence time batches whole.

        The 21 ms dark phase of a 30 ms period at fraction 0.3 lets each
        10 ms fading draw lapse while the field is off.  The lapsed draw
        cannot redraw before the next lit instant, so the charge still
        matches ``batch=False`` bit for bit while stepping only near the
        duty edges and redraws: O(1) ``PowerSystem.step`` calls per
        period rather than one per 100 us of darkness.
        """
        steps = [0]
        real_step = PowerSystem.step

        def counting_step(power, dt, load_current=0.0):
            steps[0] += 1
            return real_step(power, dt, load_current)

        monkeypatch.setattr(PowerSystem, "step", counting_step)
        period = 30 * units.MS

        def charge(batch: bool) -> tuple[tuple[float, float, int], int]:
            steps[0] = 0
            sim = Simulator(seed=7)
            source = RFHarvester(
                distance_m=1.5,
                fading_sigma=1.5,
                rng=sim.rng,
                duty_period=period,
                duty_fraction=0.3,
            )
            power = PowerSystem(
                sim=sim,
                source=source,
                capacitor=StorageCapacitor(
                    capacitance=47 * units.UF, voltage=0.5
                ),
            )
            power.charge_until_on(batch=batch)
            return (sim.now, power.vcap, power.turn_ons), steps[0]

        fast, fast_steps = charge(batch=True)
        slow, _ = charge(batch=False)
        assert fast == slow  # exact float equality, by construction
        periods = fast[0] / period
        assert periods > 3  # the charge spans several dark phases
        assert fast_steps <= 8 * (periods + 1)


class _Registers:
    """A bare I2C register file."""

    def __init__(self) -> None:
        self.values: dict[int, int] = {}

    def read_register(self, register: int) -> int:
        return self.values.get(register, 0)

    def write_register(self, register: int, value: int) -> None:
        self.values[register] = value


@st.composite
def _debugger_traffic(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ("cycles", "cycles", "cycles", "uart", "i2c_read",
                     "i2c_write", "led", "deadline")
                ),
                st.integers(1, 400),
            ),
            min_size=3,
            max_size=24,
        )
    )
    return {
        "seed": draw(st.integers(0, 2**31)),
        "distance": draw(st.floats(0.6, 2.0)),
        "fading": draw(st.sampled_from((0.0, 0.0, 2.0, 5.0))),
        "cap_leak": draw(st.sampled_from((None, 2e5, 5e6))),
        "rate": draw(st.sampled_from((1e3, 4e3, 9.7e3, 25e3))),
        "threshold": draw(st.sampled_from((None, 2.0, 2.2, 2.4))),
        "v0": draw(st.floats(2.0, 3.0)),
        "ops": ops,
        "repeat": draw(st.integers(5, 40)),
    }


def _play_traffic(s: dict, fast: bool) -> tuple[dict, TargetDevice]:
    """Drive a debugger-attached device through ``s``.

    Returns what the run observed and the device.  ``fast=False``
    builds the device in step dispatch, which has no spend window, so
    every spend takes the one-call-at-a-time reference path.
    """
    sim = Simulator(seed=s["seed"])
    power = make_wisp_power_system(
        sim, distance_m=s["distance"], fading_sigma=s["fading"]
    )
    power.capacitor.leakage_resistance = s["cap_leak"]
    with mock.patch.dict(
        os.environ, {"REPRO_NO_BLOCKCACHE": "0" if fast else "1"}
    ):
        device = TargetDevice(sim, power)
    device.i2c.attach(0x1D, _Registers())
    edb = EDB(sim, device, sample_rate=s["rate"])
    edb.trace("energy")
    stops = []
    edb.board.on_break = lambda event, session: stops.append(
        (event.reason, event.time, event.vcap)
    )
    if s["threshold"] is not None:
        edb.break_on_energy(s["threshold"])
    power.capacitor.voltage = s["v0"]
    power.reset_comparator()
    log = []
    for _ in range(s["repeat"]):
        for op, n in s["ops"]:
            try:
                if not power.is_on:
                    power.charge_until_on()
                    device.reboot()
                if op == "cycles":
                    device.execute_cycles(n)
                elif op == "uart":
                    device.uart.transmit(bytes(range(n % 7 + 1)))
                elif op == "i2c_read":
                    device.i2c.read(0x1D, n % 16, n % 5 + 1)
                elif op == "i2c_write":
                    device.i2c.write(0x1D, n % 16, bytes([n % 256]))
                elif op == "led":
                    device.gpio.toggle("led")
                else:
                    device.stop_after = sim.now + n * 1e-6
            except PowerFailure:
                log.append(("brownout", sim.now))
            except ExecutionLimit:
                log.append(("deadline", sim.now))
                device.stop_after = None
            except TimeoutError as exc:  # a breakpoint's energy restore
                log.append((str(exc), sim.now))
    observed = {
        "now": sim.now,
        "vcap": power.capacitor._voltage,
        "energy": device.energy_consumed,
        "cycles": device.cycles_executed,
        "units": device.work_units,
        "reboots": device.reboot_count,
        "log": log,
        "events": list(edb.monitor.events),
        "streams": {
            name: stream.getstate()
            for name, stream in sorted(sim.rng._streams.items())
        },
        "stops": stops,
    }
    return observed, device


#: The spend-count assertions need the fast spend path, which
#: ``REPRO_NO_BLOCKCACHE=1`` switches off.
needs_spend_window = pytest.mark.skipif(
    dispatch_mode() == "step",
    reason="spend window disabled by REPRO_NO_BLOCKCACHE",
)


class TestPassiveSpends:
    """Sampler ticks and bus transfers stay on the fast spend path."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(s=_debugger_traffic())
    def test_fast_path_matches_slow_path(self, s):
        fast, _ = _play_traffic(s, fast=True)
        slow, _ = _play_traffic(s, fast=False)
        assert fast == slow

    @needs_spend_window
    def test_sampler_ticks_and_transfers_spend_fast(self):
        """The differential above is not vacuous: the window serves them."""
        s = {
            "seed": 3, "distance": 1.4, "fading": 0.0, "cap_leak": 5e6,
            "rate": 25e3, "threshold": 2.1, "v0": 2.6,
            "ops": [("cycles", 90), ("uart", 5), ("i2c_write", 9),
                    ("led", 1), ("i2c_read", 2), ("cycles", 300)],
            "repeat": 60,
        }
        fast, device = _play_traffic(s, fast=True)
        slow, _ = _play_traffic(s, fast=False)
        assert fast == slow
        assert len(fast["events"]) > 100 and fast["stops"]
        # Nearly every spend committed on the fast path: a sampler tick
        # or a bus byte never leaves it.
        assert sum(device.slow_spends.values()) < fast["units"] // 10
        assert device.slow_spends["event"] <= device.sim._fired


    @needs_spend_window
    def test_debug_session_spends_stay_fast(self, monkeypatch):
        """A benchmark-shaped debug session leaves the fast path rarely.

        Live energy trace at 4 kHz, an energy breakpoint whose hits read
        FRAM and recharge, a 2 s run, then forty tethered memory reads
        (each a UART exchange).  No slow spend is caused by a sampler
        tick: every ``event`` refusal has a non-passive event due.
        """
        refusals = []
        real = TargetDevice._slow_spend

        def spy(device, cause, cycles, extra_current):
            t1 = device.sim._now + cycles * device._cycle_time
            refusals.append(
                (
                    cause,
                    any(
                        not (e.cancelled or e.passive) and e.time <= t1
                        for e in device.sim._queue
                    ),
                )
            )
            real(device, cause, cycles, extra_current)

        monkeypatch.setattr(TargetDevice, "_slow_spend", spy)
        script = [
            ("session.create", {"app": "fibonacci", "seed": 424242,
                                "iterations": 198, "distance_m": 1.6}),
            ("trace.enable", {"stream": "energy"}),
            ("energy.charge", {"volts": 2.4}),
            ("break.on_hit", {"actions": [
                {"op": "read_u16", "address": FRAM_BASE},
                {"op": "charge", "volts": 2.3},
            ]}),
            ("break.add_energy", {"threshold_v": 2.0}),
            ("run", {"duration": 2.0}),
        ]
        for k in range(40):
            script.append(
                ("mem.read", {"address": FRAM_BASE + 6 * k, "count": 8})
            )
        service = DebugService()
        sid = None
        try:
            for n, (method, params) in enumerate(script):
                if sid is not None:
                    params = {"session": sid, **params}
                request = {"jsonrpc": "2.0", "id": n, "method": method,
                           "params": params}
                reply = json.loads(handle_line(service, json.dumps(request)))
                assert "result" in reply, reply
                if sid is None:
                    sid = reply["result"]["session"]
            session = service.sessions[sid]
            slow = session.device.slow_spends
            events = session.edb.monitor.events
            stops = session.edb.board.break_events
        finally:
            service.close_all()
        assert len(events) > 1000 and stops
        assert sum(slow.values()) == len(refusals) < 100
        assert all(due for cause, due in refusals if cause == "event")


GOLDEN_CONFIG = CampaignConfig(
    app="linked_list",
    runs=16,
    seed=20260806,
    iterations=16,
    duration=0.6,
    workers=1,
    shrink=True,
    shrink_limit=2,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "campaign_golden.json"


@pytest.mark.campaign_smoke
def test_campaign_report_is_byte_identical_to_golden():
    """The caching/batching rewrite must not move a single byte.

    The golden file was rendered before the decode cache, region page
    table, and charging fast path existed (but after the energy-model
    bugfixes), so this test pins the optimisations to the exact
    pre-optimisation trajectories.
    """
    report = run_campaign(GOLDEN_CONFIG)
    assert render_json(report) == GOLDEN_PATH.read_text()
