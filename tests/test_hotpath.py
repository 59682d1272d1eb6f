"""Regression tests for the hot-path caches and energy-accounting fixes.

Covers the PR's two halves:

- bugfixes: stack traffic charging region cycles, sleep energy landing
  in ``energy_consumed`` (and counting as a watched work unit), code-marker
  lines released on a mid-pulse brown-out, ``call_every`` rejecting
  past starts;
- optimisations staying invisible: decode-cache invalidation on code
  stores, region-lookup fault semantics, batched charging reproducing
  the stepped trajectory bit for bit, and the fixed-seed campaign
  report matching its committed golden byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign.config import CampaignConfig
from repro.campaign.report import render_json
from repro.campaign.scheduler import run_campaign
from repro.mcu.assembler import assemble
from repro.mcu.cpu import Cpu, Halted
from repro.mcu.device import PowerFailure, TargetDevice
from repro.mcu.memory import (
    FRAM_BASE,
    MemoryFault,
    SRAM_BASE,
    SRAM_SIZE,
    make_msp430_memory_map,
)
from repro.perf.harness import run_all
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


@pytest.mark.perf_smoke
def test_perf_harness_smoke():
    """A scaled-down benchmark run produces well-formed results."""
    results = run_all(scale=0.02)
    assert set(results) == {
        "isa_throughput", "charge_discharge",
        "campaign", "snapshot_fork", "campaign_opsweep", "fuzz_search",
    }
    for result in results.values():
        payload = result.to_dict()
        assert payload["value"] > 0
        assert payload["wall_s"] > 0
        json.dumps(payload)  # JSON-serialisable
