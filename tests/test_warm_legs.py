"""Warm legs: translated blocks that outlive stores and restores, and the
per-process pool of built devices that from-reset legs restore.

Two layers are pinned here.  The CPU keeps a translated block while
memory still holds the bytes it was compiled from: an identical rewrite
or a restore of the same image costs a byte compare, a changed byte a
retranslation, and a block never runs stale thunks.  On top of that,
``runner.build_leg(snapshot=True)`` serves from-reset legs a pooled
device restored to the node captured right after it was built; each of
the pool's honesty rules has a test, and a hypothesis differential
requires ``snapshot=True`` reports to equal ``snapshot=False`` ones
byte for byte while the pool is hot.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import runner
from repro.campaign.apps import get_adapter
from repro.campaign.config import FAULT_MODES, CampaignConfig
from repro.campaign.faults import FaultPlan
from repro.campaign.report import render_json
from repro.campaign.scheduler import run_campaign
from repro.mcu.assembler import assemble
from repro.mcu.cpu import Cpu, Halted
from repro.mcu.memory import make_msp430_memory_map
from repro.sim.kernel import Simulator
import repro.snapshot as snapshots
from repro.snapshot import capture, capture_wiring, restore
from repro.testing import make_bench_target


# -- blocks live as long as their code bytes --------------------------------
def _loaded_cpu(source: str) -> tuple[Cpu, object]:
    memory = make_msp430_memory_map()
    cpu = Cpu(memory)
    program = assemble(source)
    memory.write_bytes(program.origin, program.to_bytes())
    cpu.reset(program.entry)
    return cpu, program


_LOOP = "start: mov #1, r4\n add r4, r5\n jmp start"


def test_identical_rewrite_keeps_the_block():
    cpu, program = _loaded_cpu(_LOOP)
    assert cpu.step_block() == 3
    assert cpu.blocks_translated == 1
    # A map-level store of the same bytes, then an out-of-band-style
    # invalidation: neither changes the code, so neither retranslates.
    cpu.memory.write_bytes(program.origin, program.to_bytes())
    assert cpu.step_block() == 3
    cpu.invalidate_decode_cache()
    assert cpu.step_block() == 3
    assert cpu.blocks_translated == 1
    assert cpu.registers[5] == 3


def test_changed_byte_forces_a_retranslation():
    cpu, program = _loaded_cpu(_LOOP)
    cpu.step_block()
    patched = assemble(_LOOP.replace("#1", "#7"))
    assert patched.origin == program.origin
    cpu.memory.write_bytes(patched.origin, patched.to_bytes())
    cpu.step_block()
    assert cpu.blocks_translated == 2
    assert cpu.registers[4] == 7
    # The same edit behind the map's back, then the explicit hook.
    region = cpu.memory.region_at(program.origin, 2)
    region.write_bytes(program.origin, program.to_bytes())
    cpu.invalidate_decode_cache()
    cpu.step_block()
    assert cpu.blocks_translated == 3
    assert cpu.registers[4] == 1


def _self_patching(value: int) -> str:
    # ``mov #value, &imm`` rewrites the immediate of the ``mov`` two
    # instructions later, inside the same block.  The layout does not
    # depend on the literals, so one assembly locates the patched word.
    template = (
        "start: mov #{value}, &{imm}\n nop\npatch: mov #1, r4\n halt"
    )
    probe = assemble(template.format(value=0, imm=0xA000))
    imm = probe.symbols["patch"] + 4
    return template.format(value=value, imm=imm)


def test_store_into_the_running_block_stops_it_at_the_next_thunk():
    cpu, _ = _loaded_cpu(_self_patching(9))
    assert cpu.step_block() == 1  # the store changed the block's own code
    assert cpu.blocks_deopts == 1
    with pytest.raises(Halted):
        while True:
            cpu.step_block()
    assert cpu.registers[4] == 9
    assert cpu.blocks_translated == 2


def test_identical_store_into_the_running_block_keeps_it_running():
    cpu, _ = _loaded_cpu(_self_patching(1))
    with pytest.raises(Halted):
        cpu.step_block()
    assert cpu.instructions_retired == 3  # HALT raises before retiring
    assert (cpu.blocks_translated, cpu.blocks_deopts) == (1, 0)
    assert cpu.registers[4] == 1


def test_restore_to_a_node_with_different_code_runs_no_stale_thunks(
    monkeypatch,
):
    # Block dispatch whatever dispatch mode the suite runs under.
    monkeypatch.delenv("REPRO_NO_BLOCKCACHE", raising=False)
    monkeypatch.delenv("REPRO_FORCE_DEOPT", raising=False)
    sim = Simulator(seed=5)
    target = make_bench_target(sim)
    first = assemble("start: mov #1, r4\n add #3, r4\n halt")
    second = assemble("start: mov #2, r4\n add #5, r4\n halt")

    def run(program=None) -> int:
        if program is not None:
            target.load_program(program)
        with pytest.raises(Halted):
            while True:
                target.cpu.step_block()
        return target.cpu.registers[4]

    target.load_program(first)
    node = capture(target)
    assert run(second) == 7
    translated = target.cpu.blocks_translated
    assert translated > 0
    restore(target, node)
    assert run() == 4  # the first image's code, not the second's thunks
    assert target.cpu.blocks_translated == translated  # none survived
    restore(target, node)
    assert run() == 4  # same bytes as the surviving block: no translation
    assert target.cpu.blocks_translated == 0


# -- the device pool's honesty rules -----------------------------------------
# Every environment setting a plan can make (fading, duty), plus a flip.
_PLAN = FaultPlan(
    mode="op_index", ops_schedule=(40, 60), distance_m=2.0, fading_sigma=1.5,
    duty=(0.005, 0.6), flips=((1, 3, 2),),
)


@pytest.fixture
def pool(monkeypatch):
    """An empty device pool and recent-key set for the test's builds."""
    monkeypatch.setattr(runner, "_device_pool", {})
    monkeypatch.setattr(runner, "_recent_keys", {})
    return runner


def _build(plan=_PLAN, seed=11):
    config = CampaignConfig(app="rfid_firmware", iterations=30)
    return runner.build_leg(
        config, get_adapter("rfid_firmware"), seed, plan, snapshot=True
    )


def test_a_miss_costs_no_capture(pool, monkeypatch):
    captures = []
    real_capture = snapshots.capture
    monkeypatch.setattr(
        snapshots, "capture", lambda t: captures.append(t) or real_capture(t)
    )
    first = _build()[1]
    assert (captures, pool._device_pool) == ([], {})
    second = _build()[1]
    assert captures == [second] and second is not first
    third = _build()[1]
    assert third is second and len(captures) == 1
    # Environments that never repeat leave a bounded trace.
    for step in range(pool._RECENT_KEYS_SIZE + 8):
        plan = FaultPlan(mode="organic", distance_m=1.0 + step / 64)
        pool._pooled_device(1, plan, False)
    assert len(pool._recent_keys) == pool._RECENT_KEYS_SIZE
    assert len(captures) == 1


def test_a_build_that_touched_the_rng_is_never_kept(pool, monkeypatch):
    real_new = runner._new_device

    def drawing(*args):
        sim, target = real_new(*args)
        sim.rng.stream("construction")
        return sim, target

    monkeypatch.setattr(runner, "_new_device", drawing)
    _build()
    _build()
    assert pool._device_pool == {}


def test_a_corrupt_node_is_evicted_and_the_leg_builds_cold(pool):
    _build()
    pooled = _build()[1]
    (key,) = pool._device_pool
    node = pool._device_pool[key][2]
    node.integrity ^= 1
    target = _build()[1]
    assert target is not pooled
    assert key not in pool._device_pool
    # The cold device runs the leg exactly as one built without the pool.
    config = CampaignConfig(app="rfid_firmware", iterations=30)
    adapter = get_adapter("rfid_firmware")
    assert runner.run_intermittent_leg(
        config, adapter, _PLAN, 11, snapshot=True
    ) == runner.run_intermittent_leg(config, adapter, _PLAN, 11)


@pytest.mark.parametrize("switch", ["REPRO_FORCE_DEOPT", "REPRO_NO_BLOCKCACHE"])
def test_a_switched_device_never_serves_an_unswitched_leg(pool, monkeypatch, switch):
    monkeypatch.setenv(switch, "1")
    _build()
    switched = _build()[1]
    assert switched.dispatch != "block"
    monkeypatch.delenv(switch)
    plain = _build()[1]
    assert plain is not switched
    assert plain.dispatch == "block"
    monkeypatch.setenv(switch, "1")
    assert _build()[1] is switched


def test_a_warm_device_has_the_nodes_wiring(pool):
    config = CampaignConfig(app="rfid_firmware", iterations=30)
    adapter = get_adapter("rfid_firmware")
    runner.run_intermittent_leg(config, adapter, _PLAN, 11, snapshot=True)
    runner.run_intermittent_leg(config, adapter, _PLAN, 12, snapshot=True)
    (entry,) = pool._device_pool.values()
    sim, target, _, wiring = entry
    # The pooled leg left its recorder, injectors, corruptor, watchdog,
    # stimulus port and coverage behind.
    assert capture_wiring(target) != wiring
    warm = runner.run_intermittent_leg(config, adapter, _PLAN, 13, snapshot=True)
    assert warm == runner.run_intermittent_leg(config, adapter, _PLAN, 13)
    assert pool._pooled_device(14, _PLAN, False) == (sim, target)
    assert capture_wiring(target) == wiring
    assert sim.rng.seed == 14 and sim.rng.untouched


# -- warm and cold legs write the same bytes ----------------------------------
_APPS = ("linked_list", "fibonacci", "counter", "chaos", "rfid_firmware")


@st.composite
def _configs(draw):
    app = draw(st.sampled_from(_APPS))
    fuzz = app != "chaos" and draw(st.booleans())
    # Far enough that organic brown-outs happen, so a fading stream
    # drawn from the wrong seed would move a boot count.
    distance = draw(st.sampled_from((1.6, 2.0, 2.4)))
    fading = draw(st.sampled_from((0.0, 1.5, 3.0)))
    return CampaignConfig(
        app=app,
        # Chaos run 2 kills its worker: keep in-process chaos to 0..1.
        runs=2 if app == "chaos" else draw(st.integers(4, 8)),
        seed=draw(st.integers(0, 2**16)),
        iterations=draw(st.integers(4, 16)) if app != "rfid_firmware" else 60,
        duration=1.0,
        modes=tuple(
            draw(st.lists(st.sampled_from(FAULT_MODES), min_size=1, unique=True))
        ),
        max_ops=draw(st.sampled_from((60, 200))),
        distance_range=(distance, distance),
        fading_range=(fading, fading),
        duty_chance=draw(st.sampled_from((0.0, 1.0))),
        corrupt_checkpoints=draw(st.booleans()),
        shrink_limit=1,
        mode="fuzz" if fuzz else "sample",
        fuzz_rounds=2,
    )


@pytest.mark.blockcache
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=_configs())
def test_warm_leg_reports_equal_cold_ones(config):
    cold = render_json(run_campaign(config, snapshot=False))
    for _ in range(2):
        assert render_json(run_campaign(config, snapshot=True)) == cold
