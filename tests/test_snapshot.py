"""Snapshot/restore bit-exactness properties (``repro.snapshot``).

The campaign engine's prefix-forking rests on one property: restoring a
:class:`~repro.snapshot.DeviceSnapshot` and resuming produces *exactly*
the trajectory of never having stopped — same registers, same memory
bytes, same capacitor voltage, same RNG draws, across brown-out/reboot
boundaries and under every fault-injection axis.  These tests state
that property directly, plus the report-level consequence: campaign
reports are byte-identical with snapshot forking on and off.
"""

from __future__ import annotations

import random

import pytest

from repro.campaign.apps import get_adapter
from repro.campaign.config import CampaignConfig
from repro.campaign.faults import (
    ScheduledBrownouts,
    StateCorruptor,
    plan_faults,
)
from repro.campaign.forking import _program_state, _restore_program_state
from repro.campaign.report import render_json
from repro.campaign.runner import _install_injectors
from repro.campaign.scheduler import run_campaign
from repro.core.debugger import EDB
from repro.power.harvester import RFHarvester
from repro.runtime.checkpoint import fletcher16
from repro.runtime.executor import IntermittentExecutor
from repro.sim.kernel import Simulator
from repro.sim.rng import derive_seed
from repro.snapshot import DirtyTracker, capture, restore
from repro.testing import make_bench_target, make_fast_target

from tests.test_hotpath import GOLDEN_CONFIG, GOLDEN_PATH, needs_spend_window

pytestmark = pytest.mark.snapshot


def _fingerprint(sim, target) -> dict:
    """Everything the simulated world can observe, cheaply comparable.

    Memory is summarised as per-region Fletcher-16 checksums (the same
    primitive the task runtime trusts for checkpoint integrity), the
    rest is exact values — floats included, because the contract is
    bit-identity, not tolerance.
    """
    return {
        "registers": tuple(target.cpu.registers),
        "memory": {
            region.name: fletcher16(bytes(region._data))
            for region in target.memory.regions
        },
        "vcap": target.power.capacitor._voltage,
        "now": sim.now,
        "cycles": target.cycles_executed,
        "retired": target.cpu.instructions_retired,
        "reboots": target.reboot_count,
        "energy": target.energy_consumed,
    }


#: One entry per fault-injection axis, including checkpoint corruption
#: (region-level writes that bypass the map accessors) and RF fading
#: (an RNG-consuming environment, exercising stream-position capture).
AXES = {
    "op_index": {"modes": ("op_index",)},
    "energy_level": {"modes": ("energy_level",)},
    "commit_boundary": {"modes": ("commit_boundary",)},
    "op_index+flips": {"modes": ("op_index",), "corrupt_checkpoints": True},
    "op_index+fading": {"modes": ("op_index",), "fading_range": (1.5, 1.5)},
}


def _build_leg(axis: str):
    kwargs = {
        "app": "linked_list",
        "runs": 4,
        "seed": 99,
        "iterations": 12,
        "duration": 0.6,
        "workers": 1,
        "shrink": False,
        "distance_range": (1.6, 1.6),
        "fading_range": (0.0, 0.0),
    }
    kwargs.update(AXES[axis])
    config = CampaignConfig(**kwargs)
    run_seed = derive_seed(config.seed, "run", 0)
    plan = plan_faults(config, random.Random(derive_seed(run_seed, "plan")))
    adapter = get_adapter(config.app)
    sim = Simulator(seed=derive_seed(run_seed, "intermittent"))
    target = make_fast_target(
        sim, distance_m=plan.distance_m, fading_sigma=plan.fading_sigma
    )
    if plan.duty is not None and isinstance(target.power.source, RFHarvester):
        target.power.source.duty_period = plan.duty[0]
        target.power.source.duty_fraction = plan.duty[1]
    program = adapter.build(config.protect, config.iterations)
    executor = IntermittentExecutor(sim, target, program)
    executor.flash()
    injectors = _install_injectors(target, plan)
    if plan.flips:
        injectors.append(
            StateCorruptor(
                target,
                adapter.state_ranges(program, executor.api),
                list(plan.flips),
            )
        )
    return config, sim, target, program, executor, injectors


@pytest.mark.parametrize("axis", sorted(AXES))
def test_restore_then_resume_is_bit_identical(axis):
    """snapshot -> restore -> resume == never having stopped.

    Runs a fault-injected leg partway, captures, finishes it (the
    straight-through trajectory), then rewinds to the capture and
    finishes again.  Both trajectories cross at least one
    brown-out/reboot boundary after the capture point, and must agree
    exactly: registers, memory checksums, capacitor voltage, simulated
    clock, energy accounting, and subsequent RNG draws.
    """
    config, sim, target, program, executor, injectors = _build_leg(axis)
    deadline = sim.now + config.duration
    mid = sim.now + 0.35 * config.duration

    executor.run(until=mid, stop_on_fault=True)
    tracker = DirtyTracker(target.memory)
    snap = capture(target, tracker)
    injector_states = [injector.export_state() for injector in injectors]
    program_state = _program_state(program)
    reboots_at_capture = target.reboot_count

    executor.run(until=deadline, stop_on_fault=True)
    straight = _fingerprint(sim, target)
    straight_draws = [sim.rng.gauss("probe", 0.0, 1.0) for _ in range(3)]

    restore(target, snap, tracker)
    for injector, state in zip(injectors, injector_states):
        injector.restore_state(state)
    _restore_program_state(program, program_state)
    executor.run(until=deadline, stop_on_fault=True)
    replay = _fingerprint(sim, target)
    # The "probe" stream was born after the capture, so the restore
    # dropped it; recreating it on demand re-derives the same seed and
    # must replay the same values.
    replay_draws = [sim.rng.gauss("probe", 0.0, 1.0) for _ in range(3)]

    assert replay == straight
    assert replay_draws == straight_draws
    # The resumed stretch was a real intermittent workload, not a tail:
    # it crossed at least one brown-out/reboot boundary.
    assert straight["reboots"] > reboots_at_capture


def _units_until_injection(target, injector) -> tuple[int, int]:
    """Spend work units until the injector fires; (boot, total) units."""
    fired = injector.injections
    while injector.injections == fired:
        target.execute_cycles(10)
    return target.boot_units, target.work_units


def _mid_boot_target():
    sim = Simulator(seed=5)
    target = make_bench_target(sim)
    injector = ScheduledBrownouts(target, [7])
    target.reboot()  # boot 0 begins: the deadline is 7 units away
    for _ in range(3):
        target.execute_cycles(10)
    return target, injector


def test_unit_counters_and_deadlines_round_trip():
    """Work-unit counters and every armed trigger survive a restore."""
    target, injector = _mid_boot_target()
    watch = target.watch(lambda: None)
    watch.arm(units=target.work_units + 40, cycles=10**6, vcap=1.9)
    snap = capture(target)
    armed = (
        target.work_units, target.boot_units,
        injector._watch.units, (watch.units, watch.cycles, watch.vcap),
    )
    for _ in range(3):  # stays short of the injector's deadline
        target.execute_cycles(10)
    watch.disarm()
    assert target.work_units != armed[0]

    restore(target, snap)
    assert armed == (
        target.work_units, target.boot_units,
        injector._watch.units, (watch.units, watch.cycles, watch.vcap),
    )


def test_fork_resumed_mid_boot_fires_at_the_from_reset_unit():
    """A mid-boot fork fires ScheduledBrownouts where from-reset does."""
    reference, ref_injector = _mid_boot_target()
    from_reset = _units_until_injection(reference, ref_injector)
    assert from_reset[0] == 7

    target, injector = _mid_boot_target()
    snap = capture(target)
    state = injector.export_state()
    assert _units_until_injection(target, injector) == from_reset
    restore(target, snap)
    injector.restore_state(state)
    assert _units_until_injection(target, injector) == from_reset


def test_rng_draw_stays_visible_after_restore():
    """A restore to a stream-free snapshot does not hide an earlier draw.

    The fork and lane engines check ``untouched`` once, after many
    restores; a flag that a restore could reset would let a draw in any
    replay but the last go unseen.
    """
    sim = Simulator(seed=3)
    target = make_bench_target(sim)
    snap = capture(target)
    assert sim.rng.untouched
    sim.rng.uniform("probe", 0.0, 1.0)
    restore(target, snap)
    assert not sim.rng._streams  # the stream itself was rewound away
    assert not sim.rng.untouched


@needs_spend_window
def test_restored_sampler_stays_passive():
    """A restore keeps EDB's energy sampler passive and host events queued.

    The first spend after the restore rebuilds the spend window (the
    restore drops it); the next sampler tick then fires inside a fast
    spend and keeps that window.  A sampler restored as an ordinary
    event would count as fired and cost a rebuild on every tick.
    """
    sim = Simulator(seed=5)
    target = make_fast_target(sim, 1.0, 0.0)
    edb = EDB(sim, target)
    edb.trace("energy")
    target.power.capacitor.voltage = 2.6
    target.power.reset_comparator()
    host = sim.call_at(1.0, lambda: None, host=True)
    target.execute_cycles(100)
    snap = capture(target)
    for _ in range(40):
        target.execute_cycles(100)
    restore(target, snap)
    assert host in sim._queue
    sampler = [
        e for e in sim._queue if e.callback == edb.monitor._sample_energy
    ]
    assert len(sampler) == 1 and sampler[0].passive
    tick = sampler[0].time
    target.execute_cycles(1)
    window = target._spend_window
    spent = dict(target.slow_spends)
    assert window is not None
    assert all(
        e.passive or e.host or e.time > tick + 1e-4 for e in sim._queue
    )
    samples = len(edb.monitor.events)
    while sim.now <= tick:
        target.execute_cycles(100)
    assert len(edb.monitor.events) == samples + 1
    assert target._spend_window is window
    assert target.slow_spends == spent


def test_differential_capture_equals_full_capture():
    """Dirty-page capture sees exactly what a full copy sees.

    Interleaves execution with paired captures (one through a
    :class:`DirtyTracker`, one full) and requires identical pages each
    time — including after a reboot's ``clear_volatile``, which writes
    whole regions behind the accessors.
    """
    _, sim, target, _, executor, _ = _build_leg("op_index")
    tracker = DirtyTracker(target.memory)
    deadline = sim.now + 0.6
    for fraction in (0.2, 0.4, 0.8):
        executor.run(until=sim.now + fraction * 0.2 + 0.05,
                     stop_on_fault=True)
        differential = capture(target, tracker)
        full = capture(target, None)
        assert differential.memory_pages == full.memory_pages
        assert sim.now <= deadline + 0.6  # sanity: bounded progress


def test_golden_report_byte_identical_without_snapshot():
    """The legacy (from-reset) path still reproduces the golden bytes.

    The default-path counterpart — snapshot forking *on* — is asserted
    by ``tests/test_hotpath.py``; together they pin both execution
    paths to the same committed report.
    """
    report = run_campaign(GOLDEN_CONFIG, snapshot=False)
    assert render_json(report) == GOLDEN_PATH.read_text()


def test_forked_campaign_report_identical_to_legacy():
    """Snapshot on == snapshot off, byte for byte, with real fork groups.

    A pinned environment (fixed distance, no fading) makes every
    same-mode run share a fork group, so this exercises genuine prefix
    sharing — chain snapshots, mid-schedule restores, shrinker replay
    sessions — not the singleton fallback.
    """
    config = CampaignConfig(
        app="linked_list",
        runs=12,
        seed=777,
        iterations=16,
        duration=0.6,
        workers=1,
        shrink=True,
        shrink_limit=2,
        modes=("op_index", "commit_boundary"),
        distance_range=(1.6, 1.6),
        fading_range=(0.0, 0.0),
    )
    forked = render_json(run_campaign(config, snapshot=True))
    legacy = render_json(run_campaign(config, snapshot=False))
    assert forked == legacy


# -- block-translation instrumentation and coverage across restore ----------

def _run_branchy_with_coverage(seed: int):
    """A powered ISA leg with a recorder attached; returns (sim, target)."""
    from repro.apps.isa_app import IsaApp
    from repro.mcu.assembler import assemble
    from repro.mcu.coverage import CoverageRecorder

    from tests.test_blockcache import _random_branchy

    sim = Simulator(seed=seed)
    target = make_fast_target(sim, distance_m=1.6, fading_sigma=0.0)
    target.cpu.coverage = CoverageRecorder()
    source = _random_branchy(random.Random(seed), iterations=8)
    executor = IntermittentExecutor(sim, target, IsaApp(target, assemble(source)))
    executor.run(duration=1.0, stop_on_fault=True)
    return sim, target


def test_restore_resets_block_translation_counters():
    """``blocks_translated/executed/deopts`` are per-leg instrumentation,
    not simulated state: a restored device must start counting from
    zero, exactly like a device built fresh for the leg."""
    sim, target = _run_branchy_with_coverage(seed=31)
    assert target.cpu.blocks_executed > 0
    assert target.cpu.blocks_translated > 0

    tracker = DirtyTracker(target.memory)
    snap = capture(target, tracker)
    restore(target, snap, tracker)

    assert target.cpu.blocks_translated == 0
    assert target.cpu.blocks_executed == 0
    assert target.cpu.blocks_deopts == 0


def test_restore_rewinds_coverage_to_the_capture_point():
    """The recorder's ordered entry set is part of the snapshot: records
    made after the capture vanish on restore, and the signature comes
    back bit-identical."""
    sim, target = _run_branchy_with_coverage(seed=47)
    coverage = target.cpu.coverage
    assert len(coverage) >= 2  # entry plus at least one taken transfer

    tracker = DirtyTracker(target.memory)
    snap = capture(target, tracker)
    at_capture = coverage.export_state()
    signature_at_capture = coverage.signature()

    # Later-leg records that must not survive the rewind.
    coverage.record(0xBEE0)
    coverage.record(0xBEE2)
    assert coverage.blocks() != at_capture

    restore(target, snap, tracker)
    assert coverage.blocks() == at_capture
    assert coverage.signature() == signature_at_capture


def test_restore_leaves_coverage_alone_without_a_captured_recorder():
    """A snapshot taken before any recorder existed carries no coverage
    state; restoring it must not clobber a recorder attached later."""
    from repro.mcu.coverage import CoverageRecorder

    sim = Simulator(seed=5)
    target = make_fast_target(sim, distance_m=1.6, fading_sigma=0.0)
    tracker = DirtyTracker(target.memory)
    snap = capture(target, tracker)  # no recorder attached yet

    target.cpu.coverage = CoverageRecorder()
    target.cpu.coverage.record(0xA000)
    restore(target, snap, tracker)

    assert target.cpu.coverage.blocks() == (0xA000,)
