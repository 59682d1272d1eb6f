"""Lane engine (``repro.batch``): lane-vs-from-reset bit-identity properties.

The batch engine's contract is that it is *invisible* in the records: a
campaign produces byte-identical reports with batching on or off.  The
tests here pin that contract for the leader/peel/clone engine against
from-reset legs on every divergence class the engine can meet
(fault-schedule hits, organic mid-run brown-outs, commit-boundary
writes, never-firing sweeps), pin that a group the engine gives up runs
from reset without a second session, that the engine needs no optional
package, and pin the per-process leader memo: hits, key misses, the
leaders it never keeps, and that a kept leader session does not grow.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.batch import engine
from repro.batch.engine import execute_batch_group
from repro.campaign import forking, watchdog
from repro.campaign.apps import get_adapter
from repro.campaign.config import CampaignConfig
from repro.campaign.faults import plan_faults
from repro.campaign.forking import execute_chunk
from repro.campaign.report import render_json
from repro.campaign.runner import (
    Run,
    execute_safe,
    planned_runs,
    tier_stats_delta,
    tier_stats_snapshot,
)
from repro.campaign.scheduler import run_campaign
from repro.mcu.memory import FRAM_BASE, FRAM_SIZE
from repro.runtime.checkpoint import fletcher16
from repro.sim.rng import derive_seed


# -- the leader/peel/clone engine vs from-reset legs -----------------------
class ChecksumAdapter:
    """rfid_firmware with FRAM checksums folded into every observation.

    Wrapping the observation makes the differential tests sensitive to
    *any* end-state memory divergence between the lane engine and the
    from-reset path, not just the handful of words the stock adapter
    reads.
    """

    name = "rfid_firmware"
    invariant_keys = ("drift_ok",)
    requires_stimulus = True

    def __init__(self):
        self._inner = get_adapter("rfid_firmware")

    def build(self, protect, iterations):
        return self._inner.build(protect, iterations)

    def state_ranges(self, program, api):
        return self._inner.state_ranges(program, api)

    def observe(self, program, api):
        out = self._inner.observe(program, api)
        device = api.device
        out["fram_fletcher16"] = fletcher16(
            device.memory.read_bytes(FRAM_BASE, FRAM_SIZE)
        )
        out["reboot_count"] = device.reboot_count
        # Fork-eligible legs consume zero randomness (the honesty
        # invariant); assert it here so a draw sneaking into either
        # path shows up as a record difference, not silent luck.
        out["rng_untouched"] = device.sim.rng.untouched
        return out


def _members(config: CampaignConfig, count: int, adapter, duty=None):
    """The first ``count`` member runs exactly as execute_chunk builds them."""
    members = []
    for index in range(count):
        run_seed = derive_seed(config.seed, "run", index)
        plan = plan_faults(
            config, random.Random(derive_seed(run_seed, "plan"))
        )
        if duty is not None:
            plan = dataclasses.replace(plan, duty=duty)
        members.append(Run(index, run_seed, plan, adapter))
    return members


def _records_json(records: dict) -> str:
    return json.dumps(
        {str(k): records[k] for k in sorted(records)}, sort_keys=True
    )


def _from_reset(config: CampaignConfig, members: list[Run]) -> dict:
    """Each member's record from its own from-reset legs."""
    return {
        run.index: execute_safe(config, run, snapshot=False)
        for run in members
    }


def _differential(config: CampaignConfig, duty=None, count=6):
    """Assert batch == from-reset for one group; return the lane counters."""
    adapter = ChecksumAdapter()
    members = _members(config, count, adapter, duty=duty)
    before = tier_stats_snapshot()
    batched = execute_batch_group(config, members)
    lanes = tier_stats_delta(before)
    assert batched is not None, "engine fell back unexpectedly"
    assert _records_json(batched) == _records_json(_from_reset(config, members))
    return lanes


def _opsweep_config(**overrides) -> CampaignConfig:
    base = dict(
        app="rfid_firmware", runs=8, seed=777, workers=1,
        duration=0.4, modes=("op_index",),
        distance_range=(2.0, 2.0), fading_range=(0.0, 0.0),
        duty_chance=0.0,
    )
    base.update(overrides)
    return CampaignConfig(**base)


@pytest.mark.blockcache
def test_differential_fault_schedule_peel():
    """Schedules that fire mid-run peel; records still match bit-for-bit.

    Low op indices guarantee every lane's injection lands inside the
    executed window — the pure-peel regime, where the engine's replay
    must reproduce the from-reset leg exactly (checksums, reboot
    boundaries, observations).
    """
    lanes = _differential(_opsweep_config(min_ops=5, max_ops=400))
    assert lanes["lanes_packed"] == 6
    assert lanes["lanes_peeled"] > 0


@pytest.mark.blockcache
def test_differential_never_firing_sweep_clones():
    """Schedules sweeping past the executed window clone the leader."""
    lanes = _differential(
        _opsweep_config(min_ops=20_000, max_ops=90_000)
    )
    assert lanes["lanes_packed"] == 6
    assert lanes["lanes_peeled"] == 0  # pure clones


@pytest.mark.blockcache
def test_differential_organic_brownout_spans():
    """Mid-block organic brown-outs pause the leader at lane boundaries.

    A heavy workload at a marginal distance drains the capacitor
    mid-run, so the leader crosses several charge/discharge boundaries;
    peels must replay from the correct boundary snapshot (mid-block
    brown-out class) and clones must still match the from-reset leg.
    """
    lanes = _differential(
        _opsweep_config(
            duration=1.0, iterations=600,
            distance_range=(6.8, 6.8),
            min_ops=200, max_ops=20_000,
        )
    )
    assert lanes["batch_spans"] > 0


@pytest.mark.blockcache
def test_differential_duty_cycle_group():
    """Lanes sharing a duty-cycled environment stay bit-identical."""
    _differential(
        _opsweep_config(min_ops=50, max_ops=2_000), duty=(0.008, 0.6)
    )


@pytest.mark.blockcache
def test_differential_commit_boundary_writes():
    """commit_boundary mode: the write counter drives peel decisions."""
    lanes = _differential(
        _opsweep_config(modes=("commit_boundary",), min_ops=5, max_ops=400)
    )
    assert lanes["lanes_packed"] == 6


@pytest.mark.blockcache
def test_differential_self_modifying_shared_block():
    """The ISA firmware writes FRAM the translated blocks read.

    rfid_firmware's counters live in FRAM inside the translated
    region, so a peeled lane's replay re-executes writes that the
    leader also performed — the restore path must roll the shared
    memory image back exactly (the checksummed observation proves it).
    """
    lanes = _differential(
        _opsweep_config(
            modes=("commit_boundary",), iterations=200,
            min_ops=2, max_ops=40,
        )
    )
    assert lanes["lanes_peeled"] > 0


# -- campaign-level byte identity ------------------------------------------
@pytest.mark.batch_smoke
def test_campaign_report_identical_batch_on_off_from_reset():
    """One campaign, three execution paths, one set of report bytes."""
    config = CampaignConfig(
        app="rfid_firmware", runs=8, seed=2468, workers=1,
        duration=0.4, modes=("op_index", "commit_boundary"),
        distance_range=(1.8, 1.8), fading_range=(0.0, 0.0),
        duty_chance=0.0, shrink=False,
    )
    on_stats, off_stats = {}, {}
    on = json.dumps(
        run_campaign(config, batch=True, stats=on_stats), sort_keys=True
    )
    off = json.dumps(
        run_campaign(config, batch=False, stats=off_stats), sort_keys=True
    )
    from_reset = json.dumps(
        run_campaign(config, snapshot=False, batch=False), sort_keys=True
    )
    assert on == off == from_reset
    assert on_stats["lanes_packed"] > 0, "batch path never engaged"
    assert off_stats["lanes_packed"] == 0, "batch=False still batched"


_FRESH_OPSWEEP = """
import json, sys
from repro.campaign.config import CampaignConfig
from repro.campaign.scheduler import run_campaign
config = CampaignConfig(
    app="rfid_firmware", runs=8, seed=777, workers=1, duration=0.4,
    modes=("op_index",), distance_range=(2.0, 2.0),
    fading_range=(0.0, 0.0), duty_chance=0.0, shrink=False,
)
stats = {}
run_campaign(config, batch=True, stats=stats)
print(json.dumps({"lanes_packed": stats["lanes_packed"],
                  "numpy_imported": "numpy" in sys.modules}))
"""


def test_batched_campaign_never_imports_numpy():
    """A batched op-index campaign runs in a fresh interpreter sans NumPy.

    The lane engine is plain Python, and nothing on the campaign path
    imports NumPy to decide whether to batch.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_OPSWEEP],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["lanes_packed"] > 0
    assert not result["numpy_imported"]


def test_parallel_campaign_aggregates_worker_stats():
    """Pool workers' tier/lane tallies reach the stats sink.

    Until the chunk workers reported deltas, the CLI's tier summary was
    silently empty under ``--workers > 1``; this pins the aggregation
    path end to end (and that the counters stay out of the report).
    """
    config = CampaignConfig(
        app="rfid_firmware", runs=8, seed=99, workers=2, chunk=4,
        duration=0.4, modes=("op_index",),
        distance_range=(1.8, 1.8), fading_range=(0.0, 0.0),
        duty_chance=0.0, shrink=False,
    )
    stats = {}
    report = run_campaign(config, stats=stats)
    assert stats["blocks_executed"] > 0
    assert stats["lanes_packed"] > 0
    assert "stats" not in report
    assert "tier" not in json.dumps(report)


# -- the per-process leader memo -------------------------------------------
@pytest.fixture
def leader_runs(monkeypatch):
    """An empty leader memo, and what every fault-free pass returned.

    Each entry is a pass's ``(boundaries, observation, schedule)``;
    their count is the number of leaders actually run.
    """
    runs = []
    real_pass = forking.ForkSession.fault_free

    def counting_pass(session):
        runs.append(real_pass(session))
        return runs[-1]

    engine._leader_memo.clear()
    monkeypatch.setattr(forking.ForkSession, "fault_free", counting_pass)
    yield runs
    engine._leader_memo.clear()


#: A small ``isa_opsweep``: the leader pauses at an organic brown-out,
#: and a group has both peeled and cloned lanes.
_SWEEP_CONFIG = CampaignConfig(
    app="rfid_firmware", runs=8, seed=4242, workers=1, chunk=4,
    iterations=600, duration=1.0, modes=("op_index",),
    distance_range=(1.6, 1.6), fading_range=(0.0, 0.0), duty_chance=0.0,
    shrink=False, min_ops=2000, max_ops=60_000,
)


@pytest.mark.batch_smoke
def test_second_campaign_runs_no_leader(leader_runs):
    """A repeated campaign is served from the memo, byte for byte.

    The first campaign runs one leader for its first chunk and serves
    the second chunk from it; the second campaign (another seed, so
    other schedules over the same environment) runs none, and both
    render exactly what the from-reset path renders.
    """
    stats = {}
    first = run_campaign(_SWEEP_CONFIG, batch=True, stats=stats)
    assert len(leader_runs) == 1
    boundaries, _, _ = leader_runs[0]
    assert boundaries[:-1], "the leader never paused"
    assert 0 < stats["lanes_peeled"] < stats["lanes_packed"]
    again = dataclasses.replace(_SWEEP_CONFIG, seed=4243)
    stats = {}
    served = render_json(run_campaign(again, batch=True, stats=stats))
    assert len(leader_runs) == 1, "the second campaign ran a leader"
    assert stats["lanes_packed"] == again.runs
    assert served == render_json(
        run_campaign(again, snapshot=False, batch=False)
    )
    assert render_json(first) == render_json(
        run_campaign(_SWEEP_CONFIG, snapshot=False, batch=False)
    )


_KEY_CHANGES = {
    "protect": dict(protect=True),
    "iterations": dict(iterations=500),
    "duration": dict(duration=0.3),
    "max_cycles": dict(max_cycles=10**9),
    "max_wall_s": dict(max_wall_s=90.0),
    "mode": dict(modes=("commit_boundary",)),
    "distance": dict(distance_range=(1.9, 1.9)),
}


@pytest.mark.parametrize(
    "change",
    [*_KEY_CHANGES, "app", "adapter", "duty",
     "REPRO_NO_BLOCKCACHE", "REPRO_FORCE_DEOPT"],
)
def test_any_key_field_change_misses_the_memo(change, leader_runs, monkeypatch):
    """Each key field alone decides whether a stored leader serves."""
    monkeypatch.delenv("REPRO_NO_BLOCKCACHE", raising=False)
    monkeypatch.delenv("REPRO_FORCE_DEOPT", raising=False)
    adapter = ChecksumAdapter()
    assert execute_batch_group(
        _SWEEP_CONFIG, _members(_SWEEP_CONFIG, 3, adapter)
    ) is not None
    assert execute_batch_group(
        _SWEEP_CONFIG, _members(_SWEEP_CONFIG, 3, adapter)
    ) is not None
    assert len(leader_runs) == 1  # the unchanged key hits
    config, duty = _SWEEP_CONFIG, None
    if change in _KEY_CHANGES:
        config = dataclasses.replace(config, **_KEY_CHANGES[change])
    elif change == "app":
        config = dataclasses.replace(config, app="counter")
    elif change == "adapter":
        adapter = ChecksumAdapter()
    elif change == "duty":
        duty = (0.008, 0.6)
    else:
        monkeypatch.setenv(change, "1")
    execute_batch_group(config, _members(config, 3, adapter, duty=duty))
    assert len(leader_runs) == 2
    assert len(engine._leader_memo) == 2


def test_leader_that_drew_randomness_is_not_kept(leader_runs):
    """A fading environment draws from the hub: no records, no entry."""
    members = [
        run._replace(plan=dataclasses.replace(run.plan, fading_sigma=2.0))
        for run in _members(_SWEEP_CONFIG, 3, ChecksumAdapter())
    ]
    assert execute_batch_group(_SWEEP_CONFIG, members) is None
    assert len(leader_runs) == 1
    assert not engine._leader_memo


def test_leader_that_tripped_the_wall_clock_is_not_kept(
    leader_runs, monkeypatch
):
    """A wall-clock trip is host noise: the leader is never kept.

    Every lane fires at the first pause, before the host clock jumps
    and trips the leader's watchdog, so the group's records are still
    sound and match the from-reset path; only the leader is not kept.
    """
    jumped = []
    monkeypatch.setattr(
        watchdog, "time",
        type("Clock", (), {"monotonic": lambda: 1e6 if jumped else 0.0}),
    )
    real_capture = forking.ForkSession._capture_node

    def capture_then_jump(session, boots):
        # The node after the first pause: the device is dark there, and
        # lit at every mid-boot node captured before it.
        if boots and not session.target.power.is_on:
            jumped.append(True)
        return real_capture(session, boots)

    monkeypatch.setattr(forking.ForkSession, "_capture_node", capture_then_jump)
    config = dataclasses.replace(_SWEEP_CONFIG, max_wall_s=60.0)
    members = [
        run._replace(plan=dataclasses.replace(run.plan, ops_schedule=schedule))
        for run, schedule in zip(
            _members(config, 3, ChecksumAdapter()),
            [(1000,), (2000, 500), (3000,)],
        )
    ]
    batched = execute_batch_group(config, members)
    _, observation, _ = leader_runs[0]
    assert observation.status == "nonterminating"
    assert "wall-clock" in observation.detail
    assert not engine._leader_memo
    assert batched is not None
    assert _records_json(batched) == _records_json(
        _from_reset(config, members)
    )


@pytest.fixture
def sessions_built(monkeypatch):
    """The arguments of every :class:`ForkSession` built, in order."""
    built = []
    real_init = forking.ForkSession.__init__

    def counting_init(session, *args, **kwargs):
        built.append(args)
        real_init(session, *args, **kwargs)

    monkeypatch.setattr(forking.ForkSession, "__init__", counting_init)
    return built


#: The chunk of :data:`_SWEEP_CONFIG` whose four runs form one group.
_SWEEP_CHUNK = list(range(_SWEEP_CONFIG.chunk))


def test_foreign_stop_sends_the_group_from_reset(
    leader_runs, sessions_built, monkeypatch
):
    """A stop request the session did not make owns the run.

    The request lands right after the first node a session captures
    past flash.  The lane engine gives its group up and keeps no
    leader; the chunk builds no second session and runs every member
    from reset, recording what the from-reset path records.
    """
    real_capture = forking.ForkSession._capture_node

    def capture_then_stop(session, boots):
        if boots:
            session.sim.request_stop("debugger")
        return real_capture(session, boots)

    monkeypatch.setattr(forking.ForkSession, "_capture_node", capture_then_stop)
    from_reset = []
    real_safe = forking.execute_safe

    def counting_safe(config, run, *, snapshot):
        from_reset.append(run.index)
        return real_safe(config, run, snapshot=snapshot)

    monkeypatch.setattr(forking, "execute_safe", counting_safe)
    records = execute_chunk(_SWEEP_CONFIG, _SWEEP_CHUNK)
    assert len(sessions_built) == 1, "a second session served the group"
    assert len(leader_runs) == 0 and not engine._leader_memo
    assert from_reset == _SWEEP_CHUNK
    assert records == [
        real_safe(_SWEEP_CONFIG, run, snapshot=False)
        for run in planned_runs(_SWEEP_CONFIG, _SWEEP_CHUNK)
    ]


def test_one_foreign_stop_mid_boot_is_not_lost(
    leader_runs, sessions_built, monkeypatch
):
    """A single foreign stop inside boot 0 still owns the leader pass.

    The request lands once, at the leader's first mid-boot node (the
    device is powered there), and is never repeated.  The pass's own
    pause at the next power-off must not write over it: the lane engine
    gives the group up, keeps no leader, and the chunk renders what the
    from-reset path renders.
    """
    real_capture = forking.ForkSession._capture_node
    requested = []

    def capture_then_stop_once(session, boots):
        if not requested and session.target.power.is_on and boots:
            requested.append(session.target.boot_units)
            session.sim.request_stop("debugger")
        return real_capture(session, boots)

    monkeypatch.setattr(
        forking.ForkSession, "_capture_node", capture_then_stop_once
    )
    records = execute_chunk(_SWEEP_CONFIG, _SWEEP_CHUNK)
    assert requested and requested[0] >= forking.MID_BOOT_SPACING
    assert len(sessions_built) == 1
    assert len(leader_runs) == 0 and not engine._leader_memo
    assert records == [
        execute_safe(_SWEEP_CONFIG, run, snapshot=False)
        for run in planned_runs(_SWEEP_CONFIG, _SWEEP_CHUNK)
    ]


def test_tainted_entry_is_dropped_and_its_group_falls_back(leader_runs):
    """A draw on a stored leader's hub evicts it; the chunk still matches.

    The draw stands in for any replay that consumed randomness: the
    sticky RNG check fails after the group's replays, the entry goes,
    and the group runs from reset instead.
    """
    config = dataclasses.replace(_SWEEP_CONFIG, runs=4)
    indices = list(range(4))
    execute_chunk(config, indices)
    ((session, *_),) = engine._leader_memo.values()
    session.sim.rng.uniform("taint", 0.0, 1.0)
    before = tier_stats_snapshot()
    tainted = execute_chunk(config, indices)
    assert tier_stats_delta(before)["lanes_packed"] == 0  # fell back
    assert not engine._leader_memo
    assert tainted == execute_chunk(config, indices, path="warm")
    assert len(leader_runs) == 1


def test_memoised_leader_session_stays_bounded(leader_runs):
    """Peel replays leave nothing behind in a session kept per process.

    One leader session serves several groups in a row, every one of
    which peels lanes; the nodes it stores stay the same count after
    each group.
    """
    adapter = ChecksumAdapter()
    sizes = []
    for shift in range(3):
        members = [
            run._replace(
                plan=dataclasses.replace(run.plan, ops_schedule=schedule)
            )
            for run, schedule in zip(
                _members(_SWEEP_CONFIG, 3, adapter),
                [(1000 + shift,), (2000, 500 + shift), (90_000,)],
            )
        ]
        before = tier_stats_snapshot()
        assert execute_batch_group(_SWEEP_CONFIG, members) is not None
        assert tier_stats_delta(before)["lanes_peeled"] == 2
        ((session, *_),) = engine._leader_memo.values()
        sizes.append(
            len(session._boots) + sum(len(nodes) for nodes in session._mid)
        )
    assert len(leader_runs) == 1
    assert sizes == [sizes[0]] * len(sizes)


@pytest.mark.parametrize("mode", ["op_index", "commit_boundary"])
def test_boot_nodes_hold_the_from_reset_injector_state(mode):
    """A peel resumes with exactly the injector a from-reset leg holds.

    At the node a fault-free boot began from, a from-reset op-index
    injector has consumed one schedule entry per completed boot and
    injected nothing; a from-reset commit trigger has counted every FRAM
    write and consumed no count.  The pass's inert injector holds
    exactly that state, so ``execute`` restores it as captured.
    """
    config = dataclasses.replace(_SWEEP_CONFIG, modes=(mode,))
    (run,) = _members(config, 1, ChecksumAdapter())
    session = forking.ForkSession(
        config, run.adapter, run.plan, derive_seed(run.seed, "intermittent")
    )
    boundaries, _, _ = session.fault_free()
    assert len(session._boots) == len(boundaries) > 1
    for node, boundary in zip(session._boots[1:], boundaries):
        _, injector_state, (completed, started), _, _ = node
        assert started and len(completed) == boundary[0]
        if mode == "op_index":
            assert injector_state == (len(completed), 0)
        else:
            assert injector_state == (0, boundary[2], 0)


# -- mid-boot nodes ----------------------------------------------------------
def _with_schedule(run: Run, schedule) -> Run:
    field = (
        "commit_counts" if run.plan.mode == "commit_boundary"
        else "ops_schedule"
    )
    return run._replace(
        plan=dataclasses.replace(run.plan, **{field: tuple(schedule)})
    )


@pytest.mark.blockcache
@pytest.mark.parametrize("mode", ["op_index", "commit_boundary"])
def test_mid_boot_peels_match_scalar_and_from_reset(mode, leader_runs):
    """Peels pick the last mid-boot node strictly before their firing point.

    The lanes fire before the boot's first mid-boot node, exactly at a
    node's position (served by the node before it), one past it (served
    by it), inside the second boot, and once more with further entries
    after the first injection.  The position is the boot's work units on
    the op-index axis and the cumulative FRAM write tally on the commit
    axis.  Every record equals the from-reset leg's, and the tallies
    name the nodes the peels took.
    """
    config = dataclasses.replace(_SWEEP_CONFIG, modes=(mode,))
    adapter = ChecksumAdapter()
    runs = _members(config, 5, adapter)
    probe = forking.ForkSession(
        config, adapter, runs[0].plan, derive_seed(runs[0].seed, "intermittent")
    )
    boundaries, _, _ = probe.fault_free()
    axis = 1 if mode == "commit_boundary" else 0
    (u0, *_), (u1, *_) = probe._mid[0][:2]
    (v1, *_) = probe._mid[1][1]
    p0, p1 = probe._mid[0][0][axis], probe._mid[0][1][axis]
    q1 = probe._mid[1][1][axis]
    if mode == "commit_boundary":
        later = (q1 + 1,)
        more = (p1 + 1, p1 + 40, boundaries[0][2] + 10)
    else:
        later = (boundaries[0][1] + 1, q1 + 1)
        more = (p1 + 1, 700, 1500)
    schedules = [(p0 // 2,), (p1,), (p1 + 1,), later, more]
    members = [_with_schedule(run, s) for run, s in zip(runs, schedules)]
    before = tier_stats_snapshot()
    batched = execute_batch_group(config, members)
    lanes = tier_stats_delta(before)
    assert batched is not None
    assert _records_json(batched) == _records_json(
        _from_reset(config, members)
    )
    assert lanes["lanes_peeled"] == 5
    assert lanes["peels_mid_boot"] == 4
    assert lanes["peel_units_skipped"] == u0 + u1 + v1 + u1


def test_mid_boot_nodes_only_for_programs_that_resume_there():
    """An ISA firmware keeps spaced mid-boot nodes; a Python app none.

    A high-level app's boot is a Python call stack, which no snapshot
    holds.  Either way the probe is gone once the pass ends, so later
    runs on the session pay nothing for it.
    """
    for app, kept in (("rfid_firmware", True), ("counter", False)):
        config = dataclasses.replace(_SWEEP_CONFIG, app=app)
        (run,) = _members(config, 1, get_adapter(app))
        session = forking.ForkSession(
            config, run.adapter, run.plan, derive_seed(run.seed, "intermittent")
        )
        session.fault_free()
        assert session.target.cpu.between_blocks is None
        nodes = [node for boot in session._mid for node in boot]
        assert bool(nodes) is kept
        for boot in session._mid:
            units = [entry[0] for entry in boot]
            assert units == sorted(units)
            assert all(
                later // forking.MID_BOOT_SPACING
                > earlier // forking.MID_BOOT_SPACING
                for earlier, later in zip([0, *units], units)
            )


@pytest.mark.batch_smoke
def test_campaign_peels_from_mid_boot_nodes():
    """An op-index sweep peels from mid-boot nodes, byte for byte."""
    stats = {}
    batched = render_json(run_campaign(_SWEEP_CONFIG, batch=True, stats=stats))
    assert stats["peels_mid_boot"] > 0
    assert (
        stats["peel_units_skipped"]
        >= forking.MID_BOOT_SPACING * stats["peels_mid_boot"]
    )
    assert batched == render_json(
        run_campaign(_SWEEP_CONFIG, snapshot=False, batch=False)
    )


def test_control_leg_memo_keys_on_the_adapter():
    """Two adapters sharing a name each get their own control leg."""
    config = dataclasses.replace(_SWEEP_CONFIG, seed=5151)
    forking._continuous_memo.clear()
    stock = forking.continuous_observation(config, get_adapter(config.app), 1)
    checked = forking.continuous_observation(config, ChecksumAdapter(), 2)
    forking._continuous_memo.clear()
    assert "fram_fletcher16" not in stock.observables
    assert "fram_fletcher16" in checked.observables
