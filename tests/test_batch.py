"""Lane engine (``repro.batch``): lane-vs-scalar bit-identity properties.

The batch engine's contract is that it is *invisible* in the records: a
campaign produces byte-identical reports with batching on or off.  The
tests here pin that contract for the leader/peel/clone engine against
the scalar fork group on every divergence class the engine can meet
(fault-schedule hits, organic mid-run brown-outs, commit-boundary
writes, never-firing sweeps), and pin that the engine needs no
optional package.
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

from repro.batch.engine import execute_batch_group
from repro.campaign.apps import get_adapter
from repro.campaign.config import CampaignConfig
from repro.campaign.faults import plan_faults
from repro.campaign.forking import _execute_group
from repro.campaign.runner import tier_stats_delta, tier_stats_snapshot
from repro.campaign.scheduler import run_campaign
from repro.mcu.memory import FRAM_BASE, FRAM_SIZE
from repro.runtime.checkpoint import fletcher16
from repro.sim.rng import derive_seed


# -- the leader/peel/clone engine vs the scalar fork group -----------------
class ChecksumAdapter:
    """rfid_firmware with FRAM checksums folded into every observation.

    Wrapping the observation makes the differential tests sensitive to
    *any* end-state memory divergence between the lane engine and the
    scalar path, not just the handful of words the stock adapter reads.
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


def _members(config: CampaignConfig, count: int, duty=None):
    """The first ``count`` member tuples exactly as execute_chunk builds them."""
    members = []
    for index in range(count):
        run_seed = derive_seed(config.seed, "run", index)
        plan = plan_faults(
            config, random.Random(derive_seed(run_seed, "plan"))
        )
        if duty is not None:
            plan = dataclasses.replace(plan, duty=duty)
        members.append((index, run_seed, plan))
    return members


def _records_json(records: dict) -> str:
    return json.dumps(
        {str(k): records[k] for k in sorted(records)}, sort_keys=True
    )


def _differential(config: CampaignConfig, duty=None, count=6):
    """Assert batch == scalar for one group; return the lane counters."""
    adapter = ChecksumAdapter()
    members = _members(config, count, duty=duty)
    before = tier_stats_snapshot()
    batched = execute_batch_group(config, adapter, members)
    lanes = tier_stats_delta(before)
    assert batched is not None, "engine fell back unexpectedly"
    scalar = _execute_group(config, adapter, members)
    assert _records_json(batched) == _records_json(scalar)
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


def test_differential_fault_schedule_peel():
    """Schedules that fire mid-run peel; records still match bit-for-bit.

    Low op indices guarantee every lane's injection lands inside the
    executed window — the pure-peel regime, where the engine's replay
    must reproduce the scalar leg exactly (checksums, reboot
    boundaries, observations).
    """
    lanes = _differential(_opsweep_config(min_ops=5, max_ops=400))
    assert lanes["lanes_packed"] == 6
    assert lanes["lanes_peeled"] > 0


def test_differential_never_firing_sweep_clones():
    """Schedules sweeping past the executed window clone the leader."""
    lanes = _differential(
        _opsweep_config(min_ops=20_000, max_ops=90_000)
    )
    assert lanes["lanes_packed"] == 6
    assert lanes["lanes_peeled"] == 0  # pure clones


def test_differential_organic_brownout_spans():
    """Mid-block organic brown-outs pause the leader at lane boundaries.

    A heavy workload at a marginal distance drains the capacitor
    mid-run, so the leader crosses several charge/discharge boundaries;
    peels must replay from the correct boundary snapshot (mid-block
    brown-out class) and clones must still match the scalar leg.
    """
    lanes = _differential(
        _opsweep_config(
            duration=1.0, iterations=600,
            distance_range=(6.8, 6.8),
            min_ops=200, max_ops=20_000,
        )
    )
    assert lanes["batch_spans"] > 0


def test_differential_duty_cycle_group():
    """Lanes sharing a duty-cycled environment stay bit-identical."""
    _differential(
        _opsweep_config(min_ops=50, max_ops=2_000), duty=(0.008, 0.6)
    )


def test_differential_commit_boundary_writes():
    """commit_boundary mode: the write counter drives peel decisions."""
    lanes = _differential(
        _opsweep_config(modes=("commit_boundary",), min_ops=5, max_ops=400)
    )
    assert lanes["lanes_packed"] == 6


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
