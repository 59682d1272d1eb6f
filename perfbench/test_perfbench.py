"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Each test drives ``run.py`` through its command line, with short
windows, from the root of the checkout.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer counters the workloads are predicted to leave at zero: the
#: "no change predicted" side of each mechanism (see BENCHMARK.json).
ZERO_ON = {
    "wisp_campaign": (
        "mcu.cpu.blocks_translated", "mcu.cpu.blocks_executed",
        "mcu.cpu.traces_executed", "batch.lanes_packed", "batch.lanes_peeled",
        "batch.clone_ratio", "batch.group_s",
    ),
    "fuzz_rfid": (
        "batch.lanes_packed", "batch.lanes_peeled", "batch.clone_ratio",
        "batch.group_s",
    ),
}


def _invoke(workload: str, seed: int, trace: int, seconds: float = 1,
            cwd: Path = ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900, env=env,
    )


@functools.lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, seconds: float = 1):
    """(result, audit) of one benchmark run; cached per argument set."""
    done = _invoke(workload, seed, trace, seconds)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["audit"]


def _declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_end_to_end_metrics_match_declaration(workload):
    result, audit = bench(workload, 3, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert audit["provenance"]["workload"] == workload
    assert audit["provenance"]["seed"] == 3


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_per_layer_metrics_match_declaration(workload):
    result, audit = bench(workload, 3, 1)
    assert result["correct"] is True, audit["mismatched_samples"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared("per_layer")
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_seed_changes_the_generated_inputs(workload):
    wl = workloads.make(workload)
    assert wl.spec(1, 0) == wl.spec(1, 0)
    assert wl.spec(1, 0) != wl.spec(2, 0)
    assert wl.spec(1, 0) != wl.spec(1, 1)


def test_per_layer_counts_repeat_for_the_same_seed():
    first, _ = bench("isa_opsweep", 5, 1)
    again = _invoke("isa_opsweep", 5, 1)
    assert again.returncode == 0, again.stderr
    second = json.loads(again.stdout.strip().splitlines()[-1])
    deterministic = [
        name for name, unit in _declared("per_layer").items()
        if unit != "s" and name != "trace.overhead_ratio"
    ]
    for name in deterministic:
        assert first["metrics"][name] == second["metrics"][name], name


def test_traced_counters_equal_the_untraced_invocation():
    wl = workloads.make("wisp_campaign")
    _, untraced = bench("wisp_campaign", 3, 0, seconds=4)
    _, traced = bench("wisp_campaign", 3, 1)
    first = untraced["counters_first_samples"]
    assert first["samples"] == wl.trace_samples
    assert first["counters"] == traced["counters"]


@pytest.mark.parametrize("workload", sorted(ZERO_ON))
def test_bypass_predictions_hold(workload):
    result, _ = bench(workload, 3, 1)
    for name in ZERO_ON[workload]:
        assert result["metrics"][name]["value"] == 0, name


def test_lanes_clone_on_the_opsweep():
    result, _ = bench("isa_opsweep", 3, 1)
    assert result["metrics"]["batch.clone_ratio"]["value"] > 0


def test_refuses_tier_kill_switches():
    env = {**os.environ, "REPRO_NO_BATCH": "1"}
    done = _invoke("wisp_campaign", 1, 0, env=env)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _invoke("wisp_campaign", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
