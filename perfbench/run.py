"""The repository's benchmark: four workloads, host-speed-normalised.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with no tracing installed, for ``--seconds``; ``--trace 1`` is a
separate run that wraps each layer's public functions and reports
per-layer metrics over a fixed number of samples, so that its counts
repeat exactly for a seed.  The
last line of standard output is the result object; the line before it
is an audit record (provenance, and the raw wall and calibration time
behind every normalised number).

Every timing is ``raw * CAL_REF_S / cal`` where ``cal`` is the mean of
the calibration kernel run just before and just after the sample in
the same process (see ``calibration.py``).  All load comes from this one
process, with no pool workers; the child processes of ``probe.py`` (the
cold starts behind ``setup_s``, and the untraced twin of a traced run)
run one at a time while this process waits.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"

#: Cold starts per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Leading samples re-run on the from-reset reference path (a fresh
#: seed every run, so the runs of a set cover many configs).
REFERENCE_SAMPLES = 1
#: A cold start that takes longer than this is a failure, not a sample.
PROBE_TIMEOUT_S = 60


def _refuse_tier_switches() -> str | None:
    """The benchmark measures the default execution path only."""
    for name in sorted(os.environ):
        if name.startswith("REPRO_NO_") or name == "REPRO_FORCE_DEOPT":
            return name
    return None


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload: str, seed: int, trace: int) -> dict:
    """What was measured, on what: revision, source digest, versions, host."""
    revision = dirty = None
    if (ROOT / ".git").exists():
        revision = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cal_ref_s": calibration.CAL_REF_S,
    }


class Sample:
    """One timed unit: raw wall time, its calibration bracket, its outcome."""

    def __init__(self, raw: float, cal_before: float, cal_after: float, outcome):
        self.raw = raw
        self.cal_before = cal_before
        self.cal_after = cal_after
        self.factor = calibration.factor(cal_before, cal_after)
        self.norm = raw * self.factor
        self.outcome = outcome

    def audit(self) -> list:
        return [self.raw, self.cal_before, self.cal_after, self.norm]


def timed_sample(workload, spec) -> Sample:
    gc.collect()
    cal_before = calibration.calibrate()
    start = time.perf_counter()
    result = workload.run(spec)
    raw = time.perf_counter() - start
    cal_after = calibration.calibrate()
    return Sample(raw, cal_before, cal_after, workload.check(spec, result))


def _probe(mode: str, name: str, seed: int) -> list[str]:
    return [
        sys.executable, str(HERE / "probe.py"), "--mode", mode,
        "--workload", name, "--seed", str(seed),
    ]


def measure_setup(name: str, seed: int) -> tuple[list[list], bool]:
    """Cold starts until the first sample could begin, one at a time."""
    rows = []
    ok = True
    for _ in range(SETUP_PROBES):
        gc.collect()
        start = time.perf_counter()
        with subprocess.Popen(
            _probe("setup", name, seed), stdout=subprocess.PIPE, text=True
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                child.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        try:
            cal_before, cal_after = json.loads(line)["cal"]
        except (ValueError, KeyError, TypeError):
            ok = False
            continue
        ok = ok and child.returncode == 0
        raw = elapsed - cal_before - cal_after
        norm = raw * calibration.factor(cal_before, cal_after)
        rows.append([raw, cal_before, cal_after, norm])
    return rows, ok and bool(rows)


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _trimmed_mean(values: list[float], share: float = 0.1) -> float:
    """The mean with the lowest and highest ``share`` of values dropped.

    Robust to the odd sample a host hiccup slows, yet it uses more of the
    data than the median, so it repeats closer across seeds.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _sum_counters(samples: list[Sample]) -> dict[str, int]:
    total: dict[str, int] = {}
    for sample in samples:
        for key, value in sample.outcome.counters.items():
            total[key] = total.get(key, 0) + value
    return total


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """The untraced run: set-up probes, the timed window, the checks."""
    phases = {"start": time.perf_counter()}
    setup_rows, setup_ok = measure_setup(workload.name, seed)
    phases["setup_probes"] = time.perf_counter()
    workload.load(WORKDIR)
    workload.warm_up(seed)
    phases["warm_up"] = time.perf_counter()

    samples: list[Sample] = []
    checked = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        spec = workload.spec(seed, len(samples))
        sample = timed_sample(workload, spec)
        # Only the leading samples are re-checked; holding every input
        # and output would inflate the peak RSS this run reports.
        if len(samples) < REFERENCE_SAMPLES:
            checked.append((spec, sample))
        else:
            sample.outcome.artifact = None
        samples.append(sample)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases["window"] = time.perf_counter()

    reference_failed = 0
    for spec, sample in checked:
        failed = workload.reference(spec, sample.outcome)
        sample.outcome.failed = max(sample.outcome.failed, failed)
        reference_failed += failed
    phases["reference"] = time.perf_counter()

    attempted = sum(s.outcome.units for s in samples)
    failed = sum(s.outcome.failed for s in samples)
    rates = [s.outcome.units / s.norm for s in samples]
    if workload.unit == "session":
        latencies = [
            raw * s.factor for s in samples for raw in s.outcome.latencies
        ]
        raw_latencies = [raw for s in samples for raw in s.outcome.latencies]
        latency_name = "mem.read"
    else:
        latencies = [s.norm for s in samples]
        raw_latencies = [s.raw for s in samples]
        latency_name = "campaign"
    setup_norm = [row[3] for row in setup_rows]
    metrics = {
        "setup_s": (statistics.median(setup_norm) if setup_norm else 0.0, "s"),
        "runs_per_s": (_trimmed_mean(rates), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (_quantile(latencies, 90) * 1e3, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    first = samples[: workload.trace_samples]
    audit = {
        "unit": workload.unit,
        "setup_probes": {"columns": ["raw_s", "cal_before_s", "cal_after_s",
                                     "norm_s"], "rows": setup_rows},
        "samples": {"columns": ["raw_s", "cal_before_s", "cal_after_s",
                                "norm_s"], "rows": [s.audit() for s in samples]},
        "latency": {
            "request": latency_name,
            "count": len(latencies),
            "raw_p50_ms": statistics.median(raw_latencies) * 1e3,
            "raw_p90_ms": _quantile(raw_latencies, 90) * 1e3,
            "cal_median_s": statistics.median(
                (s.cal_before + s.cal_after) / 2 for s in samples
            ),
        },
        "reference_failed": reference_failed,
        "phase_wall_s": {
            name: phases[name] - previous
            for previous, name in zip(phases.values(), list(phases)[1:])
        },
        "counters_first_samples": {
            "samples": len(first), "counters": _sum_counters(first),
        },
    }
    status = {
        "correct": failed == 0 and setup_ok,
        "attempted": attempted,
        "failed": failed,
    }
    return status, metrics, audit


def traced(workload, seed: int) -> tuple[dict, dict, dict]:
    """The traced run, checked against an untraced twin process.

    The twin runs the same fixed samples after the same warm-up with no
    tracing; its counters and output digests must equal the traced
    ones, which shows that tracing did not change what ran.
    """
    import tracing

    done = subprocess.run(
        _probe("untraced", workload.name, seed), stdout=subprocess.PIPE,
        text=True, timeout=PROBE_TIMEOUT_S * 2,
    )
    lines = done.stdout.splitlines() if done.returncode == 0 else []
    untraced = json.loads(lines[-1]) if lines else []

    workload.load(WORKDIR)
    workload.warm_up(seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        samples = []
        for index in range(workload.trace_samples):
            tracer.run = index
            samples.append(timed_sample(workload, workload.spec(seed, index)))
    finally:
        tracer.uninstall()
    tracer.write(WORKDIR / f"spans-{workload.name}-{seed}.jsonl")

    mismatched = [
        index for index, sample in enumerate(samples)
        if index >= len(untraced)
        or untraced[index]["counters"] != sample.outcome.counters
        or untraced[index]["digest"] != workloads.digest(sample.outcome.artifact)
    ]
    counters = _sum_counters(samples)
    untraced_norm = sum(row["audit"][3] for row in untraced)
    overhead = sum(s.norm for s in samples) / untraced_norm if untraced else 0.0
    factors = {index: s.factor for index, s in enumerate(samples)}
    metrics = tracing.per_layer_metrics(tracer, factors, counters, overhead)
    attempted = sum(s.outcome.units for s in samples)
    failed = sum(s.outcome.failed for s in samples) + sum(
        row["failed"] for row in untraced
    )
    audit = {
        "unit": workload.unit,
        "untraced": [row["audit"] for row in untraced],
        "traced": [s.audit() for s in samples],
        "spans": len(tracer.spans),
        "counters": counters,
        "mismatched_samples": mismatched,
    }
    status = {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
    }
    return status, metrics, audit


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    switch = _refuse_tier_switches()
    if switch is not None:
        print(f"error: {switch} is set; the benchmark measures the default "
              f"execution path only", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)

    workload = workloads.make(args.workload)
    if args.trace:
        status, metrics, audit = traced(workload, args.seed)
    else:
        status, metrics, audit = end_to_end(workload, args.seed, args.seconds)
    audit["provenance"] = provenance(args.workload, args.seed, args.trace)
    print(json.dumps({"audit": audit}))
    print(json.dumps({
        **status,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
