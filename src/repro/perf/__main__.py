"""CLI for the perf harness.

Examples::

    python -m repro.perf                         # run, write BENCH_perf.json
    python -m repro.perf --check                 # fail on >30% regression
    python -m repro.perf --write-baseline        # refresh the committed baseline
    python -m repro.perf --check --quick         # fast CI-style gate

The output JSON is machine-readable: per-benchmark throughput plus, when
a baseline or a ``--before`` snapshot is available, the speedup ratios.

``--check`` compares each benchmark against the *best* available
reference — the committed baseline or, when ``--before`` is given, the
faster of the two — so an optimisation PR cannot "pass" by regressing
against its own pre-change snapshot while still beating a stale
baseline.  The failure message lists every benchmark's delta.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from repro.mcu.device import dispatch_mode
from repro.perf.harness import BENCHMARKS, run_all

#: Allowed slowdown versus the reference before --check fails.
REGRESSION_TOLERANCE = 0.30

#: Tolerance used with ``--quick``: tiny workloads amortise fixed setup
#: badly and time noisily, so the smoke gate only catches gross cliffs.
QUICK_TOLERANCE = 0.60

#: Workload scale used with ``--quick`` when --scale is not given.
#: Not lower: the campaign benchmarks amortise per-campaign work
#: (adapter setup, the memoized continuous control leg) across their
#: runs, so tiny runs-counts measure amortisation, not execution.
QUICK_SCALE = 0.5

DEFAULT_BASELINE = Path("benchmarks") / "perf_baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Benchmark the simulator hot paths.",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="workload-size multiplier (default 1.0)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small fixed workload (--scale 0.1) with a relaxed "
             "tolerance for --check: a fast smoke gate, not a "
             "measurement",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="repetitions per benchmark; the fastest is kept (default 1)",
    )
    parser.add_argument(
        "--out", default="BENCH_perf.json",
        help="output JSON path (default BENCH_perf.json in the CWD)",
    )
    parser.add_argument(
        "--baseline", default=str(DEFAULT_BASELINE),
        help="committed baseline JSON for --check / ratio reporting",
    )
    parser.add_argument(
        "--before", default=None,
        help="optional pre-optimisation snapshot to embed as 'before'",
    )
    parser.add_argument(
        "--check", action="store_true",
        # argparse %-formats help strings: the trailing '%' doubles the
        # percent sign the format spec prints.
        help=f"exit non-zero if any metric regresses more than "
             f"{REGRESSION_TOLERANCE:.0%}% against the baseline",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="also write the results to the baseline path",
    )
    parser.add_argument(
        "--profile", metavar="NAME", default=None,
        choices=sorted(BENCHMARKS),
        help="run one benchmark under cProfile and print the top-20 "
             f"cumulative hotspots (one of: {', '.join(sorted(BENCHMARKS))})",
    )
    return parser


def _git(*args: str) -> str | None:
    """A git command's stripped output in this checkout, or None."""
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _host_stanza() -> dict:
    """Provenance for BENCH_* trajectory comparisons across machines.

    ``git_dirty`` says whether tracked files differed from
    ``git_revision`` when the numbers were taken (None outside a
    checkout), so a result measured on uncommitted edits is not
    mistaken for one of the named revision.
    """
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_revision": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "dispatch": dispatch_mode(),
    }


def _profile(name: str, scale: float) -> int:
    """Run one benchmark under cProfile; print top-20 cumulative."""
    import cProfile
    import pstats

    bench = BENCHMARKS[name]
    profiler = cProfile.Profile()
    profiler.enable()
    result = bench(scale)
    profiler.disable()
    print(f"{name}: {result.value:.1f} {result.unit} (under profiler)\n")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(20)
    return 0


def _load_results(path: str | Path) -> dict | None:
    path = Path(path)
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    return data.get("results", data)


def _ratios(current: dict, reference: dict | None) -> dict:
    if not reference:
        return {}
    ratios = {}
    for name, result in current.items():
        ref = reference.get(name)
        if ref and ref.get("value"):
            ratios[name] = result["value"] / ref["value"]
    return ratios


def _check(results: dict, baseline: dict | None, before: dict | None,
           tolerance: float) -> list[str]:
    """Per-benchmark deltas against max(baseline, before); never empty.

    Returns the report lines, prefixed ``FAIL`` for any benchmark that
    regressed more than ``tolerance`` against its best reference.
    """
    lines = []
    for name in sorted(results):
        candidates = []
        for ref_name, reference in (("baseline", baseline), ("before", before)):
            value = (reference or {}).get(name, {}).get("value")
            if value:
                candidates.append((value, ref_name))
        if not candidates:
            lines.append(f"  ....  {name}: no reference value")
            continue
        ref_value, ref_name = max(candidates)
        ratio = results[name]["value"] / ref_value
        verdict = "FAIL" if ratio < 1.0 - tolerance else "  ok"
        lines.append(
            f"  {verdict}  {name}: {results[name]['value']:.1f} vs "
            f"{ref_value:.1f} ({ref_name}) -> {ratio:.2f}x "
            f"({(ratio - 1.0) * 100.0:+.1f}%)"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scale = args.scale if args.scale is not None else (
        QUICK_SCALE if args.quick else 1.0
    )
    if args.profile is not None:
        return _profile(args.profile, scale)
    results = {
        name: r.to_dict() for name, r in
        run_all(scale=scale, repeats=args.repeats).items()
    }
    baseline = _load_results(args.baseline)
    before = _load_results(args.before) if args.before else None
    payload = {
        "schema": 1,
        "host": _host_stanza(),
        "results": results,
    }
    if before is not None:
        payload["before"] = before
        payload["speedup_vs_before"] = _ratios(results, before)
    if baseline is not None:
        payload["vs_baseline"] = _ratios(results, baseline)

    out = Path(args.out)
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    for name, result in sorted(results.items()):
        line = f"{name:>18}: {result['value']:>12.1f} {result['unit']}"
        if name in payload.get("vs_baseline", {}):
            line += f"  ({payload['vs_baseline'][name]:.2f}x baseline)"
        print(line)
    print(f"wrote {out}")

    if args.write_baseline:
        base_path = Path(args.baseline)
        base_path.parent.mkdir(parents=True, exist_ok=True)
        base_path.write_text(
            json.dumps({"schema": 1, "results": results},
                       sort_keys=True, indent=2) + "\n"
        )
        print(f"wrote baseline {base_path}")

    if args.check:
        if baseline is None:
            print(f"error: no baseline at {args.baseline}", file=sys.stderr)
            return 2
        tolerance = QUICK_TOLERANCE if args.quick else REGRESSION_TOLERANCE
        lines = _check(results, baseline, before, tolerance)
        if any(line.lstrip().startswith("FAIL") for line in lines):
            print(
                "perf regression (tolerance "
                f"{tolerance:.0%}, vs max(baseline, before)):\n"
                + "\n".join(lines),
                file=sys.stderr,
            )
            return 1
        print(f"perf check passed (tolerance {tolerance:.0%}):")
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
