"""Child processes of ``run.py``, started one at a time.

``--mode setup``: one cold start.  A fresh interpreter imports the
program, builds the workload's adapter (or debug service), runs the
warm-up that fills the decode caches and the continuous-leg memos, and
prints ``ready`` with the two calibration times it measured first thing
after starting and last thing before that line; the parent times it
from spawn to that line, minus the calibration runs.  Calibrating here
rather than in the waiting parent matters: a process that has just
woken from a wait runs the kernel slowly for a few milliseconds.

``--mode untraced``: the untraced twin of a traced run.  After the same
warm-up it runs the traced run's fixed samples with no tracing and
prints, per sample, the timing, the deterministic counters and a digest
of the output.  Both passes start from a fresh process, so in-process
memos left by one pass cannot make the other do less work.

    python3 perfbench/probe.py --mode setup|untraced --workload NAME --seed N
"""

from __future__ import annotations

import argparse
import json
import sys

import calibration
import run
import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", required=True, choices=("setup", "untraced"))
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    cal_before = calibration.calibrate() if args.mode == "setup" else 0.0
    sys.path.insert(0, str(run.SRC))
    workdir = run.WORKDIR / "probe"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload)
    workload.load(workdir)
    workload.warm_up(args.seed)
    if args.mode == "setup":
        cal_after = calibration.calibrate()
        print(json.dumps({"ready": True, "cal": [cal_before, cal_after]}),
              flush=True)
        return
    rows = []
    for index in range(workload.trace_samples):
        sample = run.timed_sample(workload, workload.spec(args.seed, index))
        outcome = sample.outcome
        rows.append({
            "audit": sample.audit(),
            "units": outcome.units,
            "failed": outcome.failed,
            "counters": outcome.counters,
            "digest": workloads.digest(outcome.artifact),
        })
    print(json.dumps(rows), flush=True)


if __name__ == "__main__":
    main()
