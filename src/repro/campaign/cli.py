"""Command-line front end: ``python -m repro.campaign``.

Example::

    python -m repro.campaign --app linked_list --runs 200 --workers 4 \
        --seed 42 --out campaign_report.json

Wall-clock timing is printed to the console but deliberately kept out
of the JSON report, which must be byte-identical for identical seeds.

Exit codes: 0 success; 1 divergence found under ``--fail-on-divergence``;
2 usage error; 3 host-side failure records (``host_fault`` /
``worker_lost``) in the report; 130 interrupted (a valid partial report
and journal are still written first).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.campaign.apps import get_adapter
from repro.campaign.config import FAULT_MODES, CampaignConfig
from repro.campaign.errors import HOST_SIDE_KINDS
from repro.campaign.journal import JournalMismatch
from repro.campaign.report import write_report
from repro.campaign.scheduler import run_campaign

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_USAGE = 2
EXIT_HOST_FAULT = 3
EXIT_INTERRUPTED = 130


def build_parser() -> argparse.ArgumentParser:
    """The campaign CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description=(
            "Deterministic fault-injection campaign: run an intermittent "
            "application hundreds of times under randomized power "
            "failures and diff every run against continuous power."
        ),
    )
    defaults = CampaignConfig()
    parser.add_argument("--app", default=defaults.app,
                        help="application under test (default: %(default)s)")
    parser.add_argument("--runs", type=int, default=defaults.runs,
                        help="number of randomized runs (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help="master seed (default: %(default)s)")
    parser.add_argument("--workers", type=int, default=defaults.workers,
                        help="worker processes (default: %(default)s)")
    parser.add_argument("--protect", action="store_true",
                        help="run the intermittence-protected app variant")
    parser.add_argument("--iterations", type=int, default=defaults.iterations,
                        help="workload size per run (default: %(default)s)")
    parser.add_argument("--duration", type=float, default=defaults.duration,
                        help="simulated seconds per run (default: %(default)s)")
    parser.add_argument("--modes", default=",".join(defaults.modes),
                        help=f"comma-separated fault modes from {FAULT_MODES}")
    parser.add_argument("--mode", choices=("sample", "fuzz"),
                        default=defaults.mode,
                        help="sample: independent random runs; fuzz: "
                             "coverage-guided search over fault schedules "
                             "and stimuli (default: %(default)s)")
    parser.add_argument("--fuzz-rounds", type=int,
                        default=defaults.fuzz_rounds,
                        help="fuzz mode: search rounds the run budget is "
                             "split into (default: %(default)s)")
    parser.add_argument("--corpus", metavar="PATH",
                        help="fuzz mode: seed round zero from PATH if it "
                             "exists and write the final corpus back to it")
    parser.add_argument("--corrupt-checkpoints", action="store_true",
                        help="enable the FRAM bit-flip corruption axis")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip minimizing diverging reboot schedules")
    parser.add_argument("--shrink-limit", type=int,
                        default=defaults.shrink_limit,
                        help="max diverging runs to shrink (default: %(default)s)")
    parser.add_argument("--capture", action="store_true",
                        help="re-run the first divergence with EDB attached "
                             "and embed the monitor context in the report")
    parser.add_argument("--chunk", type=int, default=defaults.chunk,
                        help="runs per work unit (0 = auto)")
    parser.add_argument("--max-cycles", type=int, default=defaults.max_cycles,
                        help="watchdog: simulated-cycle budget per leg, "
                             "deterministic (0 = off; default: %(default)s)")
    parser.add_argument("--max-wall", type=float, default=defaults.max_wall_s,
                        metavar="SECONDS",
                        help="watchdog: wall-clock budget per run, "
                             "non-deterministic backstop (0 = off; "
                             "default: %(default)s)")
    parser.add_argument("--max-retries", type=int,
                        default=defaults.max_retries,
                        help="solo worker-loss failures before a run is "
                             "quarantined (default: %(default)s)")
    parser.add_argument("--retry-backoff", type=float,
                        default=defaults.retry_backoff, metavar="SECONDS",
                        help="base of the exponential retry backoff "
                             "(default: %(default)s)")
    parser.add_argument("--journal", metavar="PATH",
                        help="journal completed chunks to PATH as they finish "
                             "(crash-safe checkpoint for --resume)")
    parser.add_argument("--resume", metavar="PATH",
                        help="resume from a journal: skip its completed runs "
                             "and keep appending to it (corrupted lines are "
                             "quarantined and their runs re-executed)")
    parser.add_argument("--fsync-journal", action="store_true",
                        help="fsync the journal after every chunk line "
                             "(durable against host power loss, slower)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="stop scheduling new runs after the first "
                             "diverged or errored record (partial report)")
    snapshot = parser.add_mutually_exclusive_group()
    snapshot.add_argument("--snapshot", dest="snapshot", action="store_true",
                          default=True,
                          help="run legs on warm snapshotted devices and "
                               "memoize the control leg (default; reports "
                               "are byte-identical either way)")
    snapshot.add_argument("--no-snapshot", dest="snapshot",
                          action="store_false",
                          help="simulate every run from reset (the legacy "
                               "execution path)")
    batch = parser.add_mutually_exclusive_group()
    batch.add_argument("--batch", dest="batch", action="store_true",
                       default=True,
                       help="let one fault-free leader leg serve groups "
                            "of legs that differ only in when their fault "
                            "fires (default; reports are byte-identical "
                            "either way)")
    batch.add_argument("--no-batch", dest="batch", action="store_false",
                       help="no leader leg: run every leg from reset "
                            "(on warm devices unless --no-snapshot)")
    parser.add_argument("--out", default="campaign_report.json",
                        help="report path (default: %(default)s)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    parser.add_argument("--fail-on-divergence", action="store_true",
                        help="exit nonzero when any run diverges")
    return parser


def config_from_args(args: argparse.Namespace) -> CampaignConfig:
    """Translate parsed CLI arguments into a validated config."""
    get_adapter(args.app)  # fail fast with the list of known apps
    if args.journal and args.resume:
        raise ValueError("--journal and --resume are mutually exclusive "
                         "(--resume keeps appending to its journal)")
    if args.corpus and args.mode != "fuzz":
        raise ValueError("--corpus requires --mode fuzz")
    return CampaignConfig(
        app=args.app,
        runs=args.runs,
        seed=args.seed,
        workers=args.workers,
        protect=args.protect,
        iterations=args.iterations,
        duration=args.duration,
        modes=tuple(m.strip() for m in args.modes.split(",") if m.strip()),
        corrupt_checkpoints=args.corrupt_checkpoints,
        shrink=not args.no_shrink,
        shrink_limit=args.shrink_limit,
        capture=args.capture,
        chunk=args.chunk,
        max_cycles=args.max_cycles,
        max_wall_s=args.max_wall,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
        mode=args.mode,
        fuzz_rounds=args.fuzz_rounds,
    )


def _print_summary(report: dict, config: CampaignConfig, elapsed: float,
                   workers: int, tier: dict | None = None) -> None:
    summary = report["summary"]
    variant = "protected" if config.protect else "naive"
    extras = ""
    if summary["nonterminating"]:
        extras += f", {summary['nonterminating']} nonterminating"
    if summary["errors"]:
        extras += f", {summary['errors']} errored"
    print(
        f"{config.app} ({variant}): {summary['runs']} runs in {elapsed:.1f}s "
        f"({workers} worker{'s' if workers != 1 else ''}) — "
        f"{summary['diverged']} diverged, {summary['agree']} agreed, "
        f"{summary['inconclusive']} inconclusive{extras}"
    )
    # Workers return per-chunk tier/lane deltas that the scheduler folds
    # into this sink, so the tallies are complete under --workers > 1
    # too.  They stay console-only: never part of the JSON report.
    if tier and any(tier.values()):
        print(
            f"  tier: {tier['blocks_executed']} block dispatches "
            f"({tier['blocks_translated']} translated, "
            f"{tier['blocks_deopts']} deopts)"
        )
        if tier.get("lanes_packed"):
            print(
                f"  lanes: {tier['lanes_packed']} packed "
                f"({tier['lanes_peeled']} peeled, "
                f"{tier['peels_mid_boot']} from mid-boot nodes, "
                f"{tier['batch_spans']} batch spans)"
            )
    coverage = report.get("coverage")
    if coverage is not None:
        trail = " -> ".join(
            str(r["blocks"]) for r in coverage["rounds"]
        ) or "0"
        print(
            f"  coverage: {coverage['blocks']} blocks "
            f"({len(coverage['rounds'])} rounds: {trail}), "
            f"corpus {coverage['corpus']}"
        )
    if report.get("partial"):
        partial = report["partial"]
        why = "interrupted" if partial["interrupted"] else "fail-fast"
        print(
            f"  PARTIAL ({why}): {partial['completed']}/{partial['total']} "
            f"runs completed"
        )
    for divergence in report["divergences"]:
        reboots = len(divergence["observed_schedule"])
        if "shrunk" not in divergence:
            note = (
                "beyond --shrink-limit" if config.shrink
                else "shrinking disabled"
            )
            where = f"schedule: {reboots} reboots ({note})"
        elif divergence["shrunk"] is None:
            where = (
                f"schedule: {reboots} reboots "
                f"(did not reproduce on bench replay)"
            )
        else:
            shrunk = divergence["shrunk"]
            where = (
                f"minimal schedule: {shrunk['schedule']} "
                f"({shrunk['reboots']} reboot{'s' if shrunk['reboots'] != 1 else ''})"
            )
        print(
            f"  run {divergence['index']} [{divergence['plan']['mode']}] "
            f"{divergence['verdict']['reason']} — {where}"
        )
    for error in report["errors"]:
        print(
            f"  run {error['index']} ERROR [{error['error']['kind']}] "
            f"{error['error']['message']}"
        )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def progress(done: int, total: int) -> None:
        if not args.quiet:
            print(f"\r  {done}/{total} runs", end="", file=sys.stderr, flush=True)

    started = time.perf_counter()
    tier_stats: dict = {}
    try:
        report = run_campaign(
            config,
            progress=progress,
            journal_path=args.journal,
            resume_from=args.resume,
            fail_fast=args.fail_fast,
            snapshot=args.snapshot,
            batch=args.batch,
            corpus_path=args.corpus,
            journal_fsync=args.fsync_journal,
            stats=tier_stats,
        )
    except JournalMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: cannot resume: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed = time.perf_counter() - started
    if not args.quiet:
        print(file=sys.stderr)
    path = write_report(args.out, report)

    _print_summary(report, config, elapsed, config.workers, tier_stats)
    print(f"report: {path}")

    partial = report.get("partial")
    if partial and partial["interrupted"]:
        return EXIT_INTERRUPTED
    summary = report["summary"]
    if any(k in HOST_SIDE_KINDS for k in summary["error_kinds"]):
        return EXIT_HOST_FAULT
    if summary["diverged"] and (args.fail_on_divergence or args.fail_fast):
        return EXIT_DIVERGED
    return EXIT_OK
