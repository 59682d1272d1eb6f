"""Supervised campaign execution: watchdogs, crash isolation, resume.

Covers the supervision layer end to end:

- kernel time-argument guards (negative / NaN / backwards time);
- the per-run watchdog (deterministic cycle budget, wall-clock alarm)
  and the ``NONTERMINATING`` verdict it produces;
- the structured error taxonomy and the one-record-per-index contract;
- chunking edge cases and the crash-isolation / quarantine protocol,
  exercised by the deliberately misbehaving ``chaos`` adapter;
- checkpoint journaling, interrupt safety, and ``--resume``;
- graceful degradation to serial when no worker pool can be created;
- shrink / capture tolerance of replays that no longer reproduce;
- CLI exit codes and flag plumbing.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import Simulator
from repro.campaign import (
    BudgetError,
    CampaignConfig,
    CampaignWarning,
    ERROR,
    GuestFault,
    HostFault,
    JournalMismatch,
    JournalWriter,
    NONTERMINATING,
    Observation,
    RunError,
    RunWatchdog,
    WorkerLost,
    compare,
    error_record,
    execute_run_safe,
    load_journal,
    run_campaign,
)
from repro.campaign import cli, scheduler
from repro.campaign.apps import get_adapter
from repro.campaign.errors import (
    BUDGET_EXCEEDED,
    GUEST_FAULT,
    HOST_FAULT,
    HOST_SIDE_KINDS,
    WORKER_LOST,
)
from repro.campaign.report import render_json
from repro.campaign.runner import capture_divergence, execute_run
from repro.campaign.scheduler import _chunk_indices
from repro.campaign.shrinker import shrink_schedule
from repro.mcu.device import NEVER
from repro.sim.kernel import BudgetExceeded
from repro.testing import can_use_alarm, make_fast_target, time_limit

pytestmark = pytest.mark.campaign_robustness


# -- kernel time-argument guards -------------------------------------------
class TestKernelTimeGuards:
    def test_advance_rejects_negative_nan_inf(self, sim: Simulator):
        for bad in (-1.0, -1e-12, math.nan, math.inf):
            with pytest.raises(ValueError):
                sim.advance(bad)

    def test_advance_zero_and_positive_still_work(self, sim: Simulator):
        sim.advance(0.0)
        sim.advance(1e-6)
        assert sim.now == pytest.approx(1e-6)

    def test_advance_to_rejects_backwards_and_nonfinite(self, sim: Simulator):
        sim.advance(1.0)
        for bad in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                sim.advance_to(bad)
        sim.advance_to(1.0)  # no-op move to "now" is legal
        sim.advance_to(2.0)
        assert sim.now == pytest.approx(2.0)

    def test_run_until_rejects_nonfinite(self, sim: Simulator):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                sim.run_until(bad)

    def test_call_at_rejects_past_and_nonfinite(self, sim: Simulator):
        sim.advance(1.0)
        for bad in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                sim.call_at(bad, lambda: None)

    def test_call_every_rejects_bad_period_and_start(self, sim: Simulator):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sim.call_every(bad, lambda: None)
        sim.advance(1.0)
        with pytest.raises(ValueError):
            sim.call_every(0.1, lambda: None, start=0.5)


# -- the per-run watchdog ---------------------------------------------------
class TestRunWatchdog:
    def test_cycle_budget_trips_deterministically(self):
        sim = Simulator(seed=1)
        target = make_fast_target(sim)
        target.power.charge_until_on()
        with RunWatchdog(target, max_cycles=100):
            target.execute_cycles(99)
            with pytest.raises(BudgetExceeded) as info:
                target.execute_cycles(1)
        assert info.value.budget == "cycles"
        # The context manager removed the watch on the way out.
        target.execute_cycles(1)

    def test_zero_budgets_arm_no_deadline(self):
        sim = Simulator(seed=1)
        target = make_fast_target(sim)
        dog = RunWatchdog(target, max_cycles=0, max_wall_s=0.0)
        assert target._unit_deadline == target._cycle_deadline == NEVER
        dog.remove()  # idempotent even when never installed

    def test_nonterminating_status_reaches_the_verdict(self):
        # A guest that never completes, bounded only by the cycle budget.
        config = CampaignConfig(
            app="chaos", runs=6, seed=11, iterations=4, shrink=False,
            max_cycles=200_000,
        )
        record = execute_run(config, 3)  # chaos role 3: infinite compute
        assert record["intermittent"]["status"] == "nonterminating"
        assert record["verdict"]["verdict"] == NONTERMINATING
        assert "error" not in record  # a verdict, not an error record


# -- the SIGALRM wall-clock guard ------------------------------------------
@pytest.mark.skipif(not can_use_alarm(), reason="SIGALRM unavailable here")
class TestTimeLimit:
    def test_interrupts_a_host_side_spin(self):
        with pytest.raises(BudgetExceeded) as info:
            with time_limit(0.1):
                while True:
                    pass
        assert info.value.budget == "wall"

    def test_zero_seconds_is_a_no_op(self):
        with time_limit(0.0):
            pass

    def test_nesting_restores_the_outer_timer(self):
        hits = []
        with pytest.raises(BudgetExceeded):
            with time_limit(5.0):
                with time_limit(0.05):
                    while True:
                        pass
                hits.append("unreachable")
        assert not hits


# -- oracle rules for the new verdicts -------------------------------------
def _obs(status="completed", faults=0, observables=None, detail=None):
    return Observation(
        status=status, faults=faults, boots=1, reboots=0,
        observables=observables or {}, detail=detail,
    )


class TestOracleNontermination:
    def test_intermittent_nontermination_is_not_a_divergence(self):
        verdict = compare(
            _obs(status="nonterminating", detail="cycle budget"),
            _obs(status="completed"),
            invariant_keys=(),
        )
        assert verdict.verdict == NONTERMINATING
        assert not verdict.diverged

    def test_continuous_nontermination_dominates(self):
        verdict = compare(
            _obs(status="completed"),
            _obs(status="nonterminating", detail="wall budget"),
            invariant_keys=(),
        )
        assert verdict.verdict == NONTERMINATING

    def test_divergence_outranks_nontermination(self):
        # A memory fault under intermittent power is a divergence even
        # if the leg also hit its budget later — faults are checked first.
        verdict = compare(
            _obs(status="nonterminating", faults=2),
            _obs(status="completed"),
            invariant_keys=(),
        )
        assert verdict.diverged


# -- the error taxonomy -----------------------------------------------------
class TestErrorTaxonomy:
    def test_kinds(self):
        assert GuestFault("x").kind == GUEST_FAULT
        assert HostFault("x").kind == HOST_FAULT
        assert BudgetError("x").kind == BUDGET_EXCEEDED
        assert WorkerLost("x").kind == WORKER_LOST
        assert set(HOST_SIDE_KINDS) == {HOST_FAULT, WORKER_LOST}

    def test_wrap_classifies_and_passes_through(self):
        wrapped = HostFault.wrap(RuntimeError("boom"), detail="ctx")
        assert wrapped.kind == HOST_FAULT
        assert "RuntimeError: boom" in wrapped.message
        # An already-classified error is never re-labelled.
        guest = GuestFault("guest bug")
        assert HostFault.wrap(guest) is guest

    def test_error_record_shape_matches_run_records(self):
        config = CampaignConfig(runs=4, seed=3)
        record = error_record(config, 2, WorkerLost("gone"))
        assert record["index"] == 2
        assert record["intermittent"] is None
        assert record["continuous"] is None
        assert record["error"]["kind"] == WORKER_LOST
        assert record["verdict"]["verdict"] == ERROR
        # Deterministic: same config + index, same record.
        assert record == error_record(config, 2, WorkerLost("gone"))

    def test_execute_run_safe_classifies_a_guest_raise(self):
        config = CampaignConfig(
            app="chaos", runs=6, seed=5, iterations=4, shrink=False
        )
        record = execute_run_safe(config, 4)  # chaos role 4: raises
        assert record["error"]["kind"] == GUEST_FAULT
        assert "chaos guest fault" in record["error"]["message"]
        assert record["verdict"]["verdict"] == ERROR

    def test_execute_run_safe_never_raises_on_engine_failure(self, monkeypatch):
        config = CampaignConfig(runs=2, seed=5, shrink=False)
        monkeypatch.setattr(
            "repro.campaign.runner.plan_faults",
            lambda *a, **k: (_ for _ in ()).throw(TypeError("engine bug")),
        )
        record = execute_run_safe(config, 0)
        assert record["error"]["kind"] == HOST_FAULT
        assert "TypeError: engine bug" in record["error"]["message"]


# -- chunking edge cases ----------------------------------------------------
class TestChunking:
    def test_fewer_runs_than_workers(self):
        config = CampaignConfig(runs=3, workers=8)
        chunks = _chunk_indices(list(range(3)), config)
        assert [i for c in chunks for i in c] == [0, 1, 2]
        assert all(len(c) >= 1 for c in chunks)

    def test_chunk_of_one(self):
        config = CampaignConfig(runs=5, workers=2, chunk=1)
        chunks = _chunk_indices(list(range(5)), config)
        assert chunks == [[0], [1], [2], [3], [4]]

    def test_empty_index_list(self):
        config = CampaignConfig(runs=0, workers=4)
        assert _chunk_indices([], config) == []

    def test_zero_run_campaign_produces_an_empty_report(self):
        report = run_campaign(CampaignConfig(runs=0, seed=1, shrink=False))
        assert report["summary"]["runs"] == 0
        assert report["runs"] == []
        assert "partial" not in report


# -- the chaos campaign: crash isolation end to end -------------------------
CHAOS_CONFIG = CampaignConfig(
    app="chaos",
    runs=6,
    seed=7,
    iterations=4,
    shrink=False,
    workers=2,
    chunk=2,
    max_cycles=300_000,
    max_wall_s=60.0,
    retry_backoff=0.01,
)


@pytest.mark.campaign_smoke
@pytest.mark.timeout_guard(300)
class TestChaosCampaign:
    def test_survives_hangs_crashes_and_raises(self):
        report = run_campaign(CHAOS_CONFIG)
        rows = report["runs"]
        # Exactly one record per run index, in order.
        assert [r["index"] for r in rows] == list(range(6))
        by_index = {r["index"]: r for r in rows}
        # Role 2 kills its worker with os._exit: quarantined.
        assert by_index[2]["error"] == WORKER_LOST
        # Role 3 spins forever: the cycle budget rules NONTERMINATING.
        assert by_index[3]["verdict"] == NONTERMINATING
        # Role 4 raises: a guest fault, not a campaign crash.
        assert by_index[4]["error"] == GUEST_FAULT
        # Roles 0, 1, 5 behave and agree.
        for i in (0, 1, 5):
            assert by_index[i]["verdict"] == "agree"
        assert report["summary"]["error_kinds"] == {
            WORKER_LOST: 1, GUEST_FAULT: 1,
        }
        assert "partial" not in report

    def test_report_is_byte_identical_across_executions(self):
        first = render_json(run_campaign(CHAOS_CONFIG))
        second = render_json(run_campaign(CHAOS_CONFIG))
        assert first == second


# -- journaling, interruption, resume ---------------------------------------
RESUME_CONFIG = CampaignConfig(
    app="linked_list", runs=8, seed=99, iterations=8, duration=0.4,
    shrink=False, workers=1, chunk=2,
)


class TestJournalAndResume:
    def test_interrupt_then_resume_is_byte_identical(self, tmp_path):
        baseline = render_json(run_campaign(RESUME_CONFIG))
        journal = tmp_path / "campaign.jsonl"

        calls = []

        def interrupt_after_first_chunk(done, total):
            calls.append(done)
            if len(calls) == 1:
                raise KeyboardInterrupt

        partial = run_campaign(
            RESUME_CONFIG,
            progress=interrupt_after_first_chunk,
            journal_path=str(journal),
        )
        assert partial["partial"]["interrupted"]
        assert 0 < partial["partial"]["completed"] < RESUME_CONFIG.runs

        resumed = run_campaign(RESUME_CONFIG, resume_from=str(journal))
        assert "partial" not in resumed
        assert render_json(resumed) == baseline

    def test_journal_tolerates_a_truncated_tail(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        with JournalWriter(journal, RESUME_CONFIG) as writer:
            writer.chunk_done(
                [error_record(RESUME_CONFIG, 0, GuestFault("x"))]
            )
        with journal.open("a") as fh:
            fh.write('{"indices": [1], "rec')  # killed mid-write
        records = load_journal(journal, RESUME_CONFIG)
        assert list(records) == [0]

    def test_interior_corruption_is_quarantined_not_fatal(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        with JournalWriter(journal, RESUME_CONFIG) as writer:
            writer.chunk_done(
                [error_record(RESUME_CONFIG, 0, GuestFault("x"))]
            )
            writer.chunk_done(
                [error_record(RESUME_CONFIG, 1, GuestFault("y"))]
            )
        lines = journal.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"', "'", 1)  # rot the first chunk line
        journal.write_text("".join(lines))
        with pytest.warns(CampaignWarning, match="re-executed"):
            records = load_journal(journal, RESUME_CONFIG)
        # Never a raw JSONDecodeError: the damaged line is skipped and
        # the intact one survives.
        assert list(records) == [1]

    def test_crc_mismatch_is_quarantined_even_when_parseable(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        with JournalWriter(journal, RESUME_CONFIG) as writer:
            writer.chunk_done(
                [error_record(RESUME_CONFIG, 0, GuestFault("x"))]
            )
            writer.chunk_done(
                [error_record(RESUME_CONFIG, 1, GuestFault("y"))]
            )
        lines = journal.read_text().splitlines(keepends=True)
        entry = json.loads(lines[1])
        entry["data"]["records"][0]["seed"] = 12345  # silent record rot
        lines[1] = json.dumps(entry, sort_keys=True) + "\n"
        journal.write_text("".join(lines))
        with pytest.warns(CampaignWarning):
            records = load_journal(journal, RESUME_CONFIG)
        # The rotted record is *not* trusted just because it parses.
        assert list(records) == [1]

    def test_journal_rejects_a_different_campaign(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        JournalWriter(journal, RESUME_CONFIG).close()
        other = CampaignConfig.from_dict(
            {**RESUME_CONFIG.to_dict(), "seed": 1}
        )
        with pytest.raises(JournalMismatch) as info:
            load_journal(journal, other)
        assert "seed" in str(info.value)

    def test_execution_only_knobs_may_change_between_sessions(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        JournalWriter(journal, RESUME_CONFIG).close()
        retuned = CampaignConfig.from_dict(
            {**RESUME_CONFIG.to_dict(), "workers": 4, "chunk": 1,
             "max_retries": 9, "retry_backoff": 1.0}
        )
        assert load_journal(journal, retuned) == {}

    def test_journal_and_resume_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            run_campaign(
                RESUME_CONFIG,
                journal_path=str(tmp_path / "a"),
                resume_from=str(tmp_path / "b"),
            )


# -- graceful degradation to serial -----------------------------------------
class TestDegradation:
    def test_campaign_completes_without_a_worker_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(scheduler, "ProcessPoolExecutor", no_pool)
        config = CampaignConfig(
            app="linked_list", runs=4, seed=21, iterations=8,
            duration=0.4, shrink=False, workers=4,
        )
        report = run_campaign(config)
        assert [r["index"] for r in report["runs"]] == [0, 1, 2, 3]
        assert "partial" not in report

    def test_degraded_records_match_the_parallel_ones(self, monkeypatch):
        config = CampaignConfig(
            app="linked_list", runs=4, seed=21, iterations=8,
            duration=0.4, shrink=False, workers=4,
        )
        baseline = render_json(run_campaign(config))
        monkeypatch.setattr(
            scheduler, "ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(OSError("no pool")),
        )
        assert render_json(run_campaign(config)) == baseline


# -- fail-fast ---------------------------------------------------------------
class TestFailFast:
    def test_stops_after_the_first_bad_record(self):
        # seed=10 diverges at run index 0, so with chunk=1 the campaign
        # must stop almost immediately.
        config = CampaignConfig(
            app="linked_list", runs=8, seed=10, iterations=8,
            duration=0.4, shrink=False, workers=1, chunk=1,
        )
        report = run_campaign(config, fail_fast=True)
        partial = report["partial"]
        assert not partial["interrupted"]
        assert partial["completed"] < config.runs
        assert report["runs"][0]["verdict"] == "diverged"


# -- shrink / capture tolerance ---------------------------------------------
class TestReplayTolerance:
    def test_shrink_schedule_treats_a_raising_predicate_as_unreproduced(self):
        def explodes(candidate):
            raise RuntimeError("bench replay died")

        assert shrink_schedule([5, 10, 15], explodes) is None

    def test_shrink_schedule_still_minimizes_a_working_predicate(self):
        minimal = shrink_schedule(
            [5, 10, 15, 20], lambda c: 10 in c
        )
        assert minimal == [10]

    def test_capture_tolerates_a_replay_that_raises(self, monkeypatch):
        config = CampaignConfig(app="linked_list", runs=2, seed=3)
        record = {"seed": 123, "observed_schedule": [4]}
        monkeypatch.setattr(
            "repro.campaign.runner.plan_faults",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("no replay")),
        )
        note = capture_divergence(config, record)
        assert "unreproduced" in note
        assert "RuntimeError" in note["unreproduced"]


# -- the CLI ------------------------------------------------------------------
class TestCli:
    BASE = [
        "--app", "linked_list", "--runs", "4", "--seed", "21",
        "--iterations", "8", "--duration", "0.4", "--no-shrink",
        "--workers", "1", "--quiet",
    ]

    def test_ok_exit_and_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(self.BASE + ["--out", str(out)])
        assert code == cli.EXIT_OK
        report = json.loads(out.read_text())
        assert report["summary"]["runs"] == 4
        assert "runs in" in capsys.readouterr().out

    def test_journal_resume_round_trip(self, tmp_path):
        fresh = tmp_path / "fresh.json"
        assert cli.main(self.BASE + ["--out", str(fresh)]) == cli.EXIT_OK

        journal = tmp_path / "j.jsonl"
        first = tmp_path / "first.json"
        code = cli.main(
            self.BASE + ["--journal", str(journal), "--out", str(first)]
        )
        assert code == cli.EXIT_OK
        resumed = tmp_path / "resumed.json"
        code = cli.main(
            self.BASE + ["--resume", str(journal), "--out", str(resumed)]
        )
        assert code == cli.EXIT_OK
        assert resumed.read_text() == fresh.read_text()

    def test_journal_and_resume_conflict_is_a_usage_error(self, tmp_path):
        code = cli.main(
            self.BASE
            + ["--journal", str(tmp_path / "a"), "--resume", str(tmp_path / "b")]
        )
        assert code == cli.EXIT_USAGE

    def test_resume_from_a_missing_journal_is_a_usage_error(self, tmp_path):
        code = cli.main(
            self.BASE + ["--resume", str(tmp_path / "does-not-exist.jsonl")]
        )
        assert code == cli.EXIT_USAGE

    def test_resume_from_a_mismatched_journal_is_a_usage_error(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        JournalWriter(journal, CampaignConfig(runs=4, seed=1)).close()
        code = cli.main(self.BASE + ["--resume", str(journal)])
        assert code == cli.EXIT_USAGE

    @pytest.mark.timeout_guard(300)
    def test_host_faults_exit_nonzero(self, tmp_path, capsys):
        code = cli.main([
            "--app", "chaos", "--runs", "3", "--seed", "7",
            "--iterations", "4", "--no-shrink", "--workers", "2",
            "--chunk", "1", "--max-cycles", "300000",
            "--retry-backoff", "0.01", "--quiet",
            "--out", str(tmp_path / "chaos.json"),
        ])
        assert code == cli.EXIT_HOST_FAULT
        assert "worker_lost" in capsys.readouterr().out

    def test_fail_fast_flag_reaches_the_scheduler(self, tmp_path, capsys):
        code = cli.main([
            "--app", "linked_list", "--runs", "8", "--seed", "10",
            "--iterations", "8", "--duration", "0.4", "--no-shrink",
            "--workers", "1", "--chunk", "1", "--fail-fast",
            "--quiet", "--out", str(tmp_path / "ff.json"),
        ])
        assert code == cli.EXIT_DIVERGED
        assert "PARTIAL (fail-fast)" in capsys.readouterr().out
