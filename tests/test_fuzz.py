"""Coverage-guided fault fuzzing: determinism, coverage, and search.

Four properties pin the fuzz engine to the campaign contract:

- **Byte-identity.**  For a fixed config the fuzz report is identical
  across snapshot execution on/off, the block translation cache on/off
  (``REPRO_NO_BLOCKCACHE=1``), serial vs parallel execution, and a
  journal resume — the coverage signal must never perturb, or be
  perturbed by, the execution strategy.
- **Signature stability.**  The per-run coverage signature is a
  property of the executed trajectory, not the dispatch mechanism:
  randomly generated branchy programs produce bit-identical block
  lists under ``step_block`` and forced single-stepping.
- **Mutator discipline.**  Mutators are deterministic under seeded
  RNGs and always emit schedulable genotypes (op counts and reboot
  counts inside the config box; stimulus never empty when required).
- **Search beats sampling.**  With the same run budget on the RFID
  dispatch firmware, the guided campaign reaches strictly more unique
  blocks — and at least as many distinct verdicts — than uniform
  random sampling (``fuzz_rounds=1``).
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.apps.isa_app import IsaApp
from repro.campaign import forking
from repro.campaign.apps import get_adapter
from repro.campaign.config import CampaignConfig
from repro.campaign.corpus import Corpus
from repro.campaign.fuzz import (
    _bind,
    execute_fuzz_run,
    havoc,
    mutate_stimulus,
    nudge,
    random_schedule,
    splice,
)
from repro.campaign.report import render_json
from repro.campaign.runner import tier_stats_delta, tier_stats_snapshot
from repro.campaign.scheduler import run_campaign
from repro.mcu.assembler import assemble
from repro.mcu.coverage import CoverageRecorder
from repro.sim.rng import derive_seed

from repro import (
    IntermittentExecutor,
    Simulator,
    TargetDevice,
    make_wisp_power_system,
)
from tests.test_blockcache import _random_branchy, _random_straightline

#: The pinned differential config: small enough to run in seconds,
#: rich enough that the guided search discovers the stimulus-gated
#: handlers (and, at this seed, the paired-counter divergence).
FUZZ_KW = dict(
    app="rfid_firmware", runs=18, seed=1, iterations=10, duration=0.8,
    workers=1, max_ops=120, mode="fuzz", fuzz_rounds=6, shrink_limit=2,
)


@pytest.fixture(autouse=True)
def _fresh_memos():
    """The per-process continuous-leg memo must not leak across variants."""
    forking._continuous_memo.clear()
    yield
    forking._continuous_memo.clear()


def _fuzz_report(*, snapshot=True, nocache=False, journal_path=None,
                 resume_from=None, corpus_path=None, **overrides) -> dict:
    config = CampaignConfig(**{**FUZZ_KW, **overrides})
    saved = os.environ.get("REPRO_NO_BLOCKCACHE")
    try:
        if nocache:
            os.environ["REPRO_NO_BLOCKCACHE"] = "1"
        else:
            os.environ.pop("REPRO_NO_BLOCKCACHE", None)
        return run_campaign(
            config, snapshot=snapshot, journal_path=journal_path,
            resume_from=resume_from, corpus_path=corpus_path,
        )
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_BLOCKCACHE", None)
        else:
            os.environ["REPRO_NO_BLOCKCACHE"] = saved


def _canonical(report: dict) -> str:
    """Render with execution-only config knobs normalised.

    ``workers`` legitimately differs between the serial and parallel
    variants of the same campaign (it is echoed in the report's config
    stanza); every record byte must still match.
    """
    report = json.loads(json.dumps(report))
    report["campaign"]["workers"] = 1
    return render_json(report)


# -- mutators ----------------------------------------------------------------
class TestMutators:
    CONFIG = CampaignConfig(**FUZZ_KW)

    def _rng(self, *parts) -> random.Random:
        return random.Random(derive_seed(self.CONFIG.seed, "fuzz", *parts))

    def test_mutators_are_deterministic_under_derived_seeds(self):
        base = [30, 25, 40]
        donor = [80, 15]
        for mutate in (
            lambda r: nudge(r, base, self.CONFIG),
            lambda r: splice(r, base, donor, self.CONFIG),
            lambda r: havoc(r, base, self.CONFIG),
            lambda r: mutate_stimulus(r, b"\x41\x80", require_input=True),
            lambda r: random_schedule(r, self.CONFIG),
        ):
            assert mutate(self._rng(3, 7)) == mutate(self._rng(3, 7))

    def test_mutated_schedules_stay_schedulable(self):
        config = self.CONFIG
        rng = self._rng(0, 0)
        schedule = random_schedule(rng, config)
        for round_no in range(200):
            donor = random_schedule(rng, config)
            op = rng.randrange(3)
            if op == 0:
                schedule = nudge(rng, schedule, config)
            elif op == 1:
                schedule = splice(rng, schedule, donor, config)
            else:
                schedule = havoc(rng, schedule, config)
            assert config.min_reboots <= len(schedule) <= config.max_reboots
            assert all(
                config.min_ops <= entry <= config.max_ops
                for entry in schedule
            )

    def test_stimulus_never_empties_when_input_is_required(self):
        rng = self._rng(1, 1)
        stimulus = b"\x00"
        for _ in range(300):
            stimulus = mutate_stimulus(rng, stimulus, require_input=True)
            assert len(stimulus) >= 1

    def test_stimulus_respects_max_length(self):
        rng = self._rng(2, 2)
        stimulus = bytes(60)
        for _ in range(300):
            stimulus = mutate_stimulus(
                rng, stimulus, require_input=True, max_len=64
            )
            assert len(stimulus) <= 64


# -- coverage-signature stability --------------------------------------------
def _run_with_coverage(source: str, *, block_mode: bool, seed: int = 1234):
    """Run ``source`` intermittently with a recorder attached pre-flash."""
    sim = Simulator(seed=seed)
    power = make_wisp_power_system(sim, distance_m=1.6, fading_sigma=0.0)
    device = TargetDevice(sim, power)
    device.cpu.block_cache_enabled = block_mode
    device.cpu.coverage = CoverageRecorder()
    executor = IntermittentExecutor(sim, device, IsaApp(device, assemble(source)))
    executor.run(duration=1.5, stop_on_fault=True)
    return device.cpu.coverage


class TestCoverageSignatureStability:
    @pytest.mark.parametrize("seed", [11, 23, 47, 101])
    def test_branchy_programs_have_dispatch_invariant_signatures(self, seed):
        rng = random.Random(seed)
        source = _random_branchy(rng, iterations=rng.randint(3, 9))
        blocked = _run_with_coverage(source, block_mode=True)
        stepped = _run_with_coverage(source, block_mode=False)
        assert blocked.blocks() == stepped.blocks()
        assert blocked.signature() == stepped.signature()
        assert len(blocked) > 1  # the loop backedge registered

    def test_straightline_records_only_reset_entries(self):
        source = _random_straightline(random.Random(5), length=12)
        blocked = _run_with_coverage(source, block_mode=True)
        stepped = _run_with_coverage(source, block_mode=False)
        assert blocked.blocks() == stepped.blocks()
        # No taken transfer: every recorded PC is a boot's entry point.
        assert len(set(blocked.blocks())) == 1


# -- report byte-identity ----------------------------------------------------
class TestFuzzReportIdentity:
    def test_identical_across_blockcache_snapshot_and_workers(self):
        reference = _canonical(_fuzz_report())
        variants = {
            "no-snapshot": _fuzz_report(snapshot=False),
            "no-blockcache": _fuzz_report(nocache=True),
            "no-both": _fuzz_report(snapshot=False, nocache=True),
            "parallel": _fuzz_report(workers=2),
            "parallel-no-snapshot": _fuzz_report(workers=2, snapshot=False),
        }
        for name, report in variants.items():
            assert _canonical(report) == reference, name

    def test_journal_resume_is_bit_identical(self, tmp_path):
        reference = render_json(_fuzz_report())
        journal = tmp_path / "journal.jsonl"
        full = _fuzz_report(journal_path=str(journal))
        assert render_json(full) == reference
        # Simulate a crash: drop everything past the header and the
        # first half of the chunk lines, then resume.
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[: 1 + (len(lines) - 1) // 2]))
        resumed = _fuzz_report(resume_from=str(journal))
        assert render_json(resumed) == reference

    def test_corpus_roundtrip_seeds_the_next_campaign(self, tmp_path):
        corpus_path = tmp_path / "corpus.json"
        first = _fuzz_report(corpus_path=str(corpus_path))
        seeds = Corpus.load_seeds(corpus_path)
        assert len(seeds) == first["coverage"]["corpus"]
        assert all(seed["schedule"] for seed in seeds)
        # A fresh campaign (different seed) warm-started from the
        # corpus reaches in round zero what the cold start needed the
        # whole search to find.
        seeded = _fuzz_report(seed=2, corpus_path=str(corpus_path))
        assert (
            seeded["coverage"]["rounds"][0]["blocks"]
            >= first["coverage"]["blocks"] - 1
        )


# -- the search property -----------------------------------------------------
class TestGuidedSearch:
    def test_fuzz_beats_uniform_sampling_on_rfid_firmware(self):
        """The acceptance pin: same budget, strictly more coverage.

        ``fuzz_rounds=1`` makes the engine degenerate into pure uniform
        sampling over the identical genotype space (same schedule
        distribution, same default stimulus), so the comparison
        isolates the value of the feedback loop.
        """
        guided = _fuzz_report()
        uniform = _fuzz_report(fuzz_rounds=1)
        assert guided["coverage"]["blocks"] > uniform["coverage"]["blocks"]
        assert len(guided["coverage"]["verdicts"]) >= len(
            uniform["coverage"]["verdicts"]
        )

    def test_guided_search_finds_the_paired_counter_bug(self):
        """At the pinned seed the search lands two reboots in the
        vulnerable window of the naive pair handler — a divergence the
        all-zeros uniform baseline cannot reach (its stimulus never
        dispatches into the handler at all)."""
        guided = _fuzz_report(runs=24)
        assert guided["summary"]["diverged"] >= 1
        divergence = guided["divergences"][0]
        assert divergence["fuzz"]["stimulus"] is not None
        stimulus = bytes.fromhex(divergence["fuzz"]["stimulus"])
        assert any(0x40 <= byte <= 0x7F for byte in stimulus)

    def test_coverage_stanza_accounts_every_run(self):
        report = _fuzz_report()
        stanza = report["coverage"]
        assert sum(r["runs"] for r in stanza["rounds"]) == FUZZ_KW["runs"]
        assert stanza["rounds"][-1]["blocks"] == stanza["blocks"]
        assert sum(stanza["verdicts"].values()) == FUZZ_KW["runs"]
        cumulative = [r["blocks"] for r in stanza["rounds"]]
        assert cumulative == sorted(cumulative)


# -- CLI surface -------------------------------------------------------------
class TestFuzzCli:
    def test_mode_fuzz_runs_and_reports_coverage(self, tmp_path, capsys):
        from repro.campaign.cli import main as campaign_main

        out = tmp_path / "report.json"
        code = campaign_main([
            "--app", "rfid_firmware", "--mode", "fuzz", "--runs", "12",
            "--fuzz-rounds", "3", "--seed", "1", "--iterations", "8",
            "--duration", "0.6", "--quiet", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["campaign"]["mode"] == "fuzz"
        assert "coverage" in report
        assert "coverage:" in capsys.readouterr().out

    def test_corpus_requires_fuzz_mode(self, capsys):
        from repro.campaign.cli import main as campaign_main

        code = campaign_main([
            "--app", "rfid_firmware", "--corpus", "corpus.json",
        ])
        assert code == 2


# -- the shared campaign engine ---------------------------------------------
class TestSharedEngine:
    """Fuzz genotypes run on the sampling campaign's execution code."""

    CONFIG = CampaignConfig(**FUZZ_KW)

    def _job(self, index, schedule, stimulus="41802a00"):
        return {
            "index": index, "round": 1, "op": "nudge", "parent": 0,
            "schedule": schedule, "stimulus": stimulus,
        }

    def test_from_reset_legs_fold_their_tier_counters(self):
        stats: dict = {}
        run_campaign(self.CONFIG, snapshot=False, stats=stats)
        assert stats["blocks_executed"] > 0
        job = self._job(0, [40, 30])
        execute_fuzz_run(self.CONFIG, job, snapshot=True)  # memoises the control
        before = tier_stats_snapshot()
        execute_fuzz_run(self.CONFIG, job, snapshot=True)
        assert tier_stats_delta(before)["blocks_executed"] > 0  # intermittent leg

    def test_stimulus_bindings_share_one_control_leg(self):
        adapter = get_adapter(self.CONFIG.app)
        first, again = _bind(adapter, "41"), _bind(adapter, "41")
        assert first == again and hash(first) == hash(again)
        assert first != _bind(adapter, "42")
        control = forking.continuous_observation(self.CONFIG, first, 1)
        assert forking.continuous_observation(self.CONFIG, again, 2) is control

    def test_a_memoised_control_leg_serves_only_its_dispatch_mode(
        self, monkeypatch
    ):
        """A control leg simulated under one dispatch mode serves no other.

        Each mode simulates its own leg once and then serves it from the
        memo, so a campaign under a kill switch really runs its control
        legs under that switch.
        """
        adapter = get_adapter(self.CONFIG.app)
        simulated = []
        real = forking._run_continuous
        monkeypatch.setattr(
            forking, "_run_continuous",
            lambda *args, **kwargs: simulated.append(variant)
            or real(*args, **kwargs),
        )
        for variant, switch in (
            ("block", None), ("step", "REPRO_NO_BLOCKCACHE"),
            ("deopt", "REPRO_FORCE_DEOPT"),
        ):
            monkeypatch.delenv("REPRO_NO_BLOCKCACHE", raising=False)
            monkeypatch.delenv("REPRO_FORCE_DEOPT", raising=False)
            if switch is not None:
                monkeypatch.setenv(switch, "1")
            control = forking.continuous_observation(self.CONFIG, adapter, 1)
            assert forking.continuous_observation(
                self.CONFIG, adapter, 2
            ) is control
        assert simulated == ["block", "step", "deopt"]

    def test_forked_group_matches_from_reset_records(self):
        """A same-stimulus group's chunk records match from-reset legs."""
        jobs = [
            self._job(0, [40, 30]), self._job(1, [40, 70, 20]),
            self._job(2, [25], stimulus="00"),
        ]
        forked = forking.execute_chunk(self.CONFIG, jobs)
        assert forked == [execute_fuzz_run(self.CONFIG, job) for job in jobs]
        assert all(record["fuzz"]["coverage"]["blocks"] for record in forked)

    def test_fuzz_chunk_and_shrink_pass_build_no_fork_session(
        self, monkeypatch
    ):
        """Fuzz runs and their shrink probes run from reset, unforked.

        A same-stimulus pair of genotypes in one chunk, then a campaign
        whose diverging survivor shrinks: neither builds a session.
        """
        built = []
        real_init = forking.ForkSession.__init__

        def counting_init(session, *args, **kwargs):
            built.append(args)
            real_init(session, *args, **kwargs)

        monkeypatch.setattr(forking.ForkSession, "__init__", counting_init)
        forking.execute_chunk(
            self.CONFIG, [self._job(0, [40, 30]), self._job(1, [40, 70, 20])]
        )
        assert built == []
        shrinking = CampaignConfig(
            app="rfid_firmware", runs=64, seed=3, mode="fuzz",
            fuzz_rounds=8, max_ops=120, shrink_limit=1,
        )
        report = run_campaign(shrinking)
        assert any(row.get("shrunk") for row in report["divergences"])
        assert built == []


# -- smoke marker ------------------------------------------------------------
@pytest.mark.fuzz_smoke
def test_fuzz_smoke_fibonacci():
    """Three-round fixed-seed fuzz of the Fibonacci app: the CI canary.

    A high-level app exercises the degenerate-but-supported corner —
    no stimulus port, coverage reduced to boot entries — and must still
    produce a complete, deterministic report.
    """
    config = CampaignConfig(
        app="fibonacci", runs=9, seed=7, iterations=12, duration=0.6,
        mode="fuzz", fuzz_rounds=3, workers=1,
    )
    first = run_campaign(config)
    second = run_campaign(config)
    assert render_json(first) == render_json(second)
    assert first["summary"]["runs"] == 9
    assert first["summary"]["errors"] == 0
    assert first["coverage"]["blocks"] >= 1
    assert first["coverage"]["corpus"] >= 1
