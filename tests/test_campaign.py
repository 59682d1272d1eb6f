"""The fault-injection campaign engine: determinism, oracle, shrinking.

Covers the campaign stack bottom-up: the injectors place failures where
they were told to, the oracle never flags continuous-vs-continuous or
protected executions, the shrinker reduces planted divergences to a
minimal reboot schedule, and a whole campaign is byte-identical for
identical seeds regardless of worker count.  The Figure 3 regression
runs the paper's linked-list bug through the full engine: the naive
build must diverge, the repair-on-boot build must not.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignConfig,
    CommitBoundaryTrigger,
    EnergyLevelTrigger,
    Observation,
    RebootRecorder,
    ScheduledBrownouts,
    compare,
    ddmin,
    execute_run,
    get_adapter,
    plan_faults,
    render_json,
    run_campaign,
    run_continuous_leg,
    shrink_schedule,
    verdict_for_schedule,
)
from repro.campaign.cli import EXIT_USAGE, main as campaign_main
from repro.campaign.faults import StateCorruptor
from repro.mcu.memory import FRAM_BASE, SRAM_BASE
from repro.runtime.executor import IntermittentExecutor, RunStatus
from repro.sim.kernel import Simulator
from repro.testing import make_bench_target


class TestConfig:
    def test_round_trips_through_dict(self):
        config = CampaignConfig(app="fibonacci", runs=7, seed=99, workers=3,
                                modes=("op_index", "organic"))
        assert CampaignConfig.from_dict(config.to_dict()) == config

    def test_dict_form_is_json_serializable(self):
        as_json = json.dumps(CampaignConfig().to_dict())
        assert CampaignConfig.from_dict(json.loads(as_json)) == CampaignConfig()

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown fault modes"):
            CampaignConfig(modes=("telepathy",))

    def test_rejects_unknown_config_key(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            CampaignConfig.from_dict({"runz": 5})

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            CampaignConfig(min_reboots=5, max_reboots=2)
        with pytest.raises(ValueError):
            CampaignConfig(runs=-1)
        with pytest.raises(ValueError):
            CampaignConfig(max_cycles=-1)
        with pytest.raises(ValueError):
            CampaignConfig(max_retries=0)

    @pytest.mark.parametrize("field, value", [
        ("duration", float("nan")),
        ("duration", float("inf")),
        ("duration", 0.0),
        ("max_wall_s", float("nan")),
        ("max_wall_s", float("inf")),
        ("retry_backoff", float("nan")),
        ("retry_backoff", float("inf")),
        ("retry_backoff", -0.1),
        ("shrink_limit", -1),
        ("chunk", -5),
    ])
    def test_rejects_values_that_corrupt_a_campaign(self, field, value):
        with pytest.raises(ValueError, match=field):
            CampaignConfig(**{field: value})


class _OpCounter:
    """Workload of bare compute ops; completes after ``total`` of them."""

    name = "op-counter"

    def __init__(self, total=10_000):
        self.total = total

    def main(self, api):
        from repro.mcu.hlapi import ProgramComplete

        addr = api.nv_var("opc.done")
        while True:
            done = api.load_u16(addr)
            api.branch()
            if done >= self.total:
                raise ProgramComplete(done)
            api.compute(50)
            api.store_u16(addr, done + 1)


class TestInjectors:
    def _bench(self):
        sim = Simulator(seed=3)
        device = make_bench_target(sim)
        return sim, device

    def test_scheduled_brownouts_hit_exact_op_counts(self):
        sim, device = self._bench()
        executor = IntermittentExecutor(sim, device, _OpCounter(total=400))
        executor.flash()
        recorder = RebootRecorder(device)
        injector = ScheduledBrownouts(device, [37, 121, 64])
        result = executor.run(duration=5.0)
        assert result.status is RunStatus.COMPLETED
        assert injector.injections == 3
        assert recorder.schedule() == [37, 121, 64]

    def test_scheduled_brownouts_beyond_completion_never_fire(self):
        sim, device = self._bench()
        executor = IntermittentExecutor(sim, device, _OpCounter(total=50))
        injector = ScheduledBrownouts(device, [10_000])
        executor.flash()
        result = executor.run(duration=5.0)
        assert result.status is RunStatus.COMPLETED
        assert injector.injections == 0

    def test_energy_level_trigger_fires_below_each_level(self):
        sim = Simulator(seed=3)
        from repro.testing import make_fast_target

        device = make_fast_target(sim, distance_m=1.4, fading_sigma=0.0)
        executor = IntermittentExecutor(sim, device, _OpCounter(total=3000))
        executor.flash()
        injector = EnergyLevelTrigger(device, [2.3, 2.1])
        result = executor.run(duration=3.0)
        assert injector.injections == 2
        assert result.reboots >= 2

    def test_commit_boundary_trigger_counts_only_fram_writes(self):
        sim, device = self._bench()
        trigger = CommitBoundaryTrigger(device, [2])
        device.memory.write_u16(SRAM_BASE + 8, 1)  # volatile: not counted
        assert trigger.writes_seen == 0
        device.memory.write_u16(FRAM_BASE + 8, 1)
        device.memory.write_u16(FRAM_BASE + 10, 2)  # second FRAM write: fire
        assert trigger.writes_seen == 2
        assert trigger.injections == 1
        assert not device.power.is_on

    def test_state_corruptor_flips_one_bit_at_chosen_boot(self):
        sim, device = self._bench()
        address = FRAM_BASE + 0x100
        device.memory.write_u8(address, 0b1010)
        corruptor = StateCorruptor(device, [(address, 4)], [(1, 0, 0)])
        device.reboot()  # boot 0: no flip
        assert device.memory.read_u8(address) == 0b1010
        device.reboot()  # boot 1: flip bit 0
        assert device.memory.read_u8(address) == 0b1011
        assert corruptor.applied == [(address, 0)]

    def test_recorder_excludes_the_final_boot(self):
        sim, device = self._bench()
        executor = IntermittentExecutor(sim, device, _OpCounter(total=100))
        executor.flash()
        recorder = RebootRecorder(device)
        ScheduledBrownouts(device, [11])
        result = executor.run(duration=5.0)
        assert result.status is RunStatus.COMPLETED
        # One injected reboot; the completing boot is not in the schedule.
        assert recorder.schedule() == [11]


class TestOracle:
    def _obs(self, status="completed", faults=0, observables=None):
        return Observation(status=status, faults=faults, boots=1, reboots=0,
                           observables=observables or {"consistent": True})

    def test_continuous_against_itself_agrees(self):
        config = CampaignConfig(app="linked_list", runs=1, seed=5)
        adapter = get_adapter(config.app)
        a = run_continuous_leg(config, adapter, leg_seed=17)
        b = run_continuous_leg(config, adapter, leg_seed=23)
        verdict = compare(a, b, adapter.invariant_keys)
        assert verdict.verdict == "agree"

    def test_memory_faults_diverge(self):
        verdict = compare(self._obs(status="crashed", faults=2), self._obs(),
                          ("consistent",))
        assert verdict.diverged

    def test_invariant_mismatch_diverges(self):
        verdict = compare(self._obs(observables={"consistent": False}),
                          self._obs(), ("consistent",))
        assert verdict.diverged
        assert "consistent" in verdict.diff

    def test_clean_timeout_is_inconclusive_not_divergent(self):
        verdict = compare(self._obs(status="timeout"), self._obs(),
                          ("consistent",))
        assert verdict.verdict == "inconclusive"

    def test_schedule_variant_observables_are_ignored(self):
        verdict = compare(
            self._obs(observables={"consistent": True, "length": 3}),
            self._obs(observables={"consistent": True, "length": 9}),
            ("consistent",),
        )
        assert verdict.verdict == "agree"

    def test_broken_control_is_inconclusive(self):
        verdict = compare(self._obs(status="crashed", faults=1),
                          self._obs(status="crashed", faults=1),
                          ("consistent",))
        assert verdict.verdict == "inconclusive"


class TestShrinker:
    def test_ddmin_reduces_to_the_two_critical_entries(self):
        schedule = [5, 3, 7, 9, 11, 13, 2, 8]

        def still_fails(candidate):
            return 7 in candidate and 2 in candidate

        minimal = ddmin(schedule, still_fails)
        assert sorted(minimal) == [2, 7]

    def test_ddmin_respects_test_budget(self):
        calls = 0

        def still_fails(candidate):
            nonlocal calls
            calls += 1
            return True

        ddmin(list(range(64)), still_fails, max_tests=10)
        assert calls <= 10

    def test_unreproducible_schedule_returns_none(self):
        assert shrink_schedule([3, 4], lambda c: False) is None
        assert shrink_schedule([], lambda c: True) is None

    def _find_lethal_op(self, config, adapter, continuous):
        """An op index whose lone injected reboot diverges (Fig. 3 window)."""
        for op_index in range(20, 160):
            verdict = verdict_for_schedule(config, adapter, continuous,
                                           [op_index])
            if verdict.diverged:
                return op_index
        pytest.fail("no single-reboot divergence found in the scan range")

    def test_planted_divergence_shrinks_to_minimal_schedule(self):
        """A Fig. 3 divergence padded with noise shrinks to <= 2 reboots."""
        config = CampaignConfig(app="linked_list", runs=1, seed=13)
        adapter = get_adapter(config.app)
        continuous = run_continuous_leg(config, adapter, leg_seed=1)
        lethal = self._find_lethal_op(config, adapter, continuous)
        # Plant the lethal reboot, then pad with late no-op reboots (the
        # crash ends the run before they matter).
        planted = [lethal, 33, 77, 51]

        def still_fails(candidate):
            return verdict_for_schedule(config, adapter, continuous,
                                        candidate).diverged

        assert still_fails(planted)
        minimal = shrink_schedule(planted, still_fails)
        assert minimal is not None
        assert len(minimal) <= 2
        assert lethal in minimal


class TestCampaignDeterminism:
    CONFIG = dict(app="linked_list", runs=12, seed=42)

    def test_identical_seeds_give_byte_identical_reports(self):
        config = CampaignConfig(**self.CONFIG)
        first = render_json(run_campaign(config))
        second = render_json(run_campaign(config))
        assert first == second

    def test_different_seeds_give_different_plans(self):
        a = run_campaign(CampaignConfig(**{**self.CONFIG, "seed": 1}))
        b = run_campaign(CampaignConfig(**{**self.CONFIG, "seed": 2}))
        assert [r["seed"] for r in a["runs"]] != [r["seed"] for r in b["runs"]]

    def test_worker_count_does_not_change_records(self):
        solo = run_campaign(CampaignConfig(**self.CONFIG, workers=1))
        pooled = run_campaign(CampaignConfig(**self.CONFIG, workers=2))
        for report in (solo, pooled):
            report["campaign"].pop("workers")
        assert render_json(solo) == render_json(pooled)

    def test_execute_run_is_pure(self):
        config = CampaignConfig(**self.CONFIG)
        assert execute_run(config, 3) == execute_run(config, 3)

    def test_fault_plans_are_pure_functions_of_the_rng(self):
        import random

        config = CampaignConfig(**self.CONFIG, corrupt_checkpoints=True)
        assert plan_faults(config, random.Random(7)) == plan_faults(
            config, random.Random(7)
        )

    def test_report_has_no_wall_clock_fields(self):
        report = run_campaign(CampaignConfig(app="linked_list", runs=2, seed=1,
                                             shrink=False))
        # The echoed config legitimately contains the max_wall_s budget
        # knob (a deterministic input, not a measurement); everything
        # else must be free of wall-clock data.
        text = render_json({k: v for k, v in report.items() if k != "campaign"})
        for forbidden in ("time.time", "timestamp", "elapsed", "wall"):
            assert forbidden not in text


class TestFig3Regression:
    """The paper's linked-list bug, found by the campaign engine."""

    def test_naive_build_diverges_and_shrinks(self):
        report = run_campaign(
            CampaignConfig(app="linked_list", runs=40, seed=42)
        )
        summary = report["summary"]
        assert summary["diverged"] >= 1
        shrunk = [d["shrunk"] for d in report["divergences"] if d.get("shrunk")]
        assert shrunk, "no divergence could be minimized"
        assert min(s["reboots"] for s in shrunk) <= 2

    def test_protected_build_never_diverges(self):
        report = run_campaign(
            CampaignConfig(app="linked_list", runs=40, seed=42, protect=True)
        )
        assert report["summary"]["diverged"] == 0
        assert report["summary"]["inconclusive"] == 0

    def test_counter_lost_update_found_only_in_naive_build(self):
        naive = run_campaign(CampaignConfig(app="counter", runs=30, seed=11))
        protected = run_campaign(
            CampaignConfig(app="counter", runs=30, seed=11, protect=True)
        )
        assert naive["summary"]["diverged"] >= 1
        assert protected["summary"]["diverged"] == 0


class TestCli:
    def test_cli_writes_parseable_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = campaign_main([
            "--app", "linked_list", "--runs", "6", "--seed", "42",
            "--out", str(out), "--quiet", "--no-shrink",
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["summary"]["runs"] == 6
        assert "runs in" in capsys.readouterr().out

    def test_cli_fail_on_divergence(self, tmp_path):
        out = tmp_path / "report.json"
        code = campaign_main([
            "--app", "linked_list", "--runs", "40", "--seed", "42",
            "--out", str(out), "--quiet", "--no-shrink",
            "--fail-on-divergence",
        ])
        assert code == 1

    def test_cli_rejects_bad_mode(self, tmp_path, capsys):
        code = campaign_main(["--modes", "telepathy", "--quiet"])
        assert code == 2
        assert "unknown fault modes" in capsys.readouterr().err

    def test_cli_rejects_nan_duration(self, tmp_path, capsys):
        code = campaign_main([
            "--duration", "nan", "--quiet",
            "--out", str(tmp_path / "report.json"),
        ])
        assert code == EXIT_USAGE
        assert "duration" in capsys.readouterr().err


@pytest.mark.campaign_smoke
class TestSmokeCampaign:
    """The default-suite smoke campaign (must stay well under 30 s)."""

    def test_acceptance_campaign_smoke(self):
        config = CampaignConfig(app="linked_list", runs=200, seed=42,
                                workers=1)
        report = run_campaign(config)
        summary = report["summary"]
        assert summary["runs"] == 200
        assert summary["diverged"] >= 1
        assert all(
            d.get("shrunk") is None or d["shrunk"]["reboots"] <= 4
            for d in report["divergences"]
        )
        # Determinism spot check against the run-level records.
        again = execute_run(config, report["divergences"][0]["index"])
        assert again["verdict"]["verdict"] == "diverged"


def test_capture_leg_harvests_under_the_run_duty(monkeypatch):
    """A ``--capture`` replay runs on the harvester of the run it explains.

    Every run here is duty-modulated; the capture leg of the diverging
    run must carry that run's duty period and fraction, as its
    intermittent leg did.
    """
    import random

    from repro.core import debugger
    from repro.power.harvester import RFHarvester
    from repro.sim.rng import derive_seed

    targets = []

    class RecordingEDB(debugger.EDB):
        def __init__(self, sim, target, *args, **kwargs):
            targets.append(target)
            super().__init__(sim, target, *args, **kwargs)

    monkeypatch.setattr(debugger, "EDB", RecordingEDB)
    config = CampaignConfig(
        app="linked_list", runs=6, seed=11, workers=1, iterations=30,
        duration=0.5, duty_chance=1.0, shrink=False, capture=True,
    )
    report = run_campaign(config)
    (row,) = [row for row in report["divergences"] if "capture" in row]
    assert "unreproduced" not in row["capture"]
    (target,) = targets
    run = next(r for r in report["runs"] if r["index"] == row["index"])
    plan = plan_faults(
        config, random.Random(derive_seed(run["seed"], "plan"))
    )
    assert plan.duty is not None
    source = target.power.source
    assert isinstance(source, RFHarvester)
    assert (source.duty_period, source.duty_fraction) == plan.duty
