"""Per-run execution: the intermittent leg, the control leg, replays.

:func:`execute_run` is the unit of campaign work — it is what worker
processes execute.  Each run builds a *fresh* simulator, power system,
target, and program for every leg, so runs share no state and can be
computed in any order, in any process, with identical results.

Seeding discipline: the run's seed is
``derive_seed(config.seed, "run", index)``; everything inside the run
(the fault plan, each leg's simulator) derives from it.  Nothing reads
the global ``random`` module or the wall clock, which is what makes a
campaign's report byte-identical across repetitions and worker counts.
"""

from __future__ import annotations

import random

from repro.campaign.apps import get_adapter
from repro.campaign.config import CampaignConfig
from repro.campaign.errors import (
    BudgetError,
    GuestFault,
    HostFault,
    RunError,
    error_record,
)
from repro.campaign.faults import (
    CommitBoundaryTrigger,
    EnergyLevelTrigger,
    FaultPlan,
    RebootRecorder,
    ScheduledBrownouts,
    StateCorruptor,
    plan_faults,
)
from repro.campaign.oracle import Observation, Verdict, compare
from repro.campaign.watchdog import RunWatchdog
from repro.power.harvester import RFHarvester
from repro.runtime.executor import IntermittentExecutor, RunResult
from repro.sim.kernel import BudgetExceeded, Simulator
from repro.sim.rng import derive_seed
from repro.testing import make_bench_target, make_fast_target, time_limit


#: Process-local tallies of which execution tier served the legs this
#: process simulated: block translation and lane batching.  Diagnostic
#: plumbing only — the snapshot never enters a campaign report (reports
#: are byte-pinned for identical seeds); worker processes keep their own
#: tallies and hand them back as :func:`tier_stats_delta` results.
_TIER_STATS = {
    "blocks_translated": 0,
    "blocks_executed": 0,
    "blocks_deopts": 0,
    "lanes_packed": 0,
    "lanes_peeled": 0,
    "batch_spans": 0,
}


def _harvest_tier_stats(target) -> None:
    """Fold one finished leg's tier counters into the process tallies."""
    stats = _TIER_STATS
    cpu = target.cpu
    stats["blocks_translated"] += cpu.blocks_translated
    stats["blocks_executed"] += cpu.blocks_executed
    stats["blocks_deopts"] += cpu.blocks_deopts


def note_lane_stats(*, packed: int = 0, peeled: int = 0, spans: int = 0) -> None:
    """Fold one batched group's lane accounting into the process tallies.

    ``packed`` counts lanes that entered the lane engine, ``peeled`` the
    subset peeled back into the scalar path mid-run, and ``spans`` the
    lock-step boundary-to-boundary segments the batch survived.
    """
    _TIER_STATS["lanes_packed"] += packed
    _TIER_STATS["lanes_peeled"] += peeled
    _TIER_STATS["batch_spans"] += spans


def tier_stats_snapshot() -> dict:
    """A copy of this process's execution-tier tallies."""
    return dict(_TIER_STATS)


def tier_stats_delta(before: dict) -> dict:
    """The tallies accumulated since ``before`` (a prior snapshot).

    How chunk workers report their tier/lane accounting back to the
    supervisor without ever touching the report JSON: the worker
    snapshots on entry, executes, and returns the difference.
    """
    return {
        key: value - before.get(key, 0)
        for key, value in _TIER_STATS.items()
    }


def reset_tier_stats() -> None:
    """Zero the process tallies (between campaigns in one process)."""
    for key in _TIER_STATS:
        _TIER_STATS[key] = 0


def _observation(result: RunResult, observables: dict) -> Observation:
    detail = result.detail
    return Observation(
        status=result.status.value,
        faults=len(result.faults),
        boots=result.boots,
        reboots=result.reboots,
        observables=observables,
        detail=None if detail is None else str(detail),
    )


def _install_injectors(target, plan: FaultPlan) -> list:
    injectors = []
    if plan.mode == "op_index" and plan.ops_schedule:
        injectors.append(ScheduledBrownouts(target, list(plan.ops_schedule)))
    elif plan.mode == "energy_level" and plan.energy_levels:
        injectors.append(EnergyLevelTrigger(target, list(plan.energy_levels)))
    elif plan.mode == "commit_boundary" and plan.commit_counts:
        injectors.append(CommitBoundaryTrigger(target, list(plan.commit_counts)))
    return injectors


def run_intermittent_leg(
    config: CampaignConfig, adapter, plan: FaultPlan, leg_seed: int
) -> tuple[Observation, list[int], int]:
    """One intermittent execution under a fault plan.

    Returns the observation, the recorded brown-out schedule (ops per
    boot), and the number of injected brown-outs.
    """
    sim = Simulator(seed=leg_seed)
    # Campaign legs never read the trace store (observations come from
    # the adapter and the recorder hooks); heartbeat GPIO edges and
    # power transitions record at a rate that is measurable across a
    # fleet, so keep the channel dark.  The capture replay, which DOES
    # consume traces, builds its own simulator with tracing on.
    sim.trace.enabled = False
    target = make_fast_target(
        sim, distance_m=plan.distance_m, fading_sigma=plan.fading_sigma
    )
    if plan.duty is not None and isinstance(target.power.source, RFHarvester):
        target.power.source.duty_period = plan.duty[0]
        target.power.source.duty_fraction = plan.duty[1]
    program = adapter.build(config.protect, config.iterations)
    executor = IntermittentExecutor(sim, target, program)
    executor.flash()
    recorder = RebootRecorder(target)
    injectors = _install_injectors(target, plan)
    if plan.flips:
        injectors.append(
            StateCorruptor(
                target,
                adapter.state_ranges(program, executor.api),
                list(plan.flips),
            )
        )
    with RunWatchdog(target, config.max_cycles, config.max_wall_s):
        result = executor.run(duration=config.duration, stop_on_fault=True)
    _harvest_tier_stats(target)
    observation = _observation(result, adapter.observe(program, executor.api))
    injected = sum(getattr(i, "injections", 0) for i in injectors)
    return observation, recorder.schedule(), injected


def run_continuous_leg(
    config: CampaignConfig, adapter, leg_seed: int
) -> Observation:
    """The control: the same program on continuous (tethered) power."""
    sim = Simulator(seed=leg_seed)
    sim.trace.enabled = False  # see run_intermittent_leg
    target = make_fast_target(sim)
    program = adapter.build(config.protect, config.iterations)
    executor = IntermittentExecutor(sim, target, program)
    executor.flash()
    with RunWatchdog(target, config.max_cycles, config.max_wall_s):
        result = executor.run_continuous(duration=config.duration)
    _harvest_tier_stats(target)
    return _observation(result, adapter.observe(program, executor.api))


def replay_with_schedule(
    config: CampaignConfig, adapter, schedule: list[int]
) -> Observation:
    """Replay a brown-out schedule on a bench supply.

    The bench target never browns out organically (§4.2's emulated
    intermittence): the schedule is the *only* source of power
    failures, so a candidate schedule either reproduces the divergence
    or it does not — the exact property the shrinker needs.
    """
    sim = Simulator(seed=derive_seed(config.seed, "replay"))
    sim.trace.enabled = False  # see run_intermittent_leg
    target = make_bench_target(sim)
    program = adapter.build(config.protect, config.iterations)
    executor = IntermittentExecutor(sim, target, program)
    executor.flash()
    ScheduledBrownouts(target, list(schedule))
    with RunWatchdog(target, config.max_cycles, config.max_wall_s):
        result = executor.run(duration=config.duration, stop_on_fault=True)
    _harvest_tier_stats(target)
    return _observation(result, adapter.observe(program, executor.api))


def execute_run(
    config: CampaignConfig, index: int, *, snapshot: bool = False
) -> dict:
    """Execute campaign run ``index``: both legs plus the oracle ruling.

    The returned record is a plain JSON-ready dict (it crosses process
    boundaries and lands in the report).  Exceptions propagate —
    :func:`execute_run_safe` is the supervised wrapper that classifies
    them into the error taxonomy.

    ``snapshot`` is an execution-only switch (never part of the config,
    so it never appears in reports): it reuses the memoized continuous
    control leg (see :mod:`repro.campaign.forking`), which is verified
    bit-identical to running the leg from reset.
    """
    adapter = get_adapter(config.app)
    if hasattr(adapter, "prepare"):
        # Optional adapter hook: lets an adapter specialise per run
        # (the chaos adapter keys its misbehaviour off the run index).
        adapter.prepare(config, index)
    run_seed = derive_seed(config.seed, "run", index)
    plan = plan_faults(config, random.Random(derive_seed(run_seed, "plan")))
    try:
        intermittent, schedule, injected = run_intermittent_leg(
            config, adapter, plan, derive_seed(run_seed, "intermittent")
        )
        if snapshot:
            from repro.campaign.forking import continuous_observation

            continuous = continuous_observation(
                config, adapter, derive_seed(run_seed, "continuous")
            )
        else:
            continuous = run_continuous_leg(
                config, adapter, derive_seed(run_seed, "continuous")
            )
    except BudgetExceeded:
        raise  # classified as budget_exceeded, not as a guest fault
    except Exception as exc:
        # Anything a leg raises past the executor's own handling came
        # from simulating the guest — classify it on the guest side.
        raise GuestFault.wrap(exc, detail="raised while executing a leg") from exc
    verdict = compare(intermittent, continuous, adapter.invariant_keys)
    return {
        "index": index,
        "seed": run_seed,
        "plan": plan.to_dict(),
        "injected_reboots": injected,
        "observed_schedule": schedule,
        "intermittent": intermittent.to_dict(),
        "continuous": continuous.to_dict(),
        "verdict": verdict.to_dict(),
    }


def execute_run_safe(
    config: CampaignConfig, index: int, *, snapshot: bool = False
) -> dict:
    """Supervised :func:`execute_run`: always returns exactly one record.

    This is what worker processes (and the serial path) actually
    execute.  Any failure is folded into the structured error taxonomy
    (:mod:`repro.campaign.errors`) instead of propagating, so a single
    poisoned run can never take down its chunk, and every run index is
    accounted for in the report.  ``KeyboardInterrupt`` still
    propagates — interrupting the campaign is the supervisor's call,
    not a per-run error.
    """
    try:
        with time_limit(config.max_wall_s):
            return execute_run(config, index, snapshot=snapshot)
    except BudgetExceeded as exc:
        # A budget expired outside a leg's own handling (e.g. the
        # SIGALRM fired during planning, observation, or the oracle).
        return error_record(
            config, index, BudgetError.wrap(exc, detail="outside a leg")
        )
    except RunError as exc:
        return error_record(config, index, exc)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - the supervision boundary
        # Not guest execution and not a classified error: the engine
        # itself failed (planning, adapter lookup, record assembly).
        return error_record(
            config, index, HostFault.wrap(exc, detail="outside guest execution")
        )


def verdict_for_schedule(
    config: CampaignConfig, adapter, continuous: Observation, schedule: list[int]
) -> Verdict:
    """The oracle's ruling on a bench replay of ``schedule``."""
    observation = replay_with_schedule(config, adapter, schedule)
    return compare(observation, continuous, adapter.invariant_keys)


def capture_divergence(config: CampaignConfig, record: dict) -> dict | None:
    """Re-run a diverging run with EDB attached in passive mode.

    Returns the monitor's divergence context (energy tail, watchpoint
    hit counts, printf output) — the correlated streams a developer
    would inspect in the console.  The debugger's leakage makes this
    leg's trajectory differ slightly from the recorded one, which is
    fine: the capture is diagnostic garnish, never oracle input.

    Precisely because the capture leg's trajectory differs, the replay
    may fail to reproduce anything — or raise outright.  The capture is
    a post-pass over an already-complete record, so a replay failure is
    folded into a conservative ``{"unreproduced": ...}`` note rather
    than allowed to propagate and sink the campaign.
    """
    from repro.core.debugger import EDB  # deferred: core pulls in the board stack

    adapter = get_adapter(config.app)
    run_seed = record["seed"]
    try:
        plan = plan_faults(config, random.Random(derive_seed(run_seed, "plan")))
        sim = Simulator(seed=derive_seed(run_seed, "capture"))
        target = make_fast_target(
            sim, distance_m=plan.distance_m, fading_sigma=plan.fading_sigma
        )
        edb = EDB(sim, target)
        edb.trace("energy")
        edb.trace("watchpoints")
        program = adapter.build(config.protect, config.iterations)
        executor = IntermittentExecutor(sim, target, program, edb=edb.libedb())
        executor.flash()
        _install_injectors(target, plan)
        with RunWatchdog(target, config.max_cycles, config.max_wall_s):
            executor.run(duration=config.duration, stop_on_fault=True)
        return edb.divergence_context()
    except Exception as exc:
        return {
            "unreproduced": (
                f"capture replay did not complete: "
                f"{type(exc).__name__}: {exc}"
            )
        }
