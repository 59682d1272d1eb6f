"""Per-run execution: the intermittent leg, the control leg, replays.

A campaign run is a :class:`Run`: its index, seed, fault plan and app
adapter, whether a sampled run (:func:`sampled_run`) or a fuzz genotype
(:func:`repro.campaign.fuzz.fuzz_run`).  :func:`execute_legs` runs both
of its legs from reset and rules on them; :func:`execute_safe` is the
supervised form worker processes execute.  Each leg starts from a
freshly built simulator, power system and target, and a fresh program
(:func:`build_leg`), so runs share no state and can be computed in any
order, in any process, with identical results.

Under ``snapshot=True`` a from-reset leg may get a *warm* device
instead of building one: each process keeps a few built devices, keyed
on what builds them (target kind, harvesting environment, dispatch
mode), each with a snapshot taken right after it was built.  A
warm leg restores that snapshot and the device's hook wiring, reseeds
the RNG hub with the leg seed, then builds the program and flashes as
a cold leg does — so the device it runs on is indistinguishable from a
new one, except that translated blocks of an unchanged image survive
the re-flash.  ``snapshot=False`` never uses the pool; the table in
``docs/PERF.md`` says which execution path passes which.

Seeding discipline: the run's seed is
``derive_seed(config.seed, "run", index)``; everything inside the run
(the fault plan, each leg's simulator) derives from it.  Nothing reads
the global ``random`` module or the wall clock, which is what makes a
campaign's report byte-identical across repetitions and worker counts.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

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
from repro.mcu.coverage import CoverageRecorder
from repro.mcu.device import dispatch_mode
from repro.power.harvester import RFHarvester
from repro.runtime.executor import IntermittentExecutor, RunResult
from repro.sim.kernel import BudgetExceeded, Simulator
from repro.sim.rng import derive_seed
# Called through the module so whatever wraps ``repro.snapshot``'s
# capture and restore also sees the pool's.
import repro.snapshot as snapshots
from repro.testing import make_bench_target, make_fast_target, time_limit


#: Process-local tallies of which execution tier served the legs this
#: process simulated: block translation and lane batching
#: (``batch_spans`` counts leader boundaries checked against live lanes,
#: see :func:`note_lane_stats`).  Diagnostic plumbing only — the
#: snapshot never enters a campaign report (reports are byte-pinned for
#: identical seeds); worker processes keep their own tallies and hand
#: them back as :func:`tier_stats_delta` results.
_TIER_STATS = {
    "blocks_translated": 0,
    "blocks_executed": 0,
    "blocks_deopts": 0,
    "lanes_packed": 0,
    "lanes_peeled": 0,
    "batch_spans": 0,
    "peels_mid_boot": 0,
    "peel_units_skipped": 0,
}


def _harvest_tier_stats(target) -> None:
    """Fold one finished leg's tier counters into the process tallies."""
    stats = _TIER_STATS
    cpu = target.cpu
    stats["blocks_translated"] += cpu.blocks_translated
    stats["blocks_executed"] += cpu.blocks_executed
    stats["blocks_deopts"] += cpu.blocks_deopts


def note_lane_stats(
    *,
    packed: int = 0,
    peeled: int = 0,
    spans: int = 0,
    mid_boot: int = 0,
    skipped: int = 0,
) -> None:
    """Fold one batched group's lane accounting into the process tallies.

    ``packed`` counts lanes that entered the lane engine, ``peeled`` the
    subset peeled back into the scalar path mid-run, and ``spans`` the
    leader's boundaries checked against live lanes (every pause until
    the last lane peeled).
    ``mid_boot`` counts the peels served from a mid-boot node and
    ``skipped`` the boot units those nodes spared them.
    """
    _TIER_STATS["lanes_packed"] += packed
    _TIER_STATS["lanes_peeled"] += peeled
    _TIER_STATS["batch_spans"] += spans
    _TIER_STATS["peels_mid_boot"] += mid_boot
    _TIER_STATS["peel_units_skipped"] += skipped


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


class Run(NamedTuple):
    """One campaign run's inputs, in either campaign mode.

    ``shape`` (fuzz genotypes only) finishes the record in place:
    ``shape(record, coverage)`` adds the mode's own key from the
    intermittent leg's coverage recorder.  Runs with a shape record
    coverage on that leg; runs without one do not.
    """

    index: int
    seed: int
    plan: FaultPlan
    adapter: object
    shape: Callable | None = None


def sampled_run(config: CampaignConfig, adapter, index: int) -> Run:
    """Sampling run ``index``: its fault plan drawn from the run seed."""
    run_seed = derive_seed(config.seed, "run", index)
    plan = plan_faults(config, random.Random(derive_seed(run_seed, "plan")))
    return Run(index, run_seed, plan, adapter)


def planned_runs(config: CampaignConfig, work: list) -> list[Run]:
    """The runs behind a chunk's work items.

    Work items are run indices, or genotype jobs in fuzz mode.  Every
    run of the chunk shares one adapter object (the memos key on it).
    """
    adapter = get_adapter(config.app)
    if config.mode == "fuzz":
        from repro.campaign.fuzz import fuzz_run  # deferred: fuzz imports runner

        return [fuzz_run(config, adapter, job) for job in work]
    return [sampled_run(config, adapter, index) for index in work]


def _harvested_target(sim: Simulator, plan: FaultPlan):
    """A target harvesting in ``plan``'s environment: distance, fading, duty."""
    target = make_fast_target(
        sim, distance_m=plan.distance_m, fading_sigma=plan.fading_sigma
    )
    if plan.duty is not None and isinstance(target.power.source, RFHarvester):
        target.power.source.duty_period = plan.duty[0]
        target.power.source.duty_fraction = plan.duty[1]
    return target


def _new_device(leg_seed: int, plan: FaultPlan | None, bench: bool) -> tuple:
    """A newly built ``(sim, target)`` of the kind :func:`build_leg` asks for."""
    sim = Simulator(seed=leg_seed)
    # Campaign legs never read the trace store (observations come from
    # the adapter and the recorder hooks); heartbeat GPIO edges and
    # power transitions record at a rate that is measurable across a
    # fleet, so keep the channel dark.  The capture replay, which DOES
    # consume traces, builds its own simulator with tracing on.
    sim.trace.enabled = False
    if bench:
        target = make_bench_target(sim)
    elif plan is None:
        target = make_fast_target(sim)
    else:
        target = _harvested_target(sim, plan)
    return sim, target


#: Built devices kept per process for warm legs, at most
#: ``_DEVICE_POOL_SIZE``, least recently used evicted first.  A fuzz
#: campaign needs at most three (harvested, tethered, bench).
_DEVICE_POOL_SIZE = 4

#: Device key -> ``(sim, target, node, wiring)``: the device, the
#: snapshot taken right after it was built, and its hook wiring then.
_device_pool: dict[tuple, tuple] = {}

#: Keys built cold lately, at most ``_RECENT_KEYS_SIZE``, oldest dropped
#: first.  Only a key seen here is captured on its next cold build, so
#: environments that never repeat (a sampled campaign's random draws)
#: cost no capture and leave nothing behind.
_RECENT_KEYS_SIZE = 32
_recent_keys: dict[tuple, None] = {}


def _device_key(plan: FaultPlan | None, bench: bool) -> tuple:
    # Everything the build reads besides the seed, which is reseeded:
    # the target kind, the harvesting environment, and the dispatch
    # mode a device reads when it is built.
    if bench:
        shape: tuple = ("bench",)
    elif plan is None:
        shape = ("tethered",)
    else:
        shape = ("harvested", plan.distance_m, plan.fading_sigma, plan.duty)
    return (*shape, dispatch_mode())


def _pooled_device(leg_seed: int, plan: FaultPlan | None, bench: bool) -> tuple:
    """``(sim, target)`` as if newly built: warm from the pool if possible."""
    key = _device_key(plan, bench)
    entry = _device_pool.pop(key, None)
    if entry is not None:
        sim, target, node, wiring = entry
        try:
            snapshots.restore(target, node)
        except snapshots.SnapshotIntegrityError:
            pass  # the entry stays evicted; build cold
        else:
            snapshots.restore_wiring(target, wiring)
            sim.rng.reseed(leg_seed)
            _device_pool[key] = entry
            return sim, target
    sim, target = _new_device(leg_seed, plan, bench)
    if key not in _recent_keys:
        _recent_keys[key] = None
        while len(_recent_keys) > _RECENT_KEYS_SIZE:
            del _recent_keys[next(iter(_recent_keys))]
    elif sim.rng.untouched:
        # A seed-dependent build cannot serve another seed: keep only a
        # device whose construction drew no randomness.
        del _recent_keys[key]
        _device_pool[key] = (
            sim, target, snapshots.capture(target), snapshots.capture_wiring(target)
        )
        while len(_device_pool) > _DEVICE_POOL_SIZE:
            del _device_pool[next(iter(_device_pool))]
    return sim, target


def build_leg(
    config: CampaignConfig,
    adapter,
    leg_seed: int,
    plan: FaultPlan | None = None,
    *,
    bench: bool = False,
    coverage: CoverageRecorder | None = None,
    snapshot: bool = False,
) -> tuple:
    """Build one leg's device, flashed and ready to run.

    The target is harvested from ``plan`` (distance, fading, duty), the
    bench supply with ``bench``, or otherwise the tethered control
    target.  With ``snapshot`` the device may be a warm one from this
    process's pool (see the module docstring); it is valid until the
    next pooled build of the same kind, so only legs that finish before
    building another pass it.  ``coverage`` is attached before flash,
    so flash-time execution is recorded the same way on every path.
    Callers install the recorder, then the injectors, then the
    watchdog: the order their hooks and watches fire in is
    behaviourally significant.  Returns ``(sim, target, program,
    executor)``.
    """
    if snapshot:
        sim, target = _pooled_device(leg_seed, plan, bench)
    else:
        sim, target = _new_device(leg_seed, plan, bench)
    if coverage is not None:
        target.cpu.coverage = coverage
    program = adapter.build(config.protect, config.iterations)
    executor = IntermittentExecutor(sim, target, program)
    executor.flash()
    return sim, target, program, executor


def run_intermittent_leg(
    config: CampaignConfig,
    adapter,
    plan: FaultPlan,
    leg_seed: int,
    coverage: CoverageRecorder | None = None,
    *,
    snapshot: bool = False,
) -> tuple[Observation, list[int], int]:
    """One intermittent execution under a fault plan.

    Returns the observation, the recorded brown-out schedule (ops per
    boot), and the number of injected brown-outs.  ``coverage``, when
    given, records the leg's block entries; ``snapshot`` lets the leg
    run on a warm device (see :func:`build_leg`).
    """
    sim, target, program, executor = build_leg(
        config, adapter, leg_seed, plan, coverage=coverage, snapshot=snapshot
    )
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


def _run_continuous(
    config: CampaignConfig, adapter, leg_seed: int, *, snapshot: bool = False
) -> tuple[Observation, bool]:
    """The control leg, and whether it consumed zero randomness."""
    sim, target, program, executor = build_leg(
        config, adapter, leg_seed, snapshot=snapshot
    )
    with RunWatchdog(target, config.max_cycles, config.max_wall_s):
        result = executor.run_continuous(duration=config.duration)
    _harvest_tier_stats(target)
    observation = _observation(result, adapter.observe(program, executor.api))
    return observation, sim.rng.untouched


def run_continuous_leg(
    config: CampaignConfig, adapter, leg_seed: int, *, snapshot: bool = False
) -> Observation:
    """The control: the same program on continuous (tethered) power."""
    return _run_continuous(config, adapter, leg_seed, snapshot=snapshot)[0]


def replay_with_schedule(
    config: CampaignConfig, adapter, schedule: list[int], *, snapshot: bool = False
) -> Observation:
    """Replay a brown-out schedule on a bench supply.

    The bench target never browns out organically (§4.2's emulated
    intermittence): the schedule is the *only* source of power
    failures, so a candidate schedule either reproduces the divergence
    or it does not — the exact property the shrinker needs.
    """
    sim, target, program, executor = build_leg(
        config, adapter, derive_seed(config.seed, "replay"), bench=True,
        snapshot=snapshot,
    )
    ScheduledBrownouts(target, list(schedule))
    with RunWatchdog(target, config.max_cycles, config.max_wall_s):
        result = executor.run(duration=config.duration, stop_on_fault=True)
    _harvest_tier_stats(target)
    return _observation(result, adapter.observe(program, executor.api))


def run_record(
    run: Run,
    intermittent: Observation,
    schedule: list[int],
    injected: int,
    continuous: Observation,
    coverage: CoverageRecorder | None,
) -> dict:
    """The oracle's ruling on both legs, as a JSON-ready run record."""
    verdict = compare(intermittent, continuous, run.adapter.invariant_keys)
    record = {
        "index": run.index,
        "seed": run.seed,
        "plan": run.plan.to_dict(),
        "injected_reboots": injected,
        "observed_schedule": schedule,
        "intermittent": intermittent.to_dict(),
        "continuous": continuous.to_dict(),
        "verdict": verdict.to_dict(),
    }
    if run.shape is not None:
        run.shape(record, coverage)
    return record


def execute_legs(config: CampaignConfig, run: Run, *, snapshot: bool) -> dict:
    """Run both legs of ``run`` from reset and rule on them.

    The returned record is a plain JSON-ready dict (it crosses process
    boundaries and lands in the report).  Exceptions propagate —
    :func:`execute_safe` is the supervised wrapper that classifies them
    into the error taxonomy.

    ``snapshot`` reuses the memoized continuous control leg (see
    :mod:`repro.campaign.forking`), which is verified bit-identical to
    running the leg from reset, and runs both legs on warm devices (see
    :func:`build_leg`).
    """
    adapter = run.adapter
    if hasattr(adapter, "prepare"):
        # Optional adapter hook: lets an adapter specialise per run
        # (the chaos adapter keys its misbehaviour off the run index).
        adapter.prepare(config, run.index)
    coverage = CoverageRecorder() if run.shape is not None else None
    try:
        intermittent, schedule, injected = run_intermittent_leg(
            config, adapter, run.plan, derive_seed(run.seed, "intermittent"),
            coverage, snapshot=snapshot,
        )
        if snapshot:
            from repro.campaign.forking import continuous_observation

            continuous = continuous_observation(
                config, adapter, derive_seed(run.seed, "continuous")
            )
        else:
            continuous = run_continuous_leg(
                config, adapter, derive_seed(run.seed, "continuous")
            )
    except BudgetExceeded:
        raise  # classified as budget_exceeded, not as a guest fault
    except Exception as exc:
        # Anything a leg raises past the executor's own handling came
        # from simulating the guest — classify it on the guest side.
        raise GuestFault.wrap(exc, detail="raised while executing a leg") from exc
    return run_record(
        run, intermittent, schedule, injected, continuous, coverage
    )


def execute_run(
    config: CampaignConfig, index: int, *, snapshot: bool = False
) -> dict:
    """Execute sampling campaign run ``index``: see :func:`execute_legs`."""
    run = sampled_run(config, get_adapter(config.app), index)
    return execute_legs(config, run, snapshot=snapshot)


def _supervised(config: CampaignConfig, index: int, execute: Callable) -> dict:
    """Call ``execute()`` under the run's wall-clock budget; one record.

    Any failure is folded into the structured error taxonomy
    (:mod:`repro.campaign.errors`) instead of propagating, so a single
    poisoned run can never take down its chunk, and every run index is
    accounted for in the report.  ``KeyboardInterrupt`` still
    propagates — interrupting the campaign is the supervisor's call,
    not a per-run error.
    """
    try:
        with time_limit(config.max_wall_s):
            return execute()
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


def execute_safe(config: CampaignConfig, run: Run, *, snapshot: bool) -> dict:
    """Supervised :func:`execute_legs`: always returns exactly one record.

    This is what worker processes (and the serial path) execute for
    every run that no fork group serves.  Error records carry only the
    common keys: a failed fuzz run has no coverage, and the corpus and
    coverage stanza tolerate that shape.
    """
    return _supervised(
        config, run.index, lambda: execute_legs(config, run, snapshot=snapshot)
    )


def execute_run_safe(
    config: CampaignConfig, index: int, *, snapshot: bool = False
) -> dict:
    """Supervised :func:`execute_run`, planning included."""
    return _supervised(
        config, index, lambda: execute_run(config, index, snapshot=snapshot)
    )


def verdict_for_schedule(
    config: CampaignConfig,
    adapter,
    continuous: Observation,
    schedule: list[int],
    *,
    snapshot: bool = False,
) -> Verdict:
    """The oracle's ruling on a bench replay of ``schedule``."""
    observation = replay_with_schedule(
        config, adapter, schedule, snapshot=snapshot
    )
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
        target = _harvested_target(sim, plan)
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
