"""Snapshot/fork execution: share campaign prefixes instead of re-simulating.

Three snapshot-powered execution paths, all strictly optional (the
``--no-snapshot`` flag routes everything through the original
from-reset code) and all bound by the campaign engine's byte-identical
report contract:

- **Memoized control leg** (:func:`continuous_observation`).  The
  continuous-power leg runs tethered from flash to finish, so it never
  queries the harvester and never draws from a named RNG stream — its
  observation is independent of the leg seed.  One execution per worker
  process serves every run of the campaign.  The independence claim is
  *verified*, not assumed: the result is only cached when the leg's
  :class:`~repro.sim.rng.RngHub` stayed untouched.
- **Shrinker replay sessions** (:meth:`ForkSession.for_replay`).  ddmin
  probes replay brown-out schedules that share long prefixes; a session
  keeps one bench-supplied device alive, snapshots at every forced
  brown-out boundary, and replays each probe from the longest cached
  prefix instead of from reset.
- **Prefix-group forking** (:func:`execute_chunk`).  Runs whose fault
  plans share a deterministic environment (zero fading, equal distance
  and duty, no bit flips) and differ only in their injection schedule
  are executed through one session: the shared schedule prefix is
  simulated once, snapshotted at the divergence point, and the
  remaining legs fork from the snapshot.

Why the reports stay byte-identical: a boundary snapshot restores the
*entire* simulated world (memory, CPU, peripherals, capacitor voltage,
clock, event queue, RNG stream states) plus the injector/recorder
progress counters and the program's host-side scalar state, and the
executor resumes against the same absolute deadline (``run(until=...)``
— no float re-derivation).  The state at a forced-brown-out boundary is
a function of the consumed schedule prefix alone, so forking from the
snapshot replays exactly the instruction/energy trajectory a from-reset
run would produce.  Sessions that could be perturbed by their borrowed
seed are ruled out up front (adapters with a ``prepare`` hook, plans
with fading or corruption) and double-checked after the fact
(``RngHub.untouched``); any violation or mid-session failure falls back
to the legacy from-reset path for the affected runs.
"""

from __future__ import annotations

import random

from repro.campaign.apps import get_adapter
from repro.campaign.config import CampaignConfig
from repro.campaign.faults import (
    CommitBoundaryTrigger,
    FaultPlan,
    RebootRecorder,
    ScheduledBrownouts,
    plan_faults,
)
from repro.campaign.oracle import Observation, compare
from repro.campaign.watchdog import RunWatchdog
from repro.power.harvester import RFHarvester
from repro.runtime.executor import IntermittentExecutor, RunStatus
from repro.sim.kernel import Simulator
from repro.sim.rng import derive_seed
from repro.snapshot import DirtyTracker, capture, restore
from repro.testing import make_bench_target, make_fast_target, time_limit

_BOUNDARY = "snapshot-boundary"

#: Host-side program state worth snapshotting.  Every application in
#: the repo keeps its behavioural host state (iteration counters,
#: completion tallies) in plain scalar attributes; container/object
#: attributes (a task runtime, the task list) hold either configuration
#: or purely diagnostic counters that never feed back into behaviour.
_SCALAR = (bool, int, float, str, bytes, type(None))


def _program_state(program) -> dict:
    return {k: v for k, v in vars(program).items() if isinstance(v, _SCALAR)}


def _restore_program_state(program, state: dict) -> None:
    for name, value in state.items():
        setattr(program, name, value)


# -- the memoized continuous control leg ------------------------------------
#: ``_continuous_key(config)`` -> adapter object -> observation.  The
#: adapter is part of the identity: two adapters may share an app name
#: yet observe different things.
_continuous_memo: dict[tuple, dict[object, Observation]] = {}


def _continuous_key(config: CampaignConfig) -> tuple:
    # Everything in the config the control leg's trajectory can depend
    # on besides the leg seed — and the seed is proven inert before a
    # result is cached.
    return (
        config.app,
        config.protect,
        config.iterations,
        config.duration,
        config.max_cycles,
        config.max_wall_s,
    )


def _memoizable(observation: Observation) -> bool:
    # Wall-clock budget trips are host-timing noise; never let one run's
    # bad luck speak for the whole campaign.  Cycle trips and every
    # other status are deterministic.
    return observation.status != RunStatus.NONTERMINATING.value or (
        "wall-clock" not in (observation.detail or "")
    )


def continuous_observation(
    config: CampaignConfig, adapter, leg_seed: int
) -> Observation:
    """The continuous control leg, memoized per worker process.

    Bit-identical to :func:`repro.campaign.runner.run_continuous_leg`:
    a cache hit returns the observation of an execution that verifiably
    consumed zero randomness, making it independent of ``leg_seed``.
    Adapters with a ``prepare`` hook specialise per run and are never
    memoized.
    """
    from repro.campaign.runner import (  # deferred: no cycle
        _harvest_tier_stats,
        run_continuous_leg,
    )

    if hasattr(adapter, "prepare"):
        return run_continuous_leg(config, adapter, leg_seed)
    hit = _continuous_memo.get(_continuous_key(config), {}).get(adapter)
    if hit is not None:
        return hit
    sim = Simulator(seed=leg_seed)
    sim.trace.enabled = False  # see runner.run_intermittent_leg
    target = make_fast_target(sim)
    program = adapter.build(config.protect, config.iterations)
    executor = IntermittentExecutor(sim, target, program)
    executor.flash()
    with RunWatchdog(target, config.max_cycles, config.max_wall_s):
        result = executor.run_continuous(duration=config.duration)
    _harvest_tier_stats(target)
    observation = Observation(
        status=result.status.value,
        faults=len(result.faults),
        boots=result.boots,
        reboots=result.reboots,
        observables=adapter.observe(program, executor.api),
        detail=None if result.detail is None else str(result.detail),
    )
    if sim.rng.untouched and _memoizable(observation):
        _continuous_memo.setdefault(_continuous_key(config), {})[
            adapter
        ] = observation
    return observation


# -- pausing injectors -------------------------------------------------------
class _PausingBrownouts(ScheduledBrownouts):
    """ScheduledBrownouts that parks the executor at each forced failure.

    The stop request is observed at the top of the executor's reboot
    loop — *after* the program has taken the power failure exactly as it
    would from the plain injector — which makes the pause point a clean
    snapshot boundary: the device state there is a function of the
    consumed schedule prefix alone.
    """

    def _force(self) -> None:
        super()._force()
        self.device.sim.request_stop(_BOUNDARY)


class _PausingCommitTrigger(CommitBoundaryTrigger):
    """CommitBoundaryTrigger with the same pause-at-boundary behaviour."""

    def _force(self) -> None:
        super()._force()
        self.device.sim.request_stop(_BOUNDARY)


# -- the fork session --------------------------------------------------------
class ForkSession:
    """One long-lived device executing many runs that share prefixes.

    The session flashes once and keeps a snapshot chain keyed by the
    consumed injection prefix.  ``execute(schedule)`` restores the
    longest cached prefix of ``schedule``, simulates only the suffix,
    and caches every new boundary it crosses.  Dirty-page tracking makes
    each boundary capture proportional to the pages written since the
    previous capture.

    Construction mirrors the from-reset legs hook-for-hook (recorder,
    then injector, then watchdog) so the reboot-hook order and the
    watch firing order — which are behaviourally significant — match
    exactly.
    """

    def __init__(
        self,
        config: CampaignConfig,
        adapter,
        *,
        sim_seed: int,
        make_target,
        mode: str,
        record_schedule: bool,
    ) -> None:
        self.config = config
        self.adapter = adapter
        self.mode = mode
        self.sim = Simulator(seed=sim_seed)
        # Campaign legs never read the trace store; see
        # runner.run_intermittent_leg.
        self.sim.trace.enabled = False
        self.target = make_target(self.sim)
        self.program = adapter.build(config.protect, config.iterations)
        self.executor = IntermittentExecutor(self.sim, self.target, self.program)
        self.executor.flash()
        self.tracker = DirtyTracker(self.target.memory)
        self.recorder = RebootRecorder(self.target) if record_schedule else None
        if mode == "commit_boundary":
            self.injector = _PausingCommitTrigger(self.target, [])
        else:
            self.injector = _PausingBrownouts(self.target, [])
        self.watchdog = RunWatchdog(
            self.target, config.max_cycles, config.max_wall_s
        )
        # The same absolute deadline a from-reset run would compute at
        # its run() entry (post-flash ``now`` + duration), shared by
        # every segment of every schedule (see executor.run(until=...)).
        self._deadline = self.sim.now + config.duration
        self._base_reboots = self.target.reboot_count
        self._chain: dict[tuple[int, ...], tuple] = {}
        self._chain[()] = self._capture_node(0, (), None)

    @classmethod
    def for_replay(cls, config: CampaignConfig, adapter) -> "ForkSession":
        """A bench-supply session for the shrinker's ddmin probes."""
        return cls(
            config,
            adapter,
            sim_seed=derive_seed(config.seed, "replay"),
            make_target=make_bench_target,
            mode="op_index",
            record_schedule=False,
        )

    @classmethod
    def for_plan(
        cls, config: CampaignConfig, adapter, plan: FaultPlan, sim_seed: int
    ) -> "ForkSession":
        """A harvested-power session for a group of same-environment runs.

        ``sim_seed`` is borrowed from one member's intermittent leg; it
        is sound for the whole group only while the trajectory consumes
        zero randomness — the caller must check ``rng_untouched`` before
        trusting the session's results.
        """

        def make_target(sim: Simulator):
            target = make_fast_target(
                sim, distance_m=plan.distance_m, fading_sigma=plan.fading_sigma
            )
            if plan.duty is not None and isinstance(
                target.power.source, RFHarvester
            ):
                target.power.source.duty_period = plan.duty[0]
                target.power.source.duty_fraction = plan.duty[1]
            return target

        return cls(
            config,
            adapter,
            sim_seed=sim_seed,
            make_target=make_target,
            mode=plan.mode,
            record_schedule=True,
        )

    # -- bookkeeping -------------------------------------------------------
    @property
    def rng_untouched(self) -> bool:
        """True while the session has consumed zero randomness."""
        return self.sim.rng.untouched

    def _capture_node(self, boots: int, faults: tuple, first_fault) -> tuple:
        return (
            capture(self.target, self.tracker),
            self.injector.export_state(),
            self.recorder.export_state() if self.recorder else None,
            _program_state(self.program),
            (boots, faults, first_fault),
        )

    def _set_schedule(self, key: tuple[int, ...]) -> None:
        if self.mode == "commit_boundary":
            self.injector.counts = sorted(key)
        else:
            self.injector.schedule = list(key)

    def _consumed(self) -> int:
        """Schedule entries consumed at the current pause boundary."""
        if self.mode == "commit_boundary":
            return self.injector._index
        return self.injector._boot + 1

    # -- execution ---------------------------------------------------------
    def execute(
        self, schedule
    ) -> tuple[Observation, list[int], int]:
        """Run one schedule, forking from the longest cached prefix.

        Returns ``(observation, recorded_schedule, injections)`` exactly
        as the from-reset intermittent leg would; for replay sessions
        (no recorder) the recorded schedule is the input schedule.
        """
        key = tuple(int(n) for n in schedule)
        if self.mode == "commit_boundary":
            key = tuple(sorted(key))
        prefix: tuple[int, ...] = ()
        for k in range(len(key), 0, -1):
            if key[:k] in self._chain:
                prefix = key[:k]
                break
        snap, inj_state, rec_state, prog_state, meta = self._chain[prefix]
        restore(self.target, snap, self.tracker)
        self._set_schedule(key)
        self.injector.restore_state(inj_state)
        if self.recorder is not None:
            self.recorder.restore_state(rec_state)
        _restore_program_state(self.program, prog_state)
        self.watchdog.rearm_wall()
        self.sim.clear_stop()
        boots, faults, first_fault = meta
        faults = list(faults)
        status = RunStatus.TIMEOUT
        detail = None
        try:
            while True:
                result = self.executor.run(
                    until=self._deadline, stop_on_fault=True
                )
                boots += result.boots
                faults.extend(result.faults)
                if first_fault is None:
                    first_fault = result.first_fault_time
                if result.status is not RunStatus.INTERRUPTED:
                    status = result.status
                    detail = result.detail
                    break
                self.sim.clear_stop()
                consumed = self._consumed()
                if 0 < consumed <= len(key):
                    pkey = key[:consumed]
                    if pkey not in self._chain:
                        self._chain[pkey] = self._capture_node(
                            boots, tuple(faults), first_fault
                        )
        finally:
            # A force landing exactly at the deadline (or just before a
            # completion) can leave a stop pending past the terminal
            # segment; never let it leak into the next execute().
            self.sim.clear_stop()
        from repro.campaign.runner import _harvest_tier_stats  # no cycle

        # Snapshot restore zeroes the device's tier counters, so the
        # counters here are exactly this execute()'s delta — summing
        # per-execute keeps the process tallies double-count-free.
        _harvest_tier_stats(self.target)
        observation = Observation(
            status=status.value,
            faults=len(faults),
            boots=boots,
            reboots=self.target.reboot_count - self._base_reboots,
            observables=self.adapter.observe(self.program, self.executor.api),
            detail=None if detail is None else str(detail),
        )
        recorded = (
            self.recorder.schedule() if self.recorder is not None else list(key)
        )
        return observation, recorded, self.injector.injections


# -- prefix-grouped chunk execution ------------------------------------------
def _schedule_of(plan: FaultPlan) -> tuple[int, ...]:
    if plan.mode == "commit_boundary":
        return plan.commit_counts
    return plan.ops_schedule


def _group_key(plan: FaultPlan):
    """Group identity for fork-eligible plans, or ``None``.

    Eligibility is exactly the set of plans whose intermittent leg is a
    deterministic function of its injection schedule: a fixed
    environment (no fading — the only RNG consumer on the leg), no
    bit-flip corruption, and a schedule-driven injection axis.
    """
    if (
        plan.fading_sigma == 0.0
        and not plan.flips
        and plan.mode in ("op_index", "commit_boundary")
    ):
        return (plan.mode, plan.distance_m, plan.duty)
    return None


def execute_chunk(
    config: CampaignConfig, indices: list[int], batch: bool = True
) -> list[dict]:
    """Execute a chunk of runs, forking shared injection prefixes.

    The snapshot-mode worker entry point.  Runs whose plans are
    fork-eligible and share a group key execute through the lane engine
    (``batch`` on) or one :class:`ForkSession`; everything else (and
    every fallback) goes through the legacy supervised runner, so the
    records are byte-identical either way.
    ``batch`` is an execution-only switch like ``snapshot`` — it never
    enters the config or the report.
    """
    from repro.campaign.runner import execute_run_safe  # deferred: no cycle

    adapter = get_adapter(config.app)
    if hasattr(adapter, "prepare"):
        # Per-run specialisation (chaos): nothing is shareable.
        return [execute_run_safe(config, i, snapshot=True) for i in indices]
    groups: dict[object, list[tuple[int, int, FaultPlan]]] = {}
    for index in indices:
        run_seed = derive_seed(config.seed, "run", index)
        plan = plan_faults(
            config, random.Random(derive_seed(run_seed, "plan"))
        )
        key = _group_key(plan)
        groups.setdefault(
            key if key is not None else ("solo", index), []
        ).append((index, run_seed, plan))
    records: dict[int, dict] = {}
    for members in groups.values():
        if len(members) < 2:
            for index, _, _ in members:
                records[index] = execute_run_safe(config, index, snapshot=True)
            continue
        if batch:
            from repro.batch.engine import execute_batch_group  # deferred: no cycle

            batched = execute_batch_group(config, adapter, members)
            if batched is not None:
                records.update(batched)
                continue
        records.update(_execute_group(config, adapter, members))
    return [records[index] for index in indices]


def _execute_group(
    config: CampaignConfig,
    adapter,
    members: list[tuple[int, int, FaultPlan]],
) -> dict[int, dict]:
    """Execute one fork-eligible group through a shared session.

    Any mid-session failure, and any violation of the zero-RNG honesty
    invariant, sends the affected members back through the legacy
    from-reset path — which also re-raises (and therefore re-classifies)
    deterministic guest failures exactly as a non-snapshot campaign
    would record them.
    """
    from repro.campaign.runner import execute_run_safe  # deferred: no cycle

    # Lexicographic schedule order maximises prefix reuse between
    # consecutive members; record order is re-established by index.
    pending = sorted(members, key=lambda m: _schedule_of(m[2]))
    records: dict[int, dict] = {}
    fallback: list[tuple[int, int, FaultPlan]] = []
    session = None
    try:
        session = ForkSession.for_plan(
            config,
            adapter,
            pending[0][2],
            derive_seed(pending[0][1], "intermittent"),
        )
    except KeyboardInterrupt:
        raise
    except BaseException:
        fallback = pending
    if session is not None:
        for position, (index, run_seed, plan) in enumerate(pending):
            try:
                with time_limit(config.max_wall_s):
                    intermittent, schedule, injected = session.execute(
                        _schedule_of(plan)
                    )
                    continuous = continuous_observation(
                        config, adapter, derive_seed(run_seed, "continuous")
                    )
            except KeyboardInterrupt:
                raise
            except BaseException:
                # Session state is suspect after any failure: this
                # member and the rest of the group replay from reset.
                fallback = pending[position:]
                break
            verdict = compare(
                intermittent, continuous, adapter.invariant_keys
            )
            records[index] = {
                "index": index,
                "seed": run_seed,
                "plan": plan.to_dict(),
                "injected_reboots": injected,
                "observed_schedule": schedule,
                "intermittent": intermittent.to_dict(),
                "continuous": continuous.to_dict(),
                "verdict": verdict.to_dict(),
            }
        if not session.rng_untouched:
            # The honesty invariant failed: some draw made the
            # trajectory depend on the borrowed seed.  Nothing the
            # session produced can be trusted.
            records.clear()
            fallback = list(pending)
    for index, _, _ in fallback:
        records[index] = execute_run_safe(config, index, snapshot=True)
    return records
