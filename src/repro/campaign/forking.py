"""Snapshot/fork execution: share campaign work instead of re-simulating.

:func:`execute_chunk` is the one chunk executor of every execution path
(``"reset"``, ``"warm"``, ``"lanes"``; the table in ``docs/PERF.md``
says what each serves).  Two snapshot-powered mechanisms sit behind
it, both bound by the campaign engine's byte-identical report contract:

- **Memoized control leg** (:func:`continuous_observation`).  The
  continuous-power leg runs tethered from flash to finish, so it never
  queries the harvester and never draws from a named RNG stream — its
  observation is independent of the leg seed.  One execution per worker
  process serves every run of the campaign.  The independence claim is
  *verified*, not assumed: the result is only cached when the leg's
  :class:`~repro.sim.rng.RngHub` stayed untouched.
- **The lane engine's leader** (:class:`ForkSession`).  One long-lived
  device runs a fault-free pass and keeps a node where each boot began
  (and, for ISA firmware, every few hundred boot units inside it); a
  peeled lane replays its own schedule from the latest node before it
  fires (:mod:`repro.batch.engine`).  :func:`execute_chunk` sends a
  sampled group to the engine when its runs share a deterministic
  environment (zero fading, equal distance and duty, no bit flips) and
  an adapter and differ only in their injection schedule, and only on
  the ``"lanes"`` path.  Every other run — singletons, fuzz genotypes,
  and the members of a group the engine gives up — runs both legs from
  reset, on a warm pooled device unless the path is ``"reset"``
  (:func:`repro.campaign.runner.build_leg`), which is cheap enough that
  sharing schedule prefixes between them does not pay.

Why the reports stay byte-identical: a node restores the *entire*
simulated world (memory, CPU, peripherals, capacitor voltage, clock,
event queue, RNG stream states) plus the injector/recorder progress
counters and the program's host-side scalar state, and the executor
resumes against the same absolute deadline (``run(until=...)`` — no
float re-derivation).  Until a schedule fires, its trajectory is the
fault-free one, so resuming from a node before the firing point
replays exactly the instruction/energy trajectory a from-reset run
would produce.  Sessions that could be perturbed by their borrowed
seed are ruled out up front (adapters with a ``prepare`` hook, plans
with fading or corruption) and double-checked after the fact
(``RngHub.untouched``); any violation or mid-session failure falls back
to the from-reset path for the affected runs.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from repro.campaign.config import CampaignConfig
from repro.campaign.faults import (
    CommitBoundaryTrigger,
    FaultPlan,
    RebootRecorder,
    ScheduledBrownouts,
)
from repro.campaign.oracle import Observation
from repro.campaign.runner import (
    Run,
    _harvest_tier_stats,
    _run_continuous,
    build_leg,
    execute_safe,
    planned_runs,
    run_continuous_leg,
)
from repro.campaign.watchdog import RunWatchdog
from repro.mcu.device import dispatch_mode
from repro.power.supply import PowerState
from repro.runtime.executor import RunStatus
from repro.snapshot import DirtyTracker, capture, restore

_BOUNDARY = "snapshot-boundary"


def _request_boundary(sim) -> None:
    """Pause at the next safe point, unless a stop is already pending.

    A boundary never replaces a pending reason: a stop someone else
    requested must reach :meth:`ForkSession._run`, which gives the run
    up to the from-reset path.
    """
    if not sim.stop_requested:
        sim.request_stop(_BOUNDARY)


#: Boot work units between the mid-boot nodes a fault-free pass keeps
#: (see :meth:`ForkSession.fault_free`): a peel replays fewer than this
#: many units of the leader's boot before its own schedule takes over.
MID_BOOT_SPACING = 512

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
#: ``_continuous_key(config)`` -> ``(adapter, dispatch mode)`` ->
#: observation.  The adapter is part of the identity: two adapters may
#: share an app name yet observe different things, and two stimuli
#: drive different programs.  So is the dispatch mode, so a leg run
#: under one mode never serves a campaign that asked for another.
_continuous_memo: dict[tuple, dict[tuple, Observation]] = {}


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
    # bad luck speak for the whole campaign (the control-leg memo and the
    # lane engine's leader memo both ask).  Cycle trips and every other
    # status are deterministic.
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
    memoized.  A fuzz genotype's adapter is bound to its stimulus and
    compares equal to every other binding of the same bytes, so one
    entry serves each stimulus.
    """
    if hasattr(adapter, "prepare"):
        return run_continuous_leg(config, adapter, leg_seed, snapshot=True)
    inner = (adapter, dispatch_mode())
    hit = _continuous_memo.get(_continuous_key(config), {}).get(inner)
    if hit is not None:
        return hit
    observation, untouched = _run_continuous(
        config, adapter, leg_seed, snapshot=True
    )
    if untouched and _memoizable(observation):
        _continuous_memo.setdefault(_continuous_key(config), {})[
            inner
        ] = observation
    return observation


# -- the fork session --------------------------------------------------------
class ForkSession:
    """One long-lived device executing many runs from snapshot nodes.

    The lane engine's leader (:mod:`repro.batch.engine`).  The session
    flashes once and owns the leg's device and its wiring: the
    recorder, the injector, the watchdog, the absolute deadline and the
    base reboot count.  A node is ``(snapshot, injector state, recorder
    state, program state, boots)``; restoring one resumes the whole
    simulated world where it was captured, and every run goes through
    one restore-and-run loop (:meth:`_run`).  Dirty-page tracking makes
    each capture proportional to the pages written since the previous
    one.  Two uses:

    - :meth:`fault_free` runs the empty schedule to its end, pausing at
      every organic power-off and keeping the node each boot began
      from (a *boot node*) and, for programs that resume mid-boot,
      a node every :data:`MID_BOOT_SPACING` units inside each boot (a
      *mid-boot node*);
    - :meth:`execute` replays one schedule from the latest such node
      before the schedule fires and caches nothing, so a session kept
      for a whole worker process does not grow.

    ``plan`` gives the harvested-power environment of a group of
    same-environment runs, recording each run's brown-out schedule.
    The session borrows ``sim_seed`` from one member's leg; the seed is
    sound for every schedule only while the trajectory consumes zero
    randomness, so callers check ``rng_untouched`` before trusting a
    result.
    """

    def __init__(
        self,
        config: CampaignConfig,
        adapter,
        plan: FaultPlan,
        sim_seed: int,
    ) -> None:
        self.adapter = adapter
        self.mode = plan.mode
        self.sim, self.target, self.program, self.executor = build_leg(
            config, adapter, sim_seed, plan
        )
        self.tracker = DirtyTracker(self.target.memory)
        self.recorder = RebootRecorder(self.target)
        if self.mode == "commit_boundary":
            self.injector = CommitBoundaryTrigger(self.target, [])
        else:
            self.injector = ScheduledBrownouts(self.target, [])
        self.watchdog = RunWatchdog(
            self.target, config.max_cycles, config.max_wall_s
        )
        # The same absolute deadline a from-reset run would compute at
        # its run() entry (post-flash ``now`` + duration), shared by
        # every segment of every schedule (see executor.run(until=...)).
        self._deadline = self.sim.now + config.duration
        self._base_reboots = self.target.reboot_count
        #: The node each fault-free boot began from (see fault_free).
        self._boots: list[tuple] = [self._capture_node(0)]
        #: Per fault-free boot, its mid-boot nodes as ``(boot_units,
        #: writes_seen, node)`` in capture order (see fault_free).
        self._mid: list[list[tuple[int, int, tuple]]] = [[]]

    # -- bookkeeping -------------------------------------------------------
    @property
    def rng_untouched(self) -> bool:
        """True while the session has consumed zero randomness."""
        return self.sim.rng.untouched

    def _capture_node(self, boots: int) -> tuple:
        return (
            capture(self.target, self.tracker),
            self.injector.export_state(),
            self.recorder.export_state(),
            _program_state(self.program),
            boots,
        )

    def _key(self, schedule) -> tuple[int, ...]:
        key = tuple(int(n) for n in schedule)
        return tuple(sorted(key)) if self.mode == "commit_boundary" else key

    def _writes_seen(self) -> int:
        """The commit trigger's FRAM write tally (0 on the op-index axis)."""
        return (
            self.injector.writes_seen if self.mode == "commit_boundary" else 0
        )

    # -- execution ---------------------------------------------------------
    def _run(
        self,
        node: tuple | None,
        key: tuple[int, ...],
        pause=None,
        mid_boot: bool = False,
    ) -> tuple[Observation, list[int], int]:
        """Restore ``node``, schedule ``key``, and run to the end of the leg.

        ``node=None`` runs on from the device's current state; with
        ``mid_boot`` the node was captured inside a boot, which the first
        segment continues (``executor.run(mid_boot=True)``).  Each stop
        at a boundary calls ``pause(boots)``, if given, and resumes; a
        stop anyone else requested owns the run, so it raises and the
        caller falls back to a from-reset leg.  Returns ``(observation,
        recorded_schedule, injections)`` exactly as the from-reset
        intermittent leg would.
        """
        boots = 0
        if node is not None:
            snap, inj_state, rec_state, prog_state, boots = node
            # Nodes are shared by every run resuming there; restore()
            # re-verifies the snapshot's CRC before touching the device.
            restore(self.target, snap, self.tracker)
            if self.mode == "commit_boundary":
                self.injector.counts = list(key)
            else:
                self.injector.schedule = list(key)
            self.injector.restore_state(inj_state)
            self.recorder.restore_state(rec_state)
            _restore_program_state(self.program, prog_state)
        sim = self.sim
        self.watchdog.rearm_wall()
        sim.clear_stop()
        faults = 0
        try:
            while True:
                result = self.executor.run(
                    until=self._deadline, stop_on_fault=True,
                    mid_boot=mid_boot,
                )
                mid_boot = False
                boots += result.boots
                faults += len(result.faults)
                if result.status is not RunStatus.INTERRUPTED:
                    break
                if sim.stop_reason != _BOUNDARY:
                    raise RuntimeError(
                        f"foreign stop request: {sim.stop_reason!r}"
                    )
                sim.clear_stop()
                if pause is not None:
                    pause(boots)
        finally:
            # A boundary landing exactly at the deadline (or just before
            # a completion) can leave a stop pending past the terminal
            # segment; never let it leak into the next run.
            sim.clear_stop()
        # Snapshot restore zeroes the device's tier counters, so the
        # counters here are exactly this run's delta — summing per run
        # keeps the process tallies double-count-free.
        _harvest_tier_stats(self.target)
        observation = Observation(
            status=result.status.value,
            faults=faults,
            boots=boots,
            reboots=self.target.reboot_count - self._base_reboots,
            observables=self.adapter.observe(self.program, self.executor.api),
            detail=None if result.detail is None else str(result.detail),
        )
        return observation, self.recorder.schedule(), self.injector.injections

    def fault_free(
        self,
    ) -> tuple[list[tuple[int, int, int]], Observation, list[int]]:
        """Run the empty schedule from flash to its end (the lane leader).

        The pass pauses at every organic power-off and keeps the node
        the next boot begins from.  Returns the ``(boot, boot_ops,
        writes)`` boundary of every pause and then of the end — the
        boot's index, its completed work units, and the FRAM write tally
        the commit trigger keeps while it never fires — with the
        observation and the recorded schedule.  Call it once, on a fresh
        session.

        For a program that resumes mid-boot (``mid_boot_resumable``:
        its boot is :func:`~repro.apps.isa_app.run_to_halt` and its host
        state scalar), the pass also keeps a node at the first
        ``step_block`` boundary past every :data:`MID_BOOT_SPACING` boot
        units, through the CPU's ``between_blocks`` probe, which is set
        only for this pass.  A high-level Python app keeps boot nodes
        only: its boot is a Python call stack no snapshot can hold.
        """
        sim, target, recorder = self.sim, self.target, self.recorder

        def boundary() -> tuple[int, int, int]:
            return (
                len(recorder.schedule()), target.boot_units,
                self._writes_seen(),
            )

        boundaries: list[tuple[int, int, int]] = []
        next_mid = MID_BOOT_SPACING

        def pause(boots: int) -> None:
            nonlocal next_mid
            boundaries.append(boundary())
            self._boots.append(self._capture_node(boots))
            self._mid.append([])
            next_mid = MID_BOOT_SPACING

        def between_blocks() -> None:
            nonlocal next_mid
            units = target.boot_units
            if units >= next_mid:
                next_mid = (units // MID_BOOT_SPACING + 1) * MID_BOOT_SPACING
                # Boots started so far, the one running included.
                node = self._capture_node(len(self._boots))
                self._mid[-1].append((units, self._writes_seen(), node))

        def pauser(state: PowerState) -> None:
            if state is PowerState.OFF:
                _request_boundary(sim)

        target.power.on_power_change.append(pauser)
        if getattr(self.program, "mid_boot_resumable", False):
            target.cpu.between_blocks = between_blocks
        try:
            observation, schedule, _ = self._run(None, (), pause)
        finally:
            # Forced brown-outs in later runs change the power state
            # too, and replays keep no nodes: neither hook may outlive
            # this pass.
            target.power.on_power_change.remove(pauser)
            target.cpu.between_blocks = None
        boundaries.append(boundary())
        return boundaries, observation, schedule

    def execute(
        self, boot: int, schedule
    ) -> tuple[Observation, list[int], int, int]:
        """Replay ``schedule`` from fault-free boot ``boot``'s latest node.

        The lane engine's peeled lane: its schedule first fires inside
        that boot, so until it fires its trajectory is the fault-free
        one.  The node is the boot's last mid-boot node still before the
        firing point — boot units strictly below the schedule's entry
        for the boot on the op-index axis, a write tally strictly below
        its first count on the commit axis — or else the node the boot
        began from.  Either node's injector state is the one a
        from-reset injector holds there: the inert pass injector counted
        every reboot and, in commit mode, every FRAM write, and never
        fired.  Nothing is cached.  Returns ``(observation,
        recorded_schedule, injections)`` exactly as the from-reset
        intermittent leg would, plus the boot units the node skipped (0
        from a boot node).
        """
        key = self._key(schedule)
        if self.mode == "commit_boundary":
            axis, fires_at = 1, key[0] if key else 0
        else:
            axis, fires_at = 0, key[boot] if boot < len(key) else 0
        mid = self._mid[boot]
        later = bisect_left(mid, fires_at, key=itemgetter(axis))
        if later:
            units, _, node = mid[later - 1]
            return (*self._run(node, key, mid_boot=True), units)
        return (*self._run(self._boots[boot], key), 0)


# -- chunk execution ---------------------------------------------------------
def _schedule_of(plan: FaultPlan) -> tuple[int, ...]:
    if plan.mode == "commit_boundary":
        return plan.commit_counts
    return plan.ops_schedule


def _group_key(run: Run):
    """Lane-engine group identity for ``run``, or ``None``.

    Eligibility is exactly the set of sampled runs whose intermittent
    leg is a deterministic function of its injection schedule: an
    adapter with no per-run ``prepare`` hook, a fixed environment (no
    fading — the only RNG consumer on the leg), no bit-flip corruption,
    and a schedule-driven injection axis.  Fuzz runs (with a ``shape``)
    run from reset: their records need the leg's own coverage recorder,
    which the engine's leader does not carry.
    """
    plan = run.plan
    if (
        run.shape is None
        and not hasattr(run.adapter, "prepare")
        and plan.fading_sigma == 0.0
        and not plan.flips
        and plan.mode in ("op_index", "commit_boundary")
    ):
        return (plan.mode, plan.distance_m, plan.duty, run.adapter)
    return None


def execute_chunk(
    config: CampaignConfig, work: list, path: str = "lanes"
) -> list[dict]:
    """Execute a chunk of runs along execution path ``path``.

    The worker entry point of every path; ``work`` holds run indices,
    or genotype jobs in fuzz mode (see
    :func:`repro.campaign.runner.planned_runs`).  Under ``"lanes"``,
    two or more runs sharing a group key (:func:`_group_key`) execute
    through the lane engine (:mod:`repro.batch.engine`).  Every other
    run, and every run of a group the engine gives up, runs from reset
    under supervision: on a warm device unless ``path`` is
    ``"reset"``.  The records are byte-identical on every path.
    """
    runs = planned_runs(config, work)
    groups: dict[object, list[Run]] = {}
    for run in runs:
        key = _group_key(run) if path == "lanes" else None
        groups.setdefault(
            ("solo", run.index) if key is None else key, []
        ).append(run)
    records: dict[int, dict] = {}
    for members in groups.values():
        if len(members) > 1:
            from repro.batch.engine import execute_batch_group  # deferred: no cycle

            batched = execute_batch_group(config, members)
            if batched is not None:
                records.update(batched)
                continue
        for run in members:
            records[run.index] = execute_safe(
                config, run, snapshot=path != "reset"
            )
    return [records[run.index] for run in runs]
