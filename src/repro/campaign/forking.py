"""Snapshot/fork execution: share campaign prefixes instead of re-simulating.

Two snapshot-powered mechanisms, both strictly optional (the
``--no-snapshot`` flag routes everything through the original
from-reset code) and both bound by the campaign engine's byte-identical
report contract:

- **Memoized control leg** (:func:`continuous_observation`).  The
  continuous-power leg runs tethered from flash to finish, so it never
  queries the harvester and never draws from a named RNG stream — its
  observation is independent of the leg seed.  One execution per worker
  process serves every run of the campaign.  The independence claim is
  *verified*, not assumed: the result is only cached when the leg's
  :class:`~repro.sim.rng.RngHub` stayed untouched.
- **Fork sessions** (:class:`ForkSession`).  One long-lived device
  runs many legs from snapshot nodes, and every forked leg in the
  campaign runs on one: the shrinker's ddmin probes (a bench session
  replaying from the longest cached prefix); fork-eligible groups in
  :func:`execute_chunk` — runs whose plans share a deterministic
  environment (zero fading, equal distance and duty, no bit flips) and
  an adapter, and differ only in their injection schedule, so the
  shared schedule prefix is simulated once; and the lane engine
  (:mod:`repro.batch.engine`), whose leader is a session's fault-free
  pass and whose peeled lanes replay from its boot and mid-boot
  nodes.  Sampled runs and fuzz genotypes (whose adapter is bound to
  their stimulus) go through the same chunk and group code.

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
    run_record,
)
from repro.campaign.watchdog import RunWatchdog
from repro.mcu.coverage import CoverageRecorder
from repro.power.supply import PowerState
from repro.runtime.executor import RunStatus
from repro.sim.rng import derive_seed
from repro.snapshot import DirtyTracker, capture, restore
from repro.testing import time_limit

_BOUNDARY = "snapshot-boundary"

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
#: ``_continuous_key(config)`` -> adapter -> observation.  The adapter
#: is part of the identity: two adapters may share an app name yet
#: observe different things, and two stimuli drive different programs.
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
    hit = _continuous_memo.get(_continuous_key(config), {}).get(adapter)
    if hit is not None:
        return hit
    observation, untouched = _run_continuous(
        config, adapter, leg_seed, snapshot=True
    )
    if untouched and _memoizable(observation):
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
    consumed schedule prefix alone.  With an empty schedule it never
    forces, so the trajectory is the fault-free one.
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
    """One long-lived device executing many runs from snapshot nodes.

    The session flashes once and owns the leg's device and its wiring:
    the recorder, a pausing injector, the watchdog, the absolute
    deadline and the base reboot count.  A node is ``(snapshot,
    injector state, recorder state, program state, boots)``; restoring
    one resumes the whole simulated world where it was captured, and
    every run goes through one restore-and-run loop (:meth:`_run`).
    Dirty-page tracking makes each capture proportional to the pages
    written since the previous one.  Three uses:

    - :meth:`execute` restores the longest cached prefix of a schedule
      from the snapshot chain (keyed by the consumed injection prefix),
      simulates only the suffix, and caches every new boundary it
      crosses: prefix-group forking and shrinker replays;
    - :meth:`fault_free` runs the empty schedule to its end, pausing at
      every organic power-off and keeping the node each boot began
      from (a *boot node*) and, for programs that resume mid-boot,
      a node every :data:`MID_BOOT_SPACING` units inside each boot (a
      *mid-boot node*): the lane engine's leader;
    - :meth:`peel` replays one schedule from the latest such node
      before the schedule fires and caches nothing, so a session kept
      for a whole worker process does not grow.

    ``plan`` gives a harvested-power session for a group of
    same-environment runs, recording each run's brown-out schedule;
    without one the session replays schedules on the bench supply for
    the shrinker.  A group session borrows ``sim_seed`` from one
    member's leg; the seed is sound for every schedule only while the
    trajectory consumes zero randomness, so callers check
    ``rng_untouched`` before trusting a result.  ``coverage`` records
    block entries like a from-reset leg's.
    """

    def __init__(
        self,
        config: CampaignConfig,
        adapter,
        plan: FaultPlan | None,
        sim_seed: int,
        coverage: CoverageRecorder | None = None,
    ) -> None:
        self.config = config
        self.adapter = adapter
        self.mode = "op_index" if plan is None else plan.mode
        self.sim, self.target, self.program, self.executor = build_leg(
            config, adapter, sim_seed, plan, bench=plan is None,
            coverage=coverage,
        )
        self.tracker = DirtyTracker(self.target.memory)
        self.recorder = None if plan is None else RebootRecorder(self.target)
        if self.mode == "commit_boundary":
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
        self._chain[()] = self._capture_node(0)
        #: The node each fault-free boot began from (see fault_free).
        self._boots: list[tuple] = [self._chain[()]]
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
            self.recorder.export_state() if self.recorder else None,
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

    def _consumed(self) -> int:
        """Schedule entries consumed at the current pause boundary."""
        if self.mode == "commit_boundary":
            return self.injector._index
        return self.injector._boot + 1

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
        intermittent leg would; for replay sessions (no recorder) the
        recorded schedule is ``key``.
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
            if self.recorder is not None:
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
        recorded = (
            self.recorder.schedule() if self.recorder is not None else list(key)
        )
        return observation, recorded, self.injector.injections

    def execute(
        self, schedule
    ) -> tuple[Observation, list[int], int]:
        """Run one schedule, forking from the longest cached prefix.

        Returns ``(observation, recorded_schedule, injections)`` exactly
        as the from-reset intermittent leg would; for replay sessions
        (no recorder) the recorded schedule is the input schedule.
        """
        key = self._key(schedule)
        prefix: tuple[int, ...] = ()
        for k in range(len(key), 0, -1):
            if key[:k] in self._chain:
                prefix = key[:k]
                break

        def pause(boots: int) -> None:
            consumed = self._consumed()
            if 0 < consumed <= len(key) and key[:consumed] not in self._chain:
                self._chain[key[:consumed]] = self._capture_node(boots)

        return self._run(self._chain[prefix], key, pause)

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
        session with a plan.

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
                sim.request_stop(_BOUNDARY)

        target.power.on_power_change.append(pauser)
        if getattr(self.program, "mid_boot_resumable", False):
            target.cpu.between_blocks = between_blocks
        try:
            observation, schedule, _ = self._run(None, (), pause)
        finally:
            # Forced brown-outs in later runs change the power state
            # too, and peels keep no nodes: neither hook may outlive
            # this pass.
            target.power.on_power_change.remove(pauser)
            target.cpu.between_blocks = None
        boundaries.append(boundary())
        return boundaries, observation, schedule

    def peel(
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
        fired.  Nothing is cached.  Returns what :meth:`execute` does
        plus the boot units the node skipped (0 from a boot node).
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
    config: CampaignConfig, work: list, batch: bool = True
) -> list[dict]:
    """Execute a chunk of runs, forking shared injection prefixes.

    The snapshot-mode worker entry point; ``work`` holds run indices,
    or genotype jobs in fuzz mode (see
    :func:`repro.campaign.runner.planned_runs`).  Runs whose plans are
    fork-eligible and share a group key and an adapter execute through
    the lane engine (``batch`` on) or one :class:`ForkSession`;
    everything else (and every fallback) runs from reset under
    supervision, so the records are byte-identical either way.  Runs
    that record coverage never enter the lane engine: a per-run
    coverage recorder is exactly the state lock-stepped lanes cannot
    share.  ``batch`` is an execution-only switch like ``snapshot`` —
    it never enters the config or the report.
    """
    runs = planned_runs(config, work)
    if runs and hasattr(runs[0].adapter, "prepare"):
        # Per-run specialisation (chaos): nothing is shareable.
        return [execute_safe(config, run, snapshot=True) for run in runs]
    groups: dict[object, list[Run]] = {}
    for run in runs:
        key = _group_key(run.plan)
        groups.setdefault(
            ("solo", run.index) if key is None else (key, run.adapter), []
        ).append(run)
    records: dict[int, dict] = {}
    for members in groups.values():
        if len(members) < 2:
            for run in members:
                records[run.index] = execute_safe(config, run, snapshot=True)
            continue
        if batch and members[0].shape is None:
            from repro.batch.engine import execute_batch_group  # deferred: no cycle

            batched = execute_batch_group(config, members)
            if batched is not None:
                records.update(batched)
                continue
        records.update(_execute_group(config, members))
    return [records[run.index] for run in runs]


def _execute_group(config: CampaignConfig, members: list[Run]) -> dict[int, dict]:
    """Execute one fork-eligible group through a shared session.

    Every member shares the first member's adapter and environment.
    Any mid-session failure, and any violation of the zero-RNG honesty
    invariant, sends the affected members back through the from-reset
    path — which also re-raises (and therefore re-classifies)
    deterministic guest failures exactly as a non-snapshot campaign
    would record them.
    """
    # Lexicographic schedule order maximises prefix reuse between
    # consecutive members; record order is re-established by index.
    pending = sorted(members, key=lambda run: _schedule_of(run.plan))
    first = pending[0]
    records: dict[int, dict] = {}
    fallback: list[Run] = []
    session = None
    try:
        session = ForkSession(
            config,
            first.adapter,
            first.plan,
            derive_seed(first.seed, "intermittent"),
            CoverageRecorder() if first.shape is not None else None,
        )
    except KeyboardInterrupt:
        raise
    except BaseException:
        fallback = pending
    if session is not None:
        for position, run in enumerate(pending):
            try:
                with time_limit(config.max_wall_s):
                    intermittent, schedule, injected = session.execute(
                        _schedule_of(run.plan)
                    )
                    continuous = continuous_observation(
                        config, run.adapter, derive_seed(run.seed, "continuous")
                    )
            except KeyboardInterrupt:
                raise
            except BaseException:
                # Session state is suspect after any failure: this
                # member and the rest of the group replay from reset.
                fallback = pending[position:]
                break
            records[run.index] = run_record(
                run, intermittent, schedule, injected, continuous,
                session.target.cpu.coverage,
            )
        if not session.rng_untouched:
            # The honesty invariant failed: some draw made the
            # trajectory depend on the borrowed seed.  Nothing the
            # session produced can be trusted.
            records.clear()
            fallback = list(pending)
    for run in fallback:
        records[run.index] = execute_safe(config, run, snapshot=True)
    return records
