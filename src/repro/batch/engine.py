"""The lane engine: one leader trajectory serves a whole batch of legs.

A fork-eligible campaign group (see ``forking._group_key``) is a set of
legs whose trajectories are deterministic functions of their injection
schedules alone: same app, same environment, zero fading, no corruption.
Until a leg's schedule actually fires, its trajectory is *identical* to
the fault-free one — so instead of stepping N interpreter loops, the
engine treats the group's legs as lanes and drives one shared **leader**
device fault-free through the ordinary block dispatch.  Every lane still
in the batch reuses the leader's trajectory: memoisation, not
vectorisation.

At every boot boundary (an organic brown-out parks the leader via a
``PowerSystem.on_power_change`` hook) the engine compares the boundary's
work count against every live lane's schedule.  Lanes whose schedule
fired inside the boot just finished are **peeled**: they re-enter the
scalar path by restoring the snapshot taken when that boot began, with
their real injector installed and its boot index synthesized from the
recorder state — bit-identical to a from-reset run arriving at the same
boundary.  Lanes whose schedules never fire are **clones**:
their observation *is* the leader's, by construction.

Peeling is always safe (the peeled leg replays exactly); only the clone
claim needs proof, and it is airtight: a ``ScheduledBrownouts`` lane
fires on boot ``b`` iff its entry ``S[b]`` is reached, i.e. iff
``S[b] <= ops(b)``; a ``CommitBoundaryTrigger`` lane fires iff its first
count is reached by the cumulative FRAM write tally.  The engine peels
on exactly those conditions (evaluated per boundary over the live lanes),
so a lane left in the batch provably never fired.

The leader depends only on the group's environment and app, never on
its schedules, so it runs **once per key per worker process**: the first
group with a key drives it to its end (no early stop when every lane
peels), capturing a node at every boot start, and keeps the device, the
boundaries, the terminal observation and the recorder schedule.  Every
group, the first included, then makes the same ``fired`` calls over the
stored boundaries; clones take the stored observation and peeled lanes
restore into the stored device.  The key is the adapter object, the
config fields the leg reads (app, protect, iterations, duration,
max_cycles, max_wall_s), the plan's mode, distance and duty, and the
``REPRO_NO_BLOCKCACHE``/``REPRO_FORCE_DEOPT`` switches the device reads
when it is built.  The borrowed seed is not in it: a leader is kept only
when its RNG hub stayed untouched, which makes the seed inert.  Never
kept: a leader that tripped the wall clock, hit a foreign stop, or drew
randomness; an entry whose hub reads touched after a group's replays
(or that fails mid-group) is dropped and that group falls back.  At
most ``_LEADER_MEMO_SIZE`` entries live at once.

Everything here honours the campaign's byte-identical report contract:
any leader failure, foreign stop request, wall-clock budget trip, or
violation of the zero-RNG honesty invariant makes the engine return
``None`` and the caller falls back to the scalar fork/from-reset paths.
"""

from __future__ import annotations

from repro.campaign.faults import (
    CommitBoundaryTrigger,
    FaultPlan,
    RebootRecorder,
    ScheduledBrownouts,
)
from repro.campaign.forking import (
    _program_state,
    _restore_program_state,
    _schedule_of,
    continuous_observation,
)
from repro.campaign.oracle import Observation
from repro.campaign.runner import (
    Run,
    _harvest_tier_stats,
    build_leg,
    note_lane_stats,
    run_record,
)
from repro.campaign.watchdog import RunWatchdog
from repro.mcu.device import _blockcache_disabled, _deopt_forced
from repro.power.supply import PowerState
from repro.runtime.executor import RunStatus
from repro.sim.rng import derive_seed
from repro.snapshot import DirtyTracker, capture, restore
from repro.testing import time_limit

_BOUNDARY = "lane-boundary"

#: First commit count of a lane with an empty commit schedule: larger
#: than any write tally a run can accumulate, so it never fires.
_NEVER = 1 << 62

#: Leaders kept per worker process, least recently used evicted first.
#: A campaign sweeps one environment per fork group key, so a handful
#: covers every key a chunk meets; each entry holds a device and one
#: differential snapshot per boot.
_LEADER_MEMO_SIZE = 4

_leader_memo: dict[tuple, _Leader] = {}


class _LaneSchedules:
    """The group's injection schedules and the lanes still in the batch."""

    def __init__(self, pending: list[Run], mode: str):
        self.mode = mode
        self.live = set(range(len(pending)))
        if mode == "op_index":
            self.ops = [_schedule_of(run.plan) for run in pending]
        else:
            self.first_commit = [
                run.plan.commit_counts[0] if run.plan.commit_counts else _NEVER
                for run in pending
            ]

    def fired(self, boot: int, boot_ops: int, writes_seen: int) -> list[int]:
        """Live lane indices whose schedule fired inside the boot just run.

        ``boot``/``boot_ops`` locate the boundary on the op-index axis
        (the boot's index and its completed work units); ``writes_seen``
        is the cumulative FRAM write tally for the commit axis.  A
        scheduled brown-out at entry ``S[boot]`` fires iff the boot's op
        counter reached it (``S[boot] <= boot_ops``); a commit trigger
        fires iff the write tally reached its first count.  Fired lanes
        leave the batch.
        """
        if self.mode == "op_index":
            lanes = sorted(
                lane for lane in self.live
                if boot < len(self.ops[lane])
                and self.ops[lane][boot] <= boot_ops
            )
        else:
            lanes = sorted(
                lane for lane in self.live
                if self.first_commit[lane] <= writes_seen
            )
        self.live.difference_update(lanes)
        return lanes


class _Leader:
    """One fault-free leader run, and the device it ran on.

    ``pauses`` lists every organic brown-out the leader parked at, in
    order, as ``(boundary, node)``: ``boundary`` is the
    ``(boot, boot_ops, writes)`` triple the lane schedules are checked
    against, ``node`` the snapshot captured as the next boot began.
    ``start`` is node 0 (the post-flash state, before boot 0) and
    ``end`` the terminal boundary.  The run is a function of the memo
    key alone, so a stored leader serves any group with that key: the
    group's schedules are checked against the stored boundaries and its
    peeled lanes replay on the stored device.
    """

    def __init__(self, config, adapter, plan: FaultPlan, sim_seed: int):
        self.config = config
        self.adapter = adapter
        self.mode = plan.mode
        sim, target, self.program, self.executor = build_leg(
            config, adapter, sim_seed, plan
        )
        self.sim, self.target = sim, target
        self.tracker = DirtyTracker(target.memory)
        self.recorder = RebootRecorder(target)
        # The real injector class with an empty schedule: inert during
        # the leader run, but its hooks and watch claim the same
        # positions a from-reset leg gives them (recorder, injector,
        # watchdog), and in commit mode its passive ``writes_seen``
        # tally doubles as the leader's FRAM write counter.
        if self.mode == "commit_boundary":
            self.injector = CommitBoundaryTrigger(target, [])
        else:
            self.injector = ScheduledBrownouts(target, [])
        self.watchdog = RunWatchdog(
            target, config.max_cycles, config.max_wall_s
        )
        self.deadline = sim.now + config.duration
        self.base_reboots = target.reboot_count
        self.start = self._capture(0)
        self.pauses: list[tuple[tuple[int, int, int], tuple]] = []

    def _capture(self, boots: int) -> tuple:
        return (
            capture(self.target, self.tracker),
            self.injector.export_state(),
            self.recorder.export_state(),
            _program_state(self.program),
            boots,
        )

    def _boundary(self) -> tuple[int, int, int]:
        writes = (
            self.injector.writes_seen if self.mode == "commit_boundary" else 0
        )
        return len(self.recorder.schedule()), self.target.boot_units, writes

    def run(self) -> bool:
        """Drive the leader to its end; ``False`` if it serves no group.

        A foreign stop request owns the run, and a draw from the RNG hub
        makes the trajectory depend on the borrowed seed: either way the
        group falls back to the scalar paths.
        """
        sim, target = self.sim, self.target
        config, adapter = self.config, self.adapter

        def pauser(state: PowerState) -> None:
            if state is PowerState.OFF:
                sim.request_stop(_BOUNDARY)

        target.power.on_power_change.append(pauser)
        boots = faults = 0
        try:
            with time_limit(config.max_wall_s):
                while True:
                    result = self.executor.run(
                        until=self.deadline, stop_on_fault=True
                    )
                    boots += result.boots
                    faults += len(result.faults)
                    if result.status is not RunStatus.INTERRUPTED:
                        break
                    if sim.stop_reason != _BOUNDARY:
                        return False
                    sim.clear_stop()
                    boundary = self._boundary()
                    self.pauses.append((boundary, self._capture(boots)))
        finally:
            # A brown-out landing exactly at the deadline leaves the
            # pause request pending past the terminal segment.
            sim.clear_stop()
            # The pause hook must not outlive the leader: forced
            # brown-outs during replays transition the power state too.
            target.power.on_power_change.remove(pauser)
        self.end = self._boundary()
        detail = None if result.detail is None else str(result.detail)
        # Host-timing noise must not speak for N records, nor be kept.
        self.wall_tripped = (
            result.status is RunStatus.NONTERMINATING
            and "wall-clock" in (detail or "")
        )
        self.observation = Observation(
            status=result.status.value,
            faults=faults,
            boots=boots,
            reboots=target.reboot_count - self.base_reboots,
            observables=adapter.observe(self.program, self.executor.api),
            detail=detail,
        )
        self.schedule = self.recorder.schedule()
        # Replays restore-and-zero the device tier counters, so harvest
        # the leader's tallies before the first restore.
        _harvest_tier_stats(target)
        return sim.rng.untouched

    def peels(self, lanes: _LaneSchedules) -> tuple[dict[int, tuple], int]:
        """The peel node of every lane that fires, and the spans used.

        The same ``fired`` calls, in the same order, that a leader run
        stopping once every lane peeled would make: one per pause, then
        (if lanes are left and the run is trustworthy) one for the
        terminal boot, which is idempotent for a boundary already seen
        (during a terminal charge phase the recorder still holds the
        previous boot's column, whose fired lanes are gone).
        """
        peel: dict[int, tuple] = {}
        node = self.start
        spans = 0
        for boundary, next_node in self.pauses:
            spans += 1
            for lane in lanes.fired(*boundary):
                peel[lane] = node
            if not lanes.live:
                return peel, spans
            node = next_node
        if not self.wall_tripped:
            for lane in lanes.fired(*self.end):
                peel[lane] = node
        return peel, spans

    def replay(
        self, node: tuple, plan: FaultPlan
    ) -> tuple[Observation, list, int]:
        """Re-run one peeled lane from its node with its real schedule."""
        sim, target = self.sim, self.target
        injector, recorder = self.injector, self.recorder
        snap, inj_state, rec_state, prog_state, node_boots = node
        # Lanes peeled at one boundary share its snapshot; restore()
        # re-verifies its CRC before touching the device.
        restore(target, snap, self.tracker)
        recorder.restore_state(rec_state)
        _restore_program_state(self.program, prog_state)
        if self.mode == "commit_boundary":
            injector.counts = sorted(int(c) for c in plan.commit_counts)
            # The inert leader trigger counted every FRAM write
            # without consuming counts: its exported state is
            # exactly the real trigger's at this boundary.
            injector.restore_state(inj_state)
        else:
            injector.schedule = [int(n) for n in plan.ops_schedule]
            # Synthesize from the recorder: a from-reset injector at
            # this boundary has consumed len(completed) reboots.
            completed, started = rec_state
            injector.restore_state(
                (len(completed), 0) if started else (-1, 0)
            )
        self.watchdog.rearm_wall()
        sim.clear_stop()
        try:
            result = self.executor.run(
                until=self.deadline, stop_on_fault=True
            )
            if result.status is RunStatus.INTERRUPTED:
                raise RuntimeError(
                    f"foreign stop request during lane replay: "
                    f"{sim.stop_reason!r}"
                )
        finally:
            sim.clear_stop()
        _harvest_tier_stats(target)
        observation = Observation(
            status=result.status.value,
            faults=len(result.faults),
            boots=node_boots + result.boots,
            reboots=target.reboot_count - self.base_reboots,
            observables=self.adapter.observe(self.program, self.executor.api),
            detail=None if result.detail is None else str(result.detail),
        )
        return observation, recorder.schedule(), injector.injections


def _leader_key(config, adapter, plan: FaultPlan) -> tuple:
    # Everything the leader's trajectory and observation depend on
    # besides the borrowed seed, which is proven inert before a leader
    # is kept: the adapter object (two adapters may share a name), the
    # config and environment, and the execution switches a device reads
    # when it is built.
    return (
        adapter,
        config.app,
        config.protect,
        config.iterations,
        config.duration,
        config.max_cycles,
        config.max_wall_s,
        plan.mode,
        plan.distance_m,
        plan.duty,
        _blockcache_disabled(),
        _deopt_forced(),
    )


def execute_batch_group(config, members: list[Run]) -> dict[int, dict] | None:
    """Execute one fork-eligible group through the lane engine.

    Returns a record per member index, or ``None`` when the group should
    fall back to the scalar paths (unsupported group, leader failure,
    wall-clock budget trip, honesty violation).  The records are
    byte-identical to what ``forking._execute_group`` produces — that is
    the whole contract, pinned by the differential suite in
    ``tests/test_batch.py`` and by the campaign golden.
    """
    if len(members) < 2:
        return None
    adapter = members[0].adapter
    if hasattr(adapter, "prepare"):
        return None
    plan0 = members[0].plan
    if plan0.mode not in ("op_index", "commit_boundary"):
        return None
    # Same ordering the scalar group path uses, so fallback parity is
    # trivially byte-stable; record order is re-established by index.
    pending = sorted(members, key=lambda run: _schedule_of(run.plan))
    lanes = _LaneSchedules(pending, plan0.mode)
    key = _leader_key(config, adapter, plan0)
    # Taken out while it serves: any failure below leaves it dropped.
    leader = _leader_memo.pop(key, None)
    try:
        if leader is None:
            leader = _Leader(
                config, adapter, plan0,
                derive_seed(pending[0].seed, "intermittent"),
            )
            if not leader.run():
                return None
        peel, spans = leader.peels(lanes)
        if lanes.live and leader.wall_tripped:
            return None
        records: dict[int, dict] = {}
        for position, run in enumerate(pending):
            with time_limit(config.max_wall_s):
                if position in peel:
                    intermittent, schedule, injected = leader.replay(
                        peel[position], run.plan
                    )
                else:
                    intermittent = leader.observation
                    schedule = list(leader.schedule)
                    injected = 0
                continuous = continuous_observation(
                    config, adapter, derive_seed(run.seed, "continuous")
                )
            records[run.index] = run_record(
                run, intermittent, schedule, injected, continuous, None
            )
    except KeyboardInterrupt:
        raise
    except BaseException:
        return None
    if not leader.sim.rng.untouched:
        # The honesty invariant failed: some draw made the shared
        # trajectory depend on the borrowed seed.
        return None
    if not leader.wall_tripped:
        _leader_memo[key] = leader
        while len(_leader_memo) > _LEADER_MEMO_SIZE:
            del _leader_memo[next(iter(_leader_memo))]
    note_lane_stats(packed=len(pending), peeled=len(peel), spans=spans)
    return records
