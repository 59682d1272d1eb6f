"""The lane engine: one fault-free leader serves a whole batch of legs.

A fork-eligible campaign group (see ``forking._group_key``) is a set of
two or more sampled legs whose trajectories are deterministic functions
of their injection schedules alone: same app, same environment, zero
fading, no corruption.  It is the campaign's one fork path; every other
leg runs from reset on a warm device.  Until a leg's schedule fires,
its trajectory *is* the fault-free one.  So the engine treats the
group's legs as lanes and runs one **leader**:
a :class:`~repro.campaign.forking.ForkSession` whose fault-free pass
pauses at every organic power-off and keeps the node each boot began
from.  Memoisation, not vectorisation.

Every boundary the pass returned is checked against the live lanes'
schedules (:class:`_LaneSchedules`).  Lanes whose schedule fired inside
the boot just finished are **peeled**: the session replays them with
their real schedule (``ForkSession.execute``) from the latest node of
that boot before the firing point, bit-identical to a from-reset run
arriving there.  The pass keeps two kinds of node: a *boot node* where
each boot began, and, for ISA firmware whose boot is ``run_to_halt``
over scalar host state, a *mid-boot node* every
``forking.MID_BOOT_SPACING`` (512) boot work units, so a peel replays
at most that many units of the leader's boot instead of the whole
pre-fault prefix.  A Python app keeps boot nodes only: a snapshot
cannot hold its call stack.  Lanes
whose schedules never fire are **clones**: their observation is the
leader's.  The clone claim is exact: a ``ScheduledBrownouts`` lane fires
on boot ``b`` iff its entry ``S[b] <= ops(b)``, a
``CommitBoundaryTrigger`` lane iff the cumulative FRAM write tally
reaches its first count, and those are the peel conditions.

The leader depends only on the group's environment and app, never on
its schedules, so it runs **once per key per worker process**
(``_leader_memo``, at most ``_LEADER_MEMO_SIZE`` entries, least recently
used evicted first).  The key (``_leader_key``) is the adapter object,
the config fields the leg reads, the plan's mode, distance and duty, and
the dispatch mode (``repro.mcu.device.dispatch_mode``).  The
borrowed seed is not in it: an entry is kept only while its RNG hub
stays untouched, which makes the seed inert.  Never kept: a leader that
tripped the wall clock, hit a foreign stop, or drew randomness; an entry
that fails mid-group, or whose hub reads touched after a group's
replays, is dropped.  Any such failure makes the engine return ``None``
and the caller runs the group's legs from reset, so reports stay
byte-identical.
"""

from __future__ import annotations

from repro.campaign.faults import FaultPlan
from repro.campaign.forking import (
    ForkSession,
    _memoizable,
    _schedule_of,
    continuous_observation,
)
from repro.campaign.runner import Run, note_lane_stats, run_record
from repro.mcu.device import dispatch_mode
from repro.sim.rng import derive_seed
from repro.testing import time_limit

#: First commit count of a lane with an empty commit schedule: larger
#: than any write tally a run can accumulate, so it never fires.
_NEVER = 1 << 62

#: Leaders kept per worker process, least recently used evicted first.
#: A campaign sweeps one environment per fork group key, so a handful
#: covers every key a chunk meets; each entry holds a device and one
#: differential snapshot per boot.
_LEADER_MEMO_SIZE = 4

#: Leader key -> ``(session, boundaries, observation, schedule)``: a
#: session that ran its fault-free pass, and what the pass returned.
_leader_memo: dict[tuple, tuple] = {}


class _LaneSchedules:
    """The group's injection schedules and the lanes still in the batch."""

    def __init__(self, members: list[Run], mode: str):
        self.mode = mode
        self.live = set(range(len(members)))
        if mode == "op_index":
            self.ops = [_schedule_of(run.plan) for run in members]
        else:
            self.first_commit = [
                run.plan.commit_counts[0] if run.plan.commit_counts else _NEVER
                for run in members
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

    def peels(
        self, boundaries: list[tuple[int, int, int]], ended: bool
    ) -> tuple[dict[int, int], int]:
        """The boot every fired lane peels at, and the spans used.

        ``boundaries`` are the fault-free pass's pauses and then its
        end.  The ``fired`` calls are the ones a leader stopping once
        every lane peeled would make: one per pause, then (if lanes are
        left and ``ended`` says the end is trustworthy) one for the
        terminal boot, which is idempotent for a boundary already seen
        (during a terminal charge phase the recorder still holds the
        previous boot's column, whose fired lanes are gone).
        """
        *pauses, end = boundaries
        peel: dict[int, int] = {}
        for boot, boundary in enumerate(pauses):
            for lane in self.fired(*boundary):
                peel[lane] = boot
            if not self.live:
                return peel, boot + 1
        if ended:
            for lane in self.fired(*end):
                peel[lane] = len(pauses)
        return peel, len(pauses)


def _leader_key(config, adapter, plan: FaultPlan) -> tuple:
    # Everything the leader's trajectory and observation depend on
    # besides the borrowed seed, which is proven inert before a leader
    # is kept: the adapter object (two adapters may share a name), the
    # config and environment, and the dispatch mode a device reads when
    # it is built.
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
        dispatch_mode(),
    )


def execute_batch_group(config, members: list[Run]) -> dict[int, dict] | None:
    """Execute one fork-eligible group through the lane engine.

    ``members`` are two or more runs sharing a ``forking._group_key``.
    Returns a record per member index, or ``None`` when the group should
    run from reset instead (leader failure, wall-clock budget trip,
    honesty violation).  The records are byte-identical to the
    from-reset legs' (``runner.execute_safe``) — that is the whole
    contract, pinned by the differential suite in ``tests/test_batch.py``
    and by the campaign golden.
    """
    adapter = members[0].adapter
    plan0 = members[0].plan
    lanes = _LaneSchedules(members, plan0.mode)
    key = _leader_key(config, adapter, plan0)
    # Taken out while it serves: any failure below leaves it dropped.
    entry = _leader_memo.pop(key, None)
    try:
        if entry is None:
            session = ForkSession(
                config, adapter, plan0,
                derive_seed(members[0].seed, "intermittent"),
            )
            with time_limit(config.max_wall_s):
                entry = (session, *session.fault_free())
        session, boundaries, leader, leader_schedule = entry
        # A wall-clock trip is host-timing noise: it must not speak for
        # N records, nor be kept.
        kept = _memoizable(leader)
        peel, spans = lanes.peels(boundaries, kept)
        if lanes.live and not kept:
            return None
        records: dict[int, dict] = {}
        mid_boot = skipped = 0
        for position, run in enumerate(members):
            with time_limit(config.max_wall_s):
                if position in peel:
                    intermittent, schedule, injected, units = session.execute(
                        peel[position], _schedule_of(run.plan)
                    )
                    if units:
                        mid_boot += 1
                        skipped += units
                else:
                    intermittent = leader
                    schedule = list(leader_schedule)
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
    if not session.rng_untouched:
        # The honesty invariant failed: some draw made the shared
        # trajectory depend on the borrowed seed.
        return None
    if kept:
        _leader_memo[key] = entry
        while len(_leader_memo) > _LEADER_MEMO_SIZE:
            del _leader_memo[next(iter(_leader_memo))]
    note_lane_stats(
        packed=len(members), peeled=len(peel), spans=spans,
        mid_boot=mid_boot, skipped=skipped,
    )
    return records
