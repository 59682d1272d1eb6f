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
from repro.campaign.oracle import Observation, compare
from repro.campaign.watchdog import RunWatchdog
from repro.power.harvester import RFHarvester
from repro.power.supply import PowerState
from repro.runtime.executor import IntermittentExecutor, RunStatus
from repro.sim.kernel import Simulator
from repro.sim.rng import derive_seed
from repro.snapshot import DirtyTracker, capture, restore
from repro.testing import make_fast_target, time_limit

_BOUNDARY = "lane-boundary"

#: First commit count of a lane with an empty commit schedule: larger
#: than any write tally a run can accumulate, so it never fires.
_NEVER = 1 << 62


class _LaneSchedules:
    """The group's injection schedules and the lanes still in the batch."""

    def __init__(self, pending: list[tuple[int, int, FaultPlan]], mode: str):
        self.mode = mode
        self.live = set(range(len(pending)))
        if mode == "op_index":
            self.ops = [_schedule_of(plan) for _, _, plan in pending]
        else:
            self.first_commit = [
                plan.commit_counts[0] if plan.commit_counts else _NEVER
                for _, _, plan in pending
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

    def future_fire_possible(self, next_boot: int) -> bool:
        """Whether any live lane can still fire at boot ``next_boot`` on."""
        if self.mode == "op_index":
            return any(len(self.ops[lane]) > next_boot for lane in self.live)
        return bool(self.live)


def execute_batch_group(
    config, adapter, members: list[tuple[int, int, FaultPlan]]
) -> dict[int, dict] | None:
    """Execute one fork-eligible group through the lane engine.

    Returns a record per member index, or ``None`` when the group should
    fall back to the scalar paths (unsupported group, leader failure,
    wall-clock budget trip, honesty violation).  The records are
    byte-identical to what ``forking._execute_group`` produces — that is
    the whole contract, pinned by the differential suite in
    ``tests/test_batch.py`` and by the campaign golden.
    """
    from repro.campaign.runner import _harvest_tier_stats, note_lane_stats

    if len(members) < 2:
        return None
    if hasattr(adapter, "prepare"):
        return None
    plan0 = members[0][2]
    mode = plan0.mode
    if mode not in ("op_index", "commit_boundary"):
        return None
    # Same ordering the scalar group path uses, so fallback parity is
    # trivially byte-stable; record order is re-established by index.
    pending = sorted(members, key=lambda m: _schedule_of(m[2]))
    lanes = _LaneSchedules(pending, mode)

    # -- leader construction: mirrors run_intermittent_leg hook-for-hook
    try:
        sim = Simulator(seed=derive_seed(pending[0][1], "intermittent"))
        sim.trace.enabled = False  # see runner.run_intermittent_leg
        target = make_fast_target(
            sim, distance_m=plan0.distance_m, fading_sigma=plan0.fading_sigma
        )
        if plan0.duty is not None and isinstance(
            target.power.source, RFHarvester
        ):
            target.power.source.duty_period = plan0.duty[0]
            target.power.source.duty_fraction = plan0.duty[1]
        program = adapter.build(config.protect, config.iterations)
        executor = IntermittentExecutor(sim, target, program)
        executor.flash()
    except KeyboardInterrupt:
        raise
    except BaseException:
        return None

    try:
        tracker = DirtyTracker(target.memory)
        recorder = RebootRecorder(target)
        # The real injector class with an empty schedule: inert during
        # the leader run, but its hooks and watch claim the same
        # positions a from-reset leg gives them (recorder, injector,
        # watchdog), and in commit mode its passive ``writes_seen``
        # tally doubles as the leader's FRAM write counter.
        if mode == "commit_boundary":
            injector = CommitBoundaryTrigger(target, [])
        else:
            injector = ScheduledBrownouts(target, [])

        def pauser(state: PowerState) -> None:
            if state is PowerState.OFF:
                sim.request_stop(_BOUNDARY)

        target.power.on_power_change.append(pauser)
        watchdog = RunWatchdog(target, config.max_cycles, config.max_wall_s)
        deadline = sim.now + config.duration
        base_reboots = target.reboot_count

        def capture_node(boots: int) -> tuple:
            return (
                capture(target, tracker),
                injector.export_state(),
                recorder.export_state(),
                _program_state(program),
                boots,
            )

        def boundary() -> tuple[int, int, int]:
            writes = injector.writes_seen if mode == "commit_boundary" else 0
            return len(recorder.schedule()), target.boot_units, writes

        # ``node`` is always the snapshot taken as the *current* boot
        # began (node 0 = the post-flash state, before boot 0); a lane
        # that fires inside the current boot peels there.  ``None``
        # means no live lane can ever fire again, so no capture needed.
        node: tuple | None = capture_node(0)
        peel: dict[int, tuple] = {}
        batch_spans = 0
        boots = 0
        faults: list[str] = []
        status = RunStatus.TIMEOUT
        detail = None

        def check_boundary() -> None:
            if node is None:
                return  # provably no live schedule extends this far
            boot, boot_ops, writes = boundary()
            for lane in lanes.fired(boot, boot_ops, writes):
                peel[lane] = node

        # -- the leader run: fault-free, parked at every brown-out
        try:
            with time_limit(config.max_wall_s):
                while True:
                    result = executor.run(until=deadline, stop_on_fault=True)
                    boots += result.boots
                    faults.extend(result.faults)
                    if result.status is not RunStatus.INTERRUPTED:
                        status = result.status
                        detail = result.detail
                        break
                    if sim.stop_reason != _BOUNDARY:
                        return None  # a foreign stop request owns the run
                    sim.clear_stop()
                    batch_spans += 1
                    check_boundary()
                    if not lanes.live:
                        break  # every lane peeled; the leader is moot
                    boot, _, _ = boundary()
                    if lanes.future_fire_possible(boot + 1):
                        node = capture_node(boots)
                    else:
                        node = None
        except KeyboardInterrupt:
            raise
        except BaseException:
            return None
        finally:
            # A brown-out landing exactly at the deadline leaves the
            # pause request pending past the terminal segment.
            sim.clear_stop()

        clones = bool(lanes.live)
        if clones:
            detail_str = None if detail is None else str(detail)
            if status is RunStatus.NONTERMINATING and "wall-clock" in (
                detail_str or ""
            ):
                # Host-timing noise must not speak for N records.
                return None
            # The terminal boot ended without a pause: fire-check it too
            # (idempotent for boundaries already processed — during a
            # terminal charge phase the recorder still holds the
            # previous boot's column, whose fired lanes are gone).
            check_boundary()
            clones = bool(lanes.live)
        if clones:
            leader_observation = Observation(
                status=status.value,
                faults=len(faults),
                boots=boots,
                reboots=target.reboot_count - base_reboots,
                observables=adapter.observe(program, executor.api),
                detail=None if detail is None else str(detail),
            )
            leader_schedule = recorder.schedule()
        # The pause hook must not outlive the leader: forced brown-outs
        # during replays transition the power state too.
        target.power.on_power_change.remove(pauser)
        # Replays restore-and-zero the device tier counters, so harvest
        # the leader's tallies before the first restore.
        _harvest_tier_stats(target)

        def replay(lane: int, plan: FaultPlan) -> tuple[Observation, list, int]:
            snap, inj_state, rec_state, prog_state, node_boots = peel[lane]
            # Lanes peeled at one boundary share its snapshot; restore()
            # re-verifies its CRC before touching the device.
            restore(target, snap, tracker)
            recorder.restore_state(rec_state)
            _restore_program_state(program, prog_state)
            if mode == "commit_boundary":
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
            watchdog.rearm_wall()
            sim.clear_stop()
            lane_boots = node_boots
            lane_faults: list[str] = []
            lane_status = RunStatus.TIMEOUT
            lane_detail = None
            try:
                while True:
                    result = executor.run(until=deadline, stop_on_fault=True)
                    lane_boots += result.boots
                    lane_faults.extend(result.faults)
                    if result.status is not RunStatus.INTERRUPTED:
                        lane_status = result.status
                        lane_detail = result.detail
                        break
                    raise RuntimeError(
                        f"foreign stop request during lane replay: "
                        f"{sim.stop_reason!r}"
                    )
            finally:
                sim.clear_stop()
            _harvest_tier_stats(target)
            observation = Observation(
                status=lane_status.value,
                faults=len(lane_faults),
                boots=lane_boots,
                reboots=target.reboot_count - base_reboots,
                observables=adapter.observe(program, executor.api),
                detail=None if lane_detail is None else str(lane_detail),
            )
            return observation, recorder.schedule(), injector.injections

        # -- assemble records in the scalar group path's exact shape
        records: dict[int, dict] = {}
        for position, (index, run_seed, plan) in enumerate(pending):
            try:
                with time_limit(config.max_wall_s):
                    if position in peel:
                        intermittent, schedule, injected = replay(
                            position, plan
                        )
                    else:
                        intermittent = leader_observation
                        schedule = list(leader_schedule)
                        injected = 0
                    continuous = continuous_observation(
                        config, adapter, derive_seed(run_seed, "continuous")
                    )
            except KeyboardInterrupt:
                raise
            except BaseException:
                return None
            verdict = compare(intermittent, continuous, adapter.invariant_keys)
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
        if not sim.rng.untouched:
            # The honesty invariant failed: some draw made the shared
            # trajectory depend on the borrowed seed.
            return None
        note_lane_stats(
            packed=len(pending), peeled=len(peel), spans=batch_spans
        )
        return records
    except KeyboardInterrupt:
        raise
    except BaseException:
        return None
