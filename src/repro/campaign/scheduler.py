"""The supervised campaign scheduler: chunked parallel execution that
survives its own workers.

Runs are independent by construction (see :mod:`repro.campaign.runner`),
so the scheduler's job splits in two.  The throughput half is unchanged
from the original design: split the run indices into chunks, farm the
chunks out to worker processes, and reassemble the records in index
order so the output is identical no matter which worker finished first.

The supervision half makes the engine *unkillable*:

- **Crash isolation.**  A worker process can die mid-chunk — segfault,
  OOM kill, a guest calling ``os._exit`` — which breaks the whole
  ``ProcessPoolExecutor``.  Every chunk that was in flight at the break
  becomes a *suspect*; the pool is rebuilt (after an exponential-
  backoff sleep) and suspects are retried **solo**, one chunk alone in
  the pool, so the next failure blames exactly one chunk.  A chunk that
  fails twice solo is split in half; a single-run chunk that exhausts
  ``max_retries`` solo failures is quarantined with a structured
  ``worker_lost`` record.  Innocent chunks co-blamed by someone else's
  crash never accumulate failures and are simply re-run.
- **Graceful degradation.**  If the pool cannot be (re)created at all,
  execution degrades to serial in-process: never-implicated chunks run
  inline (the supervised runner already converts their failures into
  records), while suspect chunks get ``worker_lost`` records rather
  than risking the host process on a run that just killed a worker.
- **Checkpoint/resume.**  With a journal attached, each finished
  chunk's records are appended and flushed immediately; a resumed
  campaign replays journaled records and executes only the missing
  indices.  Records are deterministic, so resumed and uninterrupted
  campaigns produce byte-identical reports.
- **Interrupt safety.**  ``KeyboardInterrupt`` stops scheduling,
  abandons the pool without waiting, and returns a valid *partial*
  report (marked with a top-level ``partial`` key) built from every
  record completed so far — the journal already holds them all.

The shrink and capture post-passes still run in the parent process:
they touch at most ``shrink_limit`` runs, keeping them serial keeps the
ddmin replay sequence (and therefore the report) deterministic, and
both now tolerate replays that no longer reproduce (or raise).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable

from repro.campaign.apps import get_adapter
from repro.campaign.config import CampaignConfig
from repro.campaign.errors import HostFault, WorkerLost, error_record
from repro.campaign.journal import JournalWriter, load_journal
from repro.campaign.oracle import DIVERGED, ERROR, Observation, compare
from repro.campaign.report import build_report
from repro.campaign.runner import (
    capture_divergence,
    execute_run_safe,
    run_continuous_leg,
    tier_stats_delta,
    tier_stats_snapshot,
    verdict_for_schedule,
)
from repro.campaign.shrinker import shrink_schedule
from repro.sim.rng import derive_seed

#: Exponent cap for the retry backoff (``backoff * 2**n``): keeps the
#: worst-case sleep bounded even on a long quarantine cascade.
_MAX_BACKOFF_DOUBLINGS = 6


def _chunk_worker(
    config_dict: dict, indices: list[int], snapshot: bool = False,
    batch: bool = True,
) -> tuple[list[dict], dict]:
    """Worker entry point: execute a chunk of runs (picklable, module-level).

    Uses the *supervised* runner, so a failing run yields a structured
    error record instead of poisoning its whole chunk; the only way a
    chunk can fail as a unit is the worker process itself dying.

    ``snapshot`` routes the chunk through the prefix-fork engine
    (:func:`repro.campaign.forking.execute_chunk`), which shares work
    between runs whose fault plans allow it and produces byte-identical
    records either way; ``batch`` additionally routes fork-eligible
    groups through the lane engine (:mod:`repro.batch.engine`).
    Both are execution-only parameters — never part of the config dict,
    so reports and journals are unaffected by them.

    Returns ``(records, tier_delta)``: the chunk's records plus the
    tier/lane counter delta this execution accumulated, so a pool
    supervisor can aggregate diagnostics across worker processes
    without the counters ever entering the report.
    """
    config = CampaignConfig.from_dict(config_dict)
    before = tier_stats_snapshot()
    if snapshot:
        from repro.campaign.forking import execute_chunk

        chunk_records = execute_chunk(config, indices, batch=batch)
    else:
        chunk_records = [execute_run_safe(config, index) for index in indices]
    return chunk_records, tier_stats_delta(before)


def _chunk_indices(indices: list[int], config: CampaignConfig) -> list[list[int]]:
    if not indices:
        return []
    if config.chunk > 0:
        size = config.chunk
    else:
        # ~4 chunks per worker balances stragglers against IPC overhead.
        size = max(1, min(25, (len(indices) + 4 * config.workers - 1)
                          // (4 * config.workers)))
    return [indices[i : i + size] for i in range(0, len(indices), size)]


def _worker_lost_records(config: CampaignConfig, indices: list[int]) -> list[dict]:
    return [
        error_record(
            config,
            index,
            WorkerLost(
                "worker process executing this run was lost repeatedly; "
                "retries with backoff and chunk quarantine exhausted"
            ),
        )
        for index in indices
    ]


@dataclass
class _Chunk:
    """A unit of scheduled work plus its supervision history."""

    indices: list[int]
    #: Failures while this chunk was *alone* in the pool — the precise
    #: blame counter.  Co-blamed failures (another chunk's crash broke
    #: the shared pool) do not count.
    solo_failures: int = 0


@dataclass
class _Supervisor:
    """Drives chunks to completion through crashes, retries, and splits.

    The unit of work is pluggable: ``worker`` is any picklable
    module-level callable with the :func:`_chunk_worker` signature, and
    ``jobs`` optionally maps each run index to a JSON-ready payload the
    worker receives in place of the bare index (the fuzz scheduler's
    mutated candidates ride through here).  Supervision — crash blame,
    retries, splits, quarantine, journaling — is payload-agnostic: a
    chunk is always identified by its indices.
    """

    config: CampaignConfig
    records: dict[int, dict]
    progress: Callable[[int, int], None] | None = None
    journal: JournalWriter | None = None
    fail_fast: bool = False
    snapshot: bool = False
    batch: bool = True
    worker: Callable = _chunk_worker
    jobs: dict[int, dict] | None = None
    #: Optional sink for aggregated tier/lane counters.  Pool workers
    #: return their counter deltas alongside their records; only those
    #: *remote* deltas are folded in here — in-process execution already
    #: lands in this process's own tallies, which the campaign entry
    #: point folds separately (no double counting either way).
    stats: dict | None = None

    stop: bool = field(default=False, init=False)
    degraded: bool = field(default=False, init=False)
    _pool: ProcessPoolExecutor | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self._serial = self.config.workers == 1
        self._config_dict = self.config.to_dict()

    def _work_for(self, chunk: "_Chunk"):
        """What the worker receives for ``chunk``: indices or payloads."""
        if self.jobs is None:
            return chunk.indices
        return [self.jobs[index] for index in chunk.indices]

    # -- record plumbing ---------------------------------------------------
    def _collect(self, result, remote: bool = False) -> None:
        if isinstance(result, tuple):
            chunk_records, delta = result
            if remote and self.stats is not None:
                for key, value in delta.items():
                    self.stats[key] = self.stats.get(key, 0) + value
        else:
            # Synthesized records (worker_lost) carry no counter delta.
            chunk_records = result
        for record in chunk_records:
            self.records[record["index"]] = record
        if self.journal is not None:
            self.journal.chunk_done(chunk_records)
        if self.progress is not None:
            self.progress(len(self.records), self.config.runs)
        if self.fail_fast and any(
            r["verdict"]["verdict"] in (DIVERGED, ERROR) for r in chunk_records
        ):
            self.stop = True

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self) -> bool:
        """True when a worker pool is available; degrades on failure."""
        if self._pool is not None:
            return True
        try:
            self._pool = ProcessPoolExecutor(max_workers=self.config.workers)
            return True
        except Exception:
            # The OS will not give us worker processes (fork failure,
            # resource exhaustion): degrade to serial in-process
            # execution instead of dying.
            self._serial = True
            self.degraded = True
            return False

    def _kill_pool(self, wait_for_exit: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait_for_exit, cancel_futures=True)

    # -- the supervision loop ----------------------------------------------
    def run(self, chunk_lists: list[list[int]]) -> None:
        fresh = deque(_Chunk(list(c)) for c in chunk_lists)
        suspects: deque[_Chunk] = deque()
        try:
            while (fresh or suspects) and not self.stop:
                if self._serial:
                    self._drain_serial(fresh, suspects)
                elif suspects:
                    self._retry_suspect(suspects)
                else:
                    self._parallel_round(fresh, suspects)
        finally:
            self._kill_pool(wait_for_exit=True)

    def _parallel_round(
        self, fresh: deque[_Chunk], suspects: deque[_Chunk]
    ) -> None:
        """Run fresh chunks with up to ``workers`` in flight.

        Returns when the queue drains, the pool breaks (every in-flight
        chunk becomes a suspect), or a fail-fast trip stops the show.
        Capping in-flight work at the worker count means a pool break
        implicates as few chunks as possible.
        """
        if not self._ensure_pool():
            return
        in_flight: dict = {}

        def submit_next() -> bool:
            chunk = fresh.popleft()
            try:
                future = self._pool.submit(
                    self.worker, self._config_dict, self._work_for(chunk),
                    self.snapshot, self.batch,
                )
            except Exception:
                fresh.appendleft(chunk)
                return False
            in_flight[future] = chunk
            return True

        broken = False
        while (fresh or in_flight) and not self.stop and not broken:
            while fresh and len(in_flight) < self.config.workers:
                if not submit_next():
                    broken = True
                    break
            if not in_flight:
                break
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                chunk = in_flight.pop(future)
                try:
                    self._collect(future.result(), remote=True)
                except Exception:
                    # The worker executing *some* in-flight chunk died
                    # and broke the shared pool; this future cannot say
                    # whether its own chunk was the killer.  Everyone
                    # still in flight is a suspect — but nobody's
                    # precise blame counter moves.
                    suspects.append(chunk)
                    broken = True
        if broken:
            for chunk in in_flight.values():
                suspects.append(chunk)
            self._kill_pool()

    def _retry_suspect(self, suspects: deque[_Chunk]) -> None:
        """Retry one suspect chunk alone in the pool (precise blame)."""
        chunk = suspects[0]
        delay = self.config.retry_backoff * (
            2 ** min(chunk.solo_failures, _MAX_BACKOFF_DOUBLINGS)
        )
        if delay > 0.0:
            time.sleep(delay)
        if not self._ensure_pool():
            return  # degraded; the main loop re-dispatches serially
        suspects.popleft()
        try:
            future = self._pool.submit(
                self.worker, self._config_dict, self._work_for(chunk),
                self.snapshot, self.batch,
            )
            self._collect(future.result(), remote=True)
        except KeyboardInterrupt:
            suspects.appendleft(chunk)
            raise
        except Exception:
            # The chunk failed *alone*: the blame is unambiguous.
            self._kill_pool()
            chunk.solo_failures += 1
            if len(chunk.indices) == 1:
                if chunk.solo_failures >= self.config.max_retries:
                    # Quarantined: the poisoned run index is recorded
                    # and the campaign moves on.
                    self._collect(
                        _worker_lost_records(self.config, chunk.indices)
                    )
                else:
                    suspects.append(chunk)
            elif chunk.solo_failures >= 2:
                # Repeat offender: split in half to home in on the
                # poisoned index.  Each half keeps one strike so it
                # gets exactly one solo retry before splitting again.
                mid = (len(chunk.indices) + 1) // 2
                suspects.append(_Chunk(chunk.indices[:mid], solo_failures=1))
                suspects.append(_Chunk(chunk.indices[mid:], solo_failures=1))
            else:
                suspects.append(chunk)

    def _drain_serial(
        self, fresh: deque[_Chunk], suspects: deque[_Chunk]
    ) -> None:
        """In-process execution: the workers==1 path and the degraded path.

        Suspect chunks — implicated in at least one worker loss — are
        *not* re-executed in-process: a run that just killed a worker
        would take the whole campaign down with it.  They are recorded
        as ``worker_lost`` instead.
        """
        while suspects and not self.stop:
            chunk = suspects.popleft()
            self._collect(_worker_lost_records(self.config, chunk.indices))
        while fresh and not self.stop:
            chunk = fresh.popleft()
            self._collect(
                self.worker(self._config_dict, self._work_for(chunk),
                            self.snapshot, self.batch)
            )


# -- post-passes -----------------------------------------------------------
def _shrink_pass(
    config: CampaignConfig, records: list[dict], snapshot: bool = False
) -> None:
    """Minimize the first ``shrink_limit`` diverging runs in place.

    Tolerant by construction: a control leg that fails to run marks the
    candidates unshrunk, and replays that raise are treated as "does
    not reproduce" (see :func:`repro.campaign.shrinker.shrink_schedule`).

    With ``snapshot`` on, ddmin probes replay from the nearest cached
    boundary snapshot of one long-lived bench session instead of
    re-simulating each candidate's shared prefix from reset; any
    session failure (or a violated zero-RNG invariant) falls back to
    the from-reset replay, probe by probe.
    """
    from repro.campaign.forking import ForkSession, continuous_observation

    diverging = [
        r for r in records if r["verdict"]["verdict"] == DIVERGED
    ][: config.shrink_limit]
    if not diverging:
        return
    adapter = get_adapter(config.app)
    try:
        if snapshot:
            continuous: Observation = continuous_observation(
                config, adapter, derive_seed(config.seed, "shrink-control")
            )
        else:
            continuous = run_continuous_leg(
                config, adapter, derive_seed(config.seed, "shrink-control")
            )
    except Exception:
        # No usable control, no shrinking — report the runs unshrunk
        # (the same conservative "did not reproduce" marker a failed
        # bench replay earns).
        for record in diverging:
            record["shrunk"] = None
        return
    session = None
    if snapshot and not hasattr(adapter, "prepare"):
        try:
            session = ForkSession.for_replay(config, adapter)
        except Exception:
            session = None
    for record in diverging:
        def still_fails(candidate: list[int]) -> bool:
            nonlocal session
            if session is not None:
                try:
                    observation, _, _ = session.execute(candidate)
                    if session.rng_untouched:
                        return compare(
                            observation, continuous, adapter.invariant_keys
                        ).diverged
                except KeyboardInterrupt:
                    raise
                except BaseException:
                    pass
                # Session state is suspect (a replay raised) or the
                # zero-RNG invariant broke: retire the session and
                # replay this and all later probes from reset.
                session = None
            return verdict_for_schedule(
                config, adapter, continuous, candidate
            ).diverged

        minimal = shrink_schedule(record["observed_schedule"], still_fails)
        record["shrunk"] = (
            None
            if minimal is None
            else {"schedule": minimal, "reboots": len(minimal)}
        )


def _capture_pass(config: CampaignConfig, records: list[dict]) -> None:
    for record in records:
        if record["verdict"]["verdict"] == DIVERGED:
            record["capture"] = capture_divergence(config, record)
            break


# -- the public entry point ------------------------------------------------
def run_campaign(
    config: CampaignConfig,
    progress: Callable[[int, int], None] | None = None,
    *,
    journal_path: str | None = None,
    resume_from: str | None = None,
    fail_fast: bool = False,
    snapshot: bool = True,
    batch: bool = True,
    corpus_path: str | None = None,
    journal_fsync: bool = False,
    stats: dict | None = None,
) -> dict:
    """Execute a full campaign under supervision and return the report.

    ``progress(done, total)`` is invoked after each finished chunk.
    With ``workers == 1`` everything runs inline in this process —
    bit-for-bit the same records the pool produces, which is both the
    determinism contract and the debugging escape hatch.

    ``journal_path`` journals completed chunks as they finish;
    ``resume_from`` loads such a journal, skips its completed runs, and
    appends new chunks to the same file (the two are mutually
    exclusive; resume implies journaling).  Corrupted journal lines are
    quarantined on load — their runs simply re-execute — and a journal
    that stops accepting appends mid-campaign downgrades to a
    :class:`~repro.campaign.errors.CampaignWarning` instead of killing
    the campaign.  ``journal_fsync`` syncs every journal line to stable
    storage.  ``fail_fast`` stops scheduling new work after the first
    diverged or errored record.

    ``snapshot`` (default on) enables the snapshot/fork execution
    paths — prefix-grouped run forking, memoized continuous legs, and
    boundary-snapshot ddmin replays (:mod:`repro.campaign.forking`).
    It is execution-only: the records, the journal format, and the
    report are byte-identical with it on or off, which is why it is a
    keyword here rather than a :class:`CampaignConfig` field.

    ``batch`` (default on) additionally routes fork-eligible groups
    through the lane engine (:mod:`repro.batch`); it is gated the same
    way (execution-only, byte-identical on/off) and is inert when
    ``snapshot`` is off.

    ``stats`` (optional) is a plain dict the campaign folds its
    aggregated tier/lane execution counters into — both this process's
    tallies and the deltas pool workers report back with their chunks.
    Diagnostics only: the counters never enter the report.

    A ``KeyboardInterrupt`` — or a fail-fast trip — yields a valid
    *partial* report carrying a top-level ``partial`` key; a campaign
    that completes normally is guaranteed to hold exactly one record
    per run index (a scheduler hole, should one ever occur, is filled
    with a ``host_fault`` error record rather than silently dropped).

    ``config.mode == "fuzz"`` dispatches to the coverage-guided search
    (:func:`repro.campaign.fuzz.run_fuzz_campaign`), which reuses this
    module's supervisor round by round; ``corpus_path`` (fuzz only)
    seeds and persists the search corpus.
    """
    if config.mode == "fuzz":
        from repro.campaign.fuzz import run_fuzz_campaign

        return run_fuzz_campaign(
            config, progress, journal_path=journal_path,
            resume_from=resume_from, fail_fast=fail_fast,
            snapshot=snapshot, batch=batch, corpus_path=corpus_path,
            journal_fsync=journal_fsync, stats=stats,
        )
    if corpus_path is not None:
        raise ValueError("corpus_path requires mode='fuzz'")
    if journal_path is not None and resume_from is not None:
        raise ValueError("journal_path and resume_from are mutually exclusive")
    records: dict[int, dict] = {}
    journal: JournalWriter | None = None
    if resume_from is not None:
        records = load_journal(resume_from, config)
        journal = JournalWriter(
            resume_from, config, fresh=False, fsync=journal_fsync
        )
    elif journal_path is not None:
        journal = JournalWriter(
            journal_path, config, fresh=True, fsync=journal_fsync
        )

    remaining = [i for i in range(config.runs) if i not in records]
    supervisor = _Supervisor(
        config, records, progress=progress, journal=journal,
        fail_fast=fail_fast, snapshot=snapshot, batch=batch, stats=stats,
    )
    stats_before = tier_stats_snapshot() if stats is not None else None
    interrupted = False
    try:
        supervisor.run(_chunk_indices(remaining, config))
    except KeyboardInterrupt:
        # Stop scheduling, abandon the pool without waiting, and fall
        # through to build a valid partial report — the journal already
        # holds every completed chunk.
        interrupted = True
        supervisor._kill_pool()
    finally:
        if journal is not None:
            journal.close()

    if not interrupted and not supervisor.stop:
        for index in range(config.runs):
            if index not in records:
                records[index] = error_record(
                    config, index,
                    HostFault("scheduler lost this run without a record"),
                )
    ordered = [records[i] for i in sorted(records)]
    complete = not interrupted and len(ordered) == config.runs
    if complete:
        if config.shrink:
            _shrink_pass(config, ordered, snapshot=snapshot)
        if config.capture:
            _capture_pass(config, ordered)
    if stats is not None:
        # Everything this process executed itself — serial chunks,
        # degraded-mode chunks, the shrink/capture post-passes — landed
        # in the process tallies; pool workers' deltas were folded in
        # by the supervisor as their chunks completed.
        for key, value in tier_stats_delta(stats_before).items():
            stats[key] = stats.get(key, 0) + value
    report = build_report(config, ordered)
    if not complete:
        report["partial"] = {
            "completed": len(ordered),
            "total": config.runs,
            "interrupted": interrupted,
        }
    return report
