"""Coverage-guided fault fuzzing: the campaign engine as a *search*.

The sampling campaign (``mode="sample"``) draws every run's fault plan
independently; whether run 412 learns anything from run 3 is luck.
This module turns the same machinery into feedback-driven search:

- **Coverage signal.**  Every intermittent leg runs with a
  :class:`~repro.mcu.coverage.CoverageRecorder` attached: the ordered
  set of dynamic basic-block entry PCs the CPU executed.  The recorder
  hooks both the single-step and translated-block dispatch paths at the
  points they agree by construction (reset entries and taken control
  transfers), so the signature is bit-identical with the block cache on
  or off — coverage never perturbs what it measures, the same
  energy-interference-free discipline EDB applies to hardware.
- **Corpus.**  Seeds — fault schedule plus stimulus bytes — survive
  only when they reach new blocks or produce a new verdict
  (:mod:`repro.campaign.corpus`).
- **Mutators.**  ``nudge`` / ``splice`` / ``havoc`` over schedules and
  byte-level stimulus mutation, every draw taken from a
  ``random.Random`` seeded by :func:`~repro.sim.rng.derive_seed` — a
  fuzz campaign is replayable from its master seed alone.
- **Scheduler.**  Rounds run through the same supervised
  :class:`~repro.campaign.scheduler._Supervisor` (crash isolation,
  journaling, resume) with a fuzz-specific worker; seeds that share a
  stimulus fork their schedule prefixes from one snapshot chain, and
  diverging survivors shrink through the existing ddmin pass.

Everything here honours the engine's byte-identity contract: for a
fixed config the report is identical across worker counts, snapshot
on/off, block cache on/off, and journal resume.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.campaign.apps import get_adapter
from repro.campaign.config import CampaignConfig
from repro.campaign.errors import (
    BudgetError,
    GuestFault,
    HostFault,
    RunError,
    error_record,
)
from repro.campaign.faults import FaultPlan, RebootRecorder
from repro.campaign.forking import (
    ForkSession,
    _continuous_key,
    _memoizable,
)
from repro.campaign.journal import JournalWriter, load_journal
from repro.campaign.oracle import DIVERGED, Observation, compare
from repro.campaign.report import build_report
from repro.campaign.runner import (
    _install_injectors,
    _observation,
    verdict_for_schedule,
)
from repro.campaign.shrinker import shrink_schedule
from repro.campaign.watchdog import RunWatchdog
from repro.mcu.coverage import CoverageRecorder
from repro.runtime.executor import IntermittentExecutor
from repro.sim.kernel import BudgetExceeded, Simulator
from repro.sim.rng import derive_seed
from repro.testing import make_fast_target, time_limit

from repro.campaign.corpus import Corpus


# -- genotype plumbing -------------------------------------------------------
def fuzz_plan(config: CampaignConfig, schedule) -> FaultPlan:
    """The fault plan a fuzz genotype maps to.

    Fuzz plans pin the environment (fixed distance, zero fading, no
    duty modulation, no corruption flips) so the intermittent leg is a
    deterministic function of the schedule and stimulus alone — which
    both makes mutation feedback meaningful and makes *every* fuzz run
    fork-eligible (see :func:`repro.campaign.forking._group_key`).
    """
    return FaultPlan(
        mode="op_index",
        ops_schedule=tuple(int(n) for n in schedule),
        distance_m=round(float(config.distance_range[0]), 4),
        fading_sigma=0.0,
        duty=None,
        flips=(),
    )


class _StimulusAdapter:
    """An app adapter bound to one stimulus byte string.

    Delegates everything to the underlying adapter except ``build``,
    which routes through the adapter's ``build_fuzz`` hook so the
    program under test consumes exactly this genotype's input.  It has
    no ``prepare`` attribute on purpose: bound adapters stay memoizable
    and fork-eligible.
    """

    def __init__(self, adapter, stimulus: bytes) -> None:
        self._adapter = adapter
        self._stimulus = bytes(stimulus)
        self.stimulus_hex = self._stimulus.hex()
        self.name = adapter.name
        self.invariant_keys = adapter.invariant_keys

    def build(self, protect: bool, iterations: int):
        return self._adapter.build_fuzz(protect, iterations, self._stimulus)

    def observe(self, program, api) -> dict:
        return self._adapter.observe(program, api)

    def state_ranges(self, program, api) -> list:
        return self._adapter.state_ranges(program, api)


def _bind(adapter, stimulus_hex: str | None):
    if stimulus_hex is None:
        return adapter
    return _StimulusAdapter(adapter, bytes.fromhex(stimulus_hex))


# -- mutators ----------------------------------------------------------------
def _clamp_schedule(
    rng: random.Random, schedule: list[int], config: CampaignConfig
) -> list[int]:
    """Force a candidate schedule into the config's schedulable box."""
    out = [min(max(int(v), config.min_ops), config.max_ops) for v in schedule]
    while len(out) > config.max_reboots:
        out.pop(rng.randrange(len(out)))
    while len(out) < config.min_reboots:
        out.append(rng.randint(config.min_ops, config.max_ops))
    return out


def random_schedule(rng: random.Random, config: CampaignConfig) -> list[int]:
    """A uniform-random schedule — round zero, and the empty-corpus fallback."""
    count = rng.randint(config.min_reboots, config.max_reboots)
    return [
        rng.randint(config.min_ops, config.max_ops) for _ in range(count)
    ]


def nudge(
    rng: random.Random, schedule: list[int], config: CampaignConfig
) -> list[int]:
    """Shift one brown-out by a small signed op-count delta.

    The local move: a divergence window is usually a handful of ops
    wide, so sliding one placement explores the neighbourhood of a
    productive seed.
    """
    if not schedule:
        return random_schedule(rng, config)
    out = list(schedule)
    position = rng.randrange(len(out))
    span = max(1, (config.max_ops - config.min_ops) // 8)
    delta = rng.randint(1, span) * rng.choice((-1, 1))
    out[position] = min(
        max(out[position] + delta, config.min_ops), config.max_ops
    )
    return _clamp_schedule(rng, out, config)


def splice(
    rng: random.Random,
    schedule: list[int],
    donor: list[int],
    config: CampaignConfig,
) -> list[int]:
    """Crossover: a prefix of one seed's schedule, a suffix of another's.

    Prefix-preserving on purpose — spliced children share their leading
    boots with the parent, which is exactly what the snapshot chain
    forks for free.
    """
    if not schedule or not donor:
        return random_schedule(rng, config)
    cut_a = rng.randint(1, len(schedule))
    cut_b = rng.randint(0, len(donor))
    return _clamp_schedule(
        rng, list(schedule[:cut_a]) + list(donor[cut_b:]), config
    )


def havoc(
    rng: random.Random, schedule: list[int], config: CampaignConfig
) -> list[int]:
    """A short burst of random edits: insert, delete, replace, duplicate."""
    out = list(schedule)
    for _ in range(rng.randint(1, 4)):
        roll = rng.randrange(4)
        if roll == 0 and len(out) < config.max_reboots:
            out.insert(
                rng.randint(0, len(out)),
                rng.randint(config.min_ops, config.max_ops),
            )
        elif roll == 1 and len(out) > config.min_reboots:
            out.pop(rng.randrange(len(out)))
        elif roll == 2 and out:
            out[rng.randrange(len(out))] = rng.randint(
                config.min_ops, config.max_ops
            )
        elif roll == 3 and out and len(out) < config.max_reboots:
            position = rng.randrange(len(out))
            out.insert(position, out[position])
    return _clamp_schedule(rng, out, config)


#: Stimulus strings never grow past this; the cursor wraps anyway, so
#: longer inputs only dilute the mutation budget.
MAX_STIMULUS = 64


def mutate_stimulus(
    rng: random.Random,
    stimulus: bytes,
    *,
    require_input: bool,
    max_len: int = MAX_STIMULUS,
) -> bytes:
    """Byte-level stimulus mutation: flips, edits, inserts, duplication.

    With ``require_input`` the result is never empty — an app that
    reads its input port must always have at least one byte to serve.
    """
    out = bytearray(stimulus)
    for _ in range(rng.randint(1, 4)):
        roll = rng.randrange(5)
        if roll == 0 and out:
            position = rng.randrange(len(out))
            out[position] ^= 1 << rng.randrange(8)
        elif roll == 1 and out:
            out[rng.randrange(len(out))] = rng.randrange(256)
        elif roll == 2 and len(out) < max_len:
            out.insert(rng.randint(0, len(out)), rng.randrange(256))
        elif roll == 3 and (len(out) > 1 or (out and not require_input)):
            out.pop(rng.randrange(len(out)))
        elif roll == 4 and out and len(out) < max_len:
            position = rng.randrange(len(out))
            count = rng.randint(1, min(4, len(out) - position))
            out[position:position] = out[position : position + count]
    if require_input and not out:
        out.append(rng.randrange(256))
    return bytes(out[:max_len])


# -- job generation ----------------------------------------------------------
def _round_slices(runs: int, rounds: int) -> list[list[int]]:
    """Split run indices into contiguous per-round slices.

    Earlier rounds absorb the remainder, so every index belongs to
    exactly one round and round boundaries are pure functions of
    ``(runs, fuzz_rounds)`` — resume regenerates them identically.
    """
    base, extra = divmod(runs, rounds)
    slices = []
    start = 0
    for index in range(rounds):
        size = base + (1 if index < extra else 0)
        slices.append(list(range(start, start + size)))
        start += size
    return slices


def _make_job(
    config: CampaignConfig,
    round_no: int,
    index: int,
    corpus: Corpus,
    seeds: list[dict],
    default_stimulus_hex: str | None,
    requires_stimulus: bool,
) -> dict:
    """One run's genotype, derived deterministically from the master seed.

    The only state feeding a job besides the seed is the corpus — whose
    evolution is itself deterministic — so a resumed campaign
    regenerates exactly the jobs the interrupted one ran.
    """
    rng = random.Random(derive_seed(config.seed, "fuzz", round_no, index))
    job = {
        "index": index,
        "round": round_no,
        "op": "random",
        "parent": None,
        "schedule": random_schedule(rng, config),
        "stimulus": default_stimulus_hex,
    }
    if round_no == 0:
        if index < len(seeds):
            seed = seeds[index]
            job["op"] = "seed"
            job["schedule"] = _clamp_schedule(
                rng, [int(n) for n in seed["schedule"]], config
            )
            if requires_stimulus and seed.get("stimulus"):
                job["stimulus"] = seed["stimulus"]
        return job
    if not corpus.entries:
        return job
    parent = corpus.pick(rng)
    roll = rng.random()
    if roll < 0.35:
        op = "nudge"
        schedule = nudge(rng, parent["schedule"], config)
    elif roll < 0.70:
        op = "havoc"
        schedule = havoc(rng, parent["schedule"], config)
    else:
        donor = corpus.pick(rng)
        op = "splice"
        schedule = splice(rng, parent["schedule"], donor["schedule"], config)
    stimulus_hex = parent["stimulus"] or default_stimulus_hex
    if requires_stimulus and stimulus_hex is not None and rng.random() < 0.6:
        mutated = mutate_stimulus(
            rng, bytes.fromhex(stimulus_hex), require_input=True
        )
        stimulus_hex = mutated.hex()
        op += "+stim"
    job.update(
        op=op, parent=parent["index"], schedule=schedule,
        stimulus=stimulus_hex,
    )
    return job


# -- execution legs ----------------------------------------------------------
def _coverage_target(plan: FaultPlan) -> Callable:
    """A ``make_target`` that attaches coverage *before* flash.

    Both the from-reset leg and the fork session build their device
    through this, so flash-time execution is recorded identically on
    either path — the precondition for forked coverage matching
    from-reset coverage byte for byte.
    """

    def make_target(sim: Simulator):
        target = make_fast_target(
            sim, distance_m=plan.distance_m, fading_sigma=plan.fading_sigma
        )
        target.cpu.coverage = CoverageRecorder()
        return target

    return make_target


def _fuzz_intermittent_leg(
    config: CampaignConfig, adapter, plan: FaultPlan, leg_seed: int
) -> tuple[Observation, list[int], int, tuple[list[int], str]]:
    """The from-reset intermittent leg, plus its coverage readout.

    Mirrors :func:`repro.campaign.runner.run_intermittent_leg` hook for
    hook (fuzz plans never carry flips, so no corruptor) with coverage
    attached pre-flash.
    """
    sim = Simulator(seed=leg_seed)
    sim.trace.enabled = False  # see runner.run_intermittent_leg
    target = _coverage_target(plan)(sim)
    program = adapter.build(config.protect, config.iterations)
    executor = IntermittentExecutor(sim, target, program)
    executor.flash()
    recorder = RebootRecorder(target)
    injectors = _install_injectors(target, plan)
    with RunWatchdog(target, config.max_cycles, config.max_wall_s):
        result = executor.run(duration=config.duration, stop_on_fault=True)
    observation = _observation(result, adapter.observe(program, executor.api))
    injected = sum(getattr(i, "injections", 0) for i in injectors)
    coverage = target.cpu.coverage
    return (
        observation,
        recorder.schedule(),
        injected,
        (list(coverage.blocks()), coverage.signature()),
    )


#: Continuous-leg memo keyed by config *and* stimulus — the forking
#: module's memo deliberately omits stimulus (sampling campaigns have
#: none), so fuzz keeps its own.
_continuous_memo: dict[tuple, Observation] = {}


def _fuzz_continuous_leg(
    config: CampaignConfig, adapter, leg_seed: int, *, snapshot: bool
) -> Observation:
    """The control leg for one genotype, memoized per stimulus.

    Same honesty rule as :func:`repro.campaign.forking.
    continuous_observation`: a result is cached only when the leg
    verifiably consumed zero randomness, making it independent of
    ``leg_seed`` — so memoized and from-reset campaigns stay
    byte-identical.
    """
    key = _continuous_key(config) + (getattr(adapter, "stimulus_hex", None),)
    if snapshot:
        hit = _continuous_memo.get(key)
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
    observation = _observation(result, adapter.observe(program, executor.api))
    if snapshot and sim.rng.untouched and _memoizable(observation):
        _continuous_memo[key] = observation
    return observation


def _fuzz_record(
    job: dict,
    run_seed: int,
    plan: FaultPlan,
    injected: int,
    schedule: list[int],
    intermittent: Observation,
    continuous: Observation,
    verdict,
    coverage: tuple[list[int], str],
) -> dict:
    blocks, signature = coverage
    return {
        "index": job["index"],
        "seed": run_seed,
        "plan": plan.to_dict(),
        "injected_reboots": injected,
        "observed_schedule": schedule,
        "intermittent": intermittent.to_dict(),
        "continuous": continuous.to_dict(),
        "verdict": verdict.to_dict(),
        "fuzz": {
            "round": job["round"],
            "op": job["op"],
            "parent": job["parent"],
            "stimulus": job["stimulus"],
            "coverage": {"blocks": list(blocks), "signature": signature},
        },
    }


def execute_fuzz_run(
    config: CampaignConfig, job: dict, *, snapshot: bool = False
) -> dict:
    """Execute one fuzz genotype from reset: both legs plus the oracle."""
    adapter = _bind(get_adapter(config.app), job["stimulus"])
    run_seed = derive_seed(config.seed, "run", job["index"])
    plan = fuzz_plan(config, job["schedule"])
    try:
        intermittent, schedule, injected, coverage = _fuzz_intermittent_leg(
            config, adapter, plan, derive_seed(run_seed, "intermittent")
        )
        continuous = _fuzz_continuous_leg(
            config, adapter, derive_seed(run_seed, "continuous"),
            snapshot=snapshot,
        )
    except BudgetExceeded:
        raise  # classified as budget_exceeded, not as a guest fault
    except Exception as exc:
        raise GuestFault.wrap(exc, detail="raised while executing a leg") from exc
    verdict = compare(intermittent, continuous, adapter.invariant_keys)
    return _fuzz_record(
        job, run_seed, plan, injected, schedule, intermittent, continuous,
        verdict, coverage,
    )


def execute_fuzz_run_safe(
    config: CampaignConfig, job: dict, *, snapshot: bool = False
) -> dict:
    """Supervised :func:`execute_fuzz_run`: always exactly one record.

    Error records carry no ``fuzz`` key (the run produced no coverage);
    the corpus and the coverage stanza tolerate that shape.
    """
    try:
        with time_limit(config.max_wall_s):
            return execute_fuzz_run(config, job, snapshot=snapshot)
    except BudgetExceeded as exc:
        return error_record(
            config, job["index"],
            BudgetError.wrap(exc, detail="outside a leg"),
        )
    except RunError as exc:
        return error_record(config, job["index"], exc)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - the supervision boundary
        return error_record(
            config, job["index"],
            HostFault.wrap(exc, detail="outside guest execution"),
        )


# -- the fuzz worker ---------------------------------------------------------
def _fuzz_chunk_worker(
    config_dict: dict, jobs: list[dict], snapshot: bool = False,
    batch: bool = True,
) -> tuple[list[dict], dict]:
    """Worker entry point for fuzz chunks (picklable, module-level).

    With snapshots on, jobs sharing a stimulus execute through one
    :class:`~repro.campaign.forking.ForkSession` — every fuzz plan is
    op-index with a pinned environment, so shared schedule prefixes
    fork from the same snapshot chain.  ``batch`` is accepted for
    supervisor signature parity but unused: fuzz groups fork a
    *coverage-instrumented* target whose per-block recorder is exactly
    the per-lane state the lock-step lane engine cannot share, so they
    stay on the ForkSession path.  Returns ``(records, tier_delta)``
    like :func:`repro.campaign.scheduler._chunk_worker`.
    """
    from repro.campaign.runner import tier_stats_delta, tier_stats_snapshot

    config = CampaignConfig.from_dict(config_dict)
    before = tier_stats_snapshot()
    if not snapshot:
        return [
            execute_fuzz_run_safe(config, job, snapshot=False) for job in jobs
        ], tier_stats_delta(before)
    adapter = get_adapter(config.app)
    if hasattr(adapter, "prepare"):
        # Per-run specialisation: nothing is shareable.
        return [
            execute_fuzz_run_safe(config, job, snapshot=True) for job in jobs
        ], tier_stats_delta(before)
    groups: dict[str | None, list[dict]] = {}
    for job in jobs:
        groups.setdefault(job["stimulus"], []).append(job)
    records: dict[int, dict] = {}
    for members in groups.values():
        if len(members) < 2:
            for job in members:
                records[job["index"]] = execute_fuzz_run_safe(
                    config, job, snapshot=True
                )
        else:
            records.update(_execute_fuzz_group(config, adapter, members))
    return [records[job["index"]] for job in jobs], tier_stats_delta(before)


def _execute_fuzz_group(
    config: CampaignConfig, adapter, members: list[dict]
) -> dict[int, dict]:
    """Execute one same-stimulus group through a shared fork session.

    Mirrors :func:`repro.campaign.forking._execute_group`: lexicographic
    schedule order for prefix reuse, the zero-RNG honesty check after
    the fact, and a from-reset fallback for any member a session
    failure (or the honesty check) taints.
    """
    bound = _bind(adapter, members[0]["stimulus"])
    pending = sorted(members, key=lambda job: tuple(job["schedule"]))
    records: dict[int, dict] = {}
    fallback: list[dict] = []
    first = pending[0]
    session = None
    try:
        session = ForkSession(
            config,
            bound,
            sim_seed=derive_seed(
                derive_seed(config.seed, "run", first["index"]), "intermittent"
            ),
            make_target=_coverage_target(fuzz_plan(config, first["schedule"])),
            mode="op_index",
            record_schedule=True,
        )
    except KeyboardInterrupt:
        raise
    except BaseException:
        fallback = pending
    if session is not None:
        for position, job in enumerate(pending):
            run_seed = derive_seed(config.seed, "run", job["index"])
            try:
                with time_limit(config.max_wall_s):
                    intermittent, schedule, injected = session.execute(
                        job["schedule"]
                    )
                    recorder = session.target.cpu.coverage
                    coverage = (
                        list(recorder.blocks()), recorder.signature(),
                    )
                    continuous = _fuzz_continuous_leg(
                        config, bound,
                        derive_seed(run_seed, "continuous"),
                        snapshot=True,
                    )
            except KeyboardInterrupt:
                raise
            except BaseException:
                # Session state is suspect after any failure: this
                # member and the rest of the group replay from reset.
                fallback = pending[position:]
                break
            verdict = compare(
                intermittent, continuous, bound.invariant_keys
            )
            records[job["index"]] = _fuzz_record(
                job, run_seed, fuzz_plan(config, job["schedule"]),
                injected, schedule, intermittent, continuous, verdict,
                coverage,
            )
        if not session.rng_untouched:
            # Some draw made the trajectory depend on the borrowed
            # seed: nothing the session produced can be trusted.
            records.clear()
            fallback = list(pending)
    for job in fallback:
        records[job["index"]] = execute_fuzz_run_safe(
            config, job, snapshot=True
        )
    return records


# -- post-passes -------------------------------------------------------------
def _fuzz_shrink_pass(
    config: CampaignConfig, records: list[dict], snapshot: bool
) -> None:
    """ddmin the first ``shrink_limit`` diverging genotypes in place.

    Probes replay from reset on the bench supply with the genotype's
    own stimulus bound — one deterministic path regardless of the
    snapshot flag, so reports stay byte-identical across it.
    """
    diverging = [
        r for r in records if r["verdict"]["verdict"] == DIVERGED
    ][: config.shrink_limit]
    if not diverging:
        return
    adapter = get_adapter(config.app)
    for record in diverging:
        fuzz = record.get("fuzz")
        bound = _bind(adapter, None if fuzz is None else fuzz["stimulus"])
        try:
            continuous = _fuzz_continuous_leg(
                config, bound, derive_seed(config.seed, "shrink-control"),
                snapshot=snapshot,
            )
        except Exception:
            record["shrunk"] = None
            continue

        def still_fails(candidate: list[int]) -> bool:
            return verdict_for_schedule(
                config, bound, continuous, candidate
            ).diverged

        minimal = shrink_schedule(record["observed_schedule"], still_fails)
        record["shrunk"] = (
            None
            if minimal is None
            else {"schedule": minimal, "reboots": len(minimal)}
        )


def _coverage_stanza(
    jobs: dict[int, dict], records: list[dict], corpus: Corpus
) -> dict:
    """The report's ``coverage`` block: what the search found, per round."""
    covered: set[int] = set()
    verdicts: dict[str, int] = {}
    per_round: dict[int, dict] = {}
    for record in records:  # index order == consideration order
        job = jobs.get(record["index"])
        round_no = 0 if job is None else job["round"]
        stats = per_round.setdefault(
            round_no, {"runs": 0, "new_blocks": 0}
        )
        stats["runs"] += 1
        verdict = record["verdict"]["verdict"]
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        fuzz = record.get("fuzz")
        if fuzz is not None:
            new = [
                b for b in fuzz["coverage"]["blocks"] if b not in covered
            ]
            covered.update(new)
            stats["new_blocks"] += len(new)
    corpus_per_round: dict[int, int] = {}
    for entry in corpus.entries:
        corpus_per_round[entry["round"]] = (
            corpus_per_round.get(entry["round"], 0) + 1
        )
    rounds = []
    cumulative_blocks = 0
    cumulative_corpus = 0
    for round_no in sorted(per_round):
        stats = per_round[round_no]
        cumulative_blocks += stats["new_blocks"]
        cumulative_corpus += corpus_per_round.get(round_no, 0)
        rounds.append(
            {
                "round": round_no,
                "runs": stats["runs"],
                "new_blocks": stats["new_blocks"],
                "blocks": cumulative_blocks,
                "corpus": cumulative_corpus,
            }
        )
    return {
        "blocks": len(covered),
        "corpus": len(corpus.entries),
        "rounds": rounds,
        "verdicts": verdicts,
    }


# -- the public entry point --------------------------------------------------
def run_fuzz_campaign(
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
    """Run a coverage-guided fuzz campaign and return its report.

    The run budget splits into ``config.fuzz_rounds`` rounds.  Round
    zero seeds the corpus (uniform-random schedules, plus any seeds
    from ``corpus_path``); every later round mutates corpus survivors.
    Each round executes under the same supervision as a sampling
    campaign — crash isolation, journaling, fail-fast — and the corpus
    is updated from finished records in index order, which keeps the
    whole search deterministic.

    ``corpus_path`` seeds round zero when the file exists and receives
    the final corpus when the campaign completes.  Journal/resume work
    exactly as in :func:`~repro.campaign.scheduler.run_campaign`: jobs
    are regenerated deterministically, so only missing indices execute.
    ``batch`` and ``stats`` also mirror :func:`run_campaign` — fuzz
    groups never enter the lane engine (see
    :func:`_fuzz_chunk_worker`), but the flag rides through for
    signature parity and ``stats`` aggregates worker tier counters.
    """
    from repro.campaign.runner import tier_stats_delta, tier_stats_snapshot
    from repro.campaign.scheduler import _Supervisor, _chunk_indices

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

    adapter = get_adapter(config.app)
    requires_stimulus = bool(getattr(adapter, "requires_stimulus", False))
    default_stimulus_hex = (
        adapter.default_stimulus(config.iterations).hex()
        if requires_stimulus
        else None
    )
    seeds: list[dict] = []
    if corpus_path is not None:
        from pathlib import Path

        if Path(corpus_path).exists():
            seeds = Corpus.load_seeds(corpus_path)

    corpus = Corpus()
    jobs: dict[int, dict] = {}
    interrupted = False
    stopped = False
    stats_before = tier_stats_snapshot() if stats is not None else None
    try:
        for round_no, indices in enumerate(
            _round_slices(config.runs, config.fuzz_rounds)
        ):
            round_jobs = {
                index: _make_job(
                    config, round_no, index, corpus, seeds,
                    default_stimulus_hex, requires_stimulus,
                )
                for index in indices
            }
            jobs.update(round_jobs)
            missing = [i for i in indices if i not in records]
            if missing:
                supervisor = _Supervisor(
                    config, records, progress=progress, journal=journal,
                    fail_fast=fail_fast, snapshot=snapshot, batch=batch,
                    worker=_fuzz_chunk_worker, jobs=round_jobs, stats=stats,
                )
                supervisor.run(_chunk_indices(missing, config))
                stopped = stopped or supervisor.stop
            for index in indices:
                record = records.get(index)
                if record is not None:
                    corpus.consider(record)
            if stopped:
                break
    except KeyboardInterrupt:
        interrupted = True
    finally:
        if journal is not None:
            journal.close()

    if not interrupted and not stopped:
        for index in range(config.runs):
            if index not in records:
                records[index] = error_record(
                    config, index,
                    HostFault("scheduler lost this run without a record"),
                )
    ordered = [records[i] for i in sorted(records)]
    complete = not interrupted and not stopped and len(ordered) == config.runs
    if complete and config.shrink:
        _fuzz_shrink_pass(config, ordered, snapshot)
    if stats is not None:
        # This process's own execution (serial chunks, the shrink
        # pass); pool worker deltas were folded in by the supervisors.
        for key, value in tier_stats_delta(stats_before).items():
            stats[key] = stats.get(key, 0) + value
    report = build_report(config, ordered)
    report["coverage"] = _coverage_stanza(jobs, ordered, corpus)
    if not complete:
        report["partial"] = {
            "completed": len(ordered),
            "total": config.runs,
            "interrupted": interrupted,
        }
    if corpus_path is not None and complete:
        corpus.save(corpus_path)
    return report
