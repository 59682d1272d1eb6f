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
- **Execution.**  A genotype is an ordinary campaign
  :class:`~repro.campaign.runner.Run` whose adapter is bound to its
  stimulus and whose record gains a ``fuzz`` key.  Rounds run through
  the sampling campaign's driver, worker and shrink pass
  (:func:`~repro.campaign.scheduler.drive_campaign`): crash isolation,
  journaling and resume; every genotype's legs run from reset (on warm
  devices off the ``"reset"`` path), genotypes that share a stimulus share
  one memoized control leg, and diverging survivors shrink through the
  same ddmin pass.

Everything here honours the engine's byte-identity contract: for a
fixed config the report is identical across worker counts, execution
paths, dispatch modes, and journal resume.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable

from repro.campaign.apps import get_adapter
from repro.campaign.config import CampaignConfig
from repro.campaign.corpus import Corpus
from repro.campaign.faults import FaultPlan
from repro.campaign.runner import Run, execute_legs
from repro.mcu.coverage import CoverageRecorder
from repro.sim.rng import derive_seed


# -- genotype plumbing -------------------------------------------------------
def fuzz_plan(config: CampaignConfig, schedule) -> FaultPlan:
    """The fault plan a fuzz genotype maps to.

    Fuzz plans pin the environment (fixed distance, zero fading, no
    duty modulation, no corruption flips) so the intermittent leg is a
    deterministic function of the schedule and stimulus alone — which
    makes mutation feedback meaningful and lets one memoized control
    leg serve every genotype of a stimulus.
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
    no ``prepare`` attribute on purpose: bound adapters stay memoizable.
    Bindings of the same adapter to the same bytes compare equal, so
    the control-leg memo, which keys on the adapter, treats them as
    one.
    """

    def __init__(self, adapter, stimulus: bytes) -> None:
        self._adapter = adapter
        self._stimulus = bytes(stimulus)
        self.name = adapter.name
        self.invariant_keys = adapter.invariant_keys

    def _key(self) -> tuple:
        return (self._adapter, self._stimulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, _StimulusAdapter) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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
    boots with the parent, so they explore near a known trajectory.
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


# -- execution ---------------------------------------------------------------
def _fuzz_key(job: dict, record: dict, coverage: CoverageRecorder) -> None:
    """Finish a genotype's record: its lineage and its coverage readout."""
    record["fuzz"] = {
        "round": job["round"],
        "op": job["op"],
        "parent": job["parent"],
        "stimulus": job["stimulus"],
        "coverage": {
            "blocks": list(coverage.blocks()),
            "signature": coverage.signature(),
        },
    }


def fuzz_run(config: CampaignConfig, adapter, job: dict) -> Run:
    """The campaign run a genotype job executes as."""
    return Run(
        job["index"],
        derive_seed(config.seed, "run", job["index"]),
        fuzz_plan(config, job["schedule"]),
        _bind(adapter, job["stimulus"]),
        partial(_fuzz_key, job),
    )


def execute_fuzz_run(
    config: CampaignConfig, job: dict, *, snapshot: bool = False
) -> dict:
    """Execute one fuzz genotype from reset: both legs plus the oracle."""
    run = fuzz_run(config, get_adapter(config.app), job)
    return execute_legs(config, run, snapshot=snapshot)


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
    path: str = "lanes",
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
    ``path`` is the execution path ``run_campaign`` picked; fuzz runs
    never form lane groups (see
    :func:`~repro.campaign.forking.execute_chunk`), so ``"lanes"`` runs
    them as ``"warm"`` does.
    """
    from repro.campaign.scheduler import drive_campaign  # deferred: no cycle

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

    def schedule(records: dict, run_round: Callable) -> None:
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
            going = run_round(indices, round_jobs)
            for index in indices:
                record = records.get(index)
                if record is not None:
                    corpus.consider(record)
            if not going:
                break

    report, ordered = drive_campaign(
        config, schedule,
        adapter_of=lambda record: _bind(adapter, record["fuzz"]["stimulus"]),
        progress=progress, journal_path=journal_path,
        resume_from=resume_from, fail_fast=fail_fast, path=path,
        journal_fsync=journal_fsync, stats=stats,
    )
    report["coverage"] = _coverage_stanza(jobs, ordered, corpus)
    if corpus_path is not None and "partial" not in report:
        corpus.save(corpus_path)
    return report
