"""Campaign configuration: the single source of truth for a sweep.

A :class:`CampaignConfig` fully determines a campaign: the application
under test, the number of randomized runs, the master seed every
per-run decision is derived from, and the bounds of each fault-
injection axis.  Two campaigns with equal configs produce byte-
identical reports — that is the contract the scheduler, the workers,
and the tests all rely on, so every field here must be a plain,
picklable, JSON-serializable value.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

#: The fault-placement strategies a run can draw (see ``faults.py``).
FAULT_MODES = ("op_index", "energy_level", "commit_boundary", "organic")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines one fault-injection campaign.

    Parameters
    ----------
    app:
        Registered application name (see ``repro.campaign.apps``).
    runs:
        Number of randomized intermittent executions.
    seed:
        Master seed; every run seed, fault plan, and simulator seed is
        derived from it (never from global randomness).
    workers:
        Worker processes; 1 runs inline in the calling process.
    protect:
        Run the app's intermittence-protected variant (repair-on-boot
        list, task-model commits) instead of the naive one.
    iterations:
        Workload size handed to the app adapter (loop iterations to
        complete, list length to reach, ...).
    duration:
        Simulated-time budget per intermittent run, in seconds.
    modes:
        Subset of :data:`FAULT_MODES` the planner may draw from.
    min_reboots / max_reboots:
        Injected-reboot count range per run (op_index / energy_level /
        commit_boundary modes).
    min_ops / max_ops:
        Ops-into-boot range for op-index placement.
    distance_range:
        Harvester distance perturbation bounds, in metres.
    fading_range:
        Log-normal fading sigma bounds, in dB.
    duty_chance:
        Probability a run also gets reader duty-cycle modulation.
    corrupt_checkpoints:
        Enable the bit-flip axis against the app's protected FRAM
        state (measures corruption *detection*, see docs/CAMPAIGN.md).
    shrink:
        Minimize diverging runs to their smallest reboot schedule.
    shrink_limit:
        Maximum number of diverging runs to shrink.
    capture:
        Re-run the first diverging run with EDB attached in passive
        mode and embed the monitor context in the report.
    chunk:
        Work-unit size shipped to each worker process (0 = auto).
    max_cycles:
        Watchdog: simulated-cycle budget per execution leg (0 = off).
        Deterministic — a fixed seed trips at the same instruction
        every time, so reports stay byte-identical.
    max_wall_s:
        Watchdog: wall-clock budget, enforced per leg by a cheap
        monotonic poll every 512 work units (a device watch) and per
        run by a SIGALRM alarm where available (0 = off).  Inherently non-deterministic;
        use as a generous backstop, not a tuning knob.
    max_retries:
        Supervision: how many *solo* worker-loss failures a chunk may
        accumulate before its runs are recorded as ``worker_lost``.
    retry_backoff:
        Supervision: base of the exponential backoff (seconds) slept
        before retrying a chunk whose worker died.
    mode:
        ``"sample"`` draws every run's fault plan independently at
        random (the classic campaign); ``"fuzz"`` runs the coverage-
        guided search of :mod:`repro.campaign.fuzz`, mutating fault
        schedules (and stimulus bytes, for apps that take input)
        between rounds.
    fuzz_rounds:
        Fuzz mode only: how many search rounds the run budget is split
        into.  Round one seeds the corpus with uniform-random
        schedules; every later round mutates the corpus.  ``1`` makes
        fuzz mode degenerate into pure uniform sampling — the baseline
        the acceptance test compares against.
    """

    app: str = "linked_list"
    runs: int = 100
    seed: int = 0
    workers: int = 1
    protect: bool = False
    iterations: int = 16
    duration: float = 3.0
    modes: tuple[str, ...] = ("op_index", "energy_level", "commit_boundary", "organic")
    min_reboots: int = 1
    max_reboots: int = 6
    min_ops: int = 5
    max_ops: int = 400
    distance_range: tuple[float, float] = (1.2, 2.2)
    fading_range: tuple[float, float] = (0.0, 2.0)
    duty_chance: float = 0.25
    corrupt_checkpoints: bool = False
    shrink: bool = True
    shrink_limit: int = 3
    capture: bool = False
    chunk: int = 0
    max_cycles: int = 0
    max_wall_s: float = 0.0
    max_retries: int = 3
    retry_backoff: float = 0.05
    mode: str = "sample"
    fuzz_rounds: int = 8

    def __post_init__(self) -> None:
        if self.runs < 0:
            raise ValueError(f"runs must be >= 0 (got {self.runs})")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1 (got {self.workers})")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1 (got {self.iterations})")
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive (got {self.duration})")
        if not self.modes:
            raise ValueError("at least one fault mode is required")
        unknown = set(self.modes) - set(FAULT_MODES)
        if unknown:
            raise ValueError(
                f"unknown fault modes {sorted(unknown)}; valid: {FAULT_MODES}"
            )
        if not 1 <= self.min_reboots <= self.max_reboots:
            raise ValueError(
                f"need 1 <= min_reboots <= max_reboots "
                f"(got {self.min_reboots}..{self.max_reboots})"
            )
        if not 1 <= self.min_ops <= self.max_ops:
            raise ValueError(
                f"need 1 <= min_ops <= max_ops (got {self.min_ops}..{self.max_ops})"
            )
        lo, hi = self.distance_range
        if not 0.0 < lo <= hi:
            raise ValueError(f"bad distance range {self.distance_range}")
        lo, hi = self.fading_range
        if not 0.0 <= lo <= hi:
            raise ValueError(f"bad fading range {self.fading_range}")
        if not 0.0 <= self.duty_chance <= 1.0:
            raise ValueError(f"duty chance out of [0, 1]: {self.duty_chance}")
        if self.max_cycles < 0:
            raise ValueError(f"max_cycles must be >= 0 (got {self.max_cycles})")
        if self.max_wall_s < 0.0:
            raise ValueError(f"max_wall_s must be >= 0 (got {self.max_wall_s})")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1 (got {self.max_retries})")
        if self.retry_backoff < 0.0:
            raise ValueError(
                f"retry_backoff must be >= 0 (got {self.retry_backoff})"
            )
        if self.mode not in ("sample", "fuzz"):
            raise ValueError(
                f"unknown campaign mode {self.mode!r}; "
                f"valid: 'sample', 'fuzz'"
            )
        if self.fuzz_rounds < 1:
            raise ValueError(
                f"fuzz_rounds must be >= 1 (got {self.fuzz_rounds})"
            )
        if self.mode == "fuzz" and 0 < self.runs < self.fuzz_rounds:
            raise ValueError(
                f"fuzz mode needs runs >= fuzz_rounds "
                f"(got runs={self.runs}, fuzz_rounds={self.fuzz_rounds})"
            )
        if self.mode == "fuzz" and self.capture:
            # The capture pass re-derives its fault plan from the run
            # seed, which does not exist for mutated genotypes.
            raise ValueError("capture is not supported in fuzz mode")

    # -- (de)serialization ------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (tuples become lists; JSON/pickle friendly)."""
        out = asdict(self)
        out["modes"] = list(self.modes)
        out["distance_range"] = list(self.distance_range)
        out["fading_range"] = list(self.fading_range)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        for key in ("modes", "distance_range", "fading_range"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)
