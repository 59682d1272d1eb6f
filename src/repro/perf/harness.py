"""Benchmark harness for the simulation hot paths.

Six benchmarks cover the layers that dominate campaign wall time, per
the profile that motivated the PR-2 hot-path work:

- ``isa_throughput`` — the per-instruction loop: fetch/decode/execute
  plus the work→time+energy conversion, on a bench supply that never
  browns out (so the number is pure interpreter speed);
- ``charge_discharge`` — the intermittent duty cycle: organic charging
  to turn-on followed by discharging to brown-out, which exercises the
  power system's charging fast path;
- ``campaign`` — a small end-to-end fault-injection campaign (the PR-1
  engine), the unit the fleet multiplies by hundreds;
- ``snapshot_fork`` — a fixed-environment campaign where every run in a
  fault mode shares harvesting conditions, so the lane engine gets real
  fork groups to share (the best case the ``campaign`` benchmark's
  randomized environments never produce);
- ``campaign_opsweep`` — a fixed-environment op-index sweep where the
  whole chunk forms one lane group for the lane engine: one
  fault-free leader is shared, never-firing schedules become clones,
  firing schedules peel to the scalar path (the speedup over
  ``--no-batch`` lands in ``detail``);
- ``fuzz_search`` — a coverage-guided fuzz campaign on the RFID
  dispatch firmware: coverage recording, corpus bookkeeping, mutators,
  and warm from-reset legs, end to end.

Every benchmark reports a *higher-is-better* throughput value, so the
regression check is a single ratio per metric.  Wall-clock timing
(:func:`time.perf_counter`) lives only here — simulated results remain
deterministic; only the timings vary across hosts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.campaign.config import CampaignConfig
from repro.campaign.scheduler import run_campaign
from repro.mcu.assembler import assemble
from repro.mcu.device import PowerFailure
from repro.sim.kernel import Simulator
from repro.testing import make_bench_target, make_fast_target

#: A tight loop mixing the operand classes the decode cache must cover:
#: register/immediate ALU, absolute loads/stores (FRAM), and stack ops.
ISA_LOOP_SOURCE = """
        .org 0xA000
buf:    .word 0
start:  mov #0, r4
loop:   add #1, r4
        mov r4, &buf
        mov &buf, r5
        push r5
        pop r6
        xor r5, r6
        cmp #0, r4
        jnz loop
        halt
"""


@dataclass
class BenchResult:
    """One benchmark's outcome: a named higher-is-better throughput."""

    name: str
    value: float
    unit: str
    wall_s: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "unit": self.unit,
            "wall_s": self.wall_s,
            "detail": self.detail,
        }


def _blocks_detail(cpu) -> dict:
    """The CPU's block-cache counters (translated/executed/deopts)."""
    return {
        "translated": cpu.blocks_translated,
        "executed": cpu.blocks_executed,
        "deopts": cpu.blocks_deopts,
    }


def bench_isa_throughput(instructions: int = 60_000) -> BenchResult:
    """Instruction retirement rate on a bench supply (no brown-outs).

    Dispatches through :meth:`Cpu.step_block` — the production path every
    ISA app boots through (:func:`repro.apps.isa_app.run_to_halt`) — so the number
    reflects block-translation steady state (the ``blocks`` detail trio
    records the translation/deopt mix; ``REPRO_NO_BLOCKCACHE=1`` turns
    the same benchmark into a pure single-step measurement).
    """
    sim = Simulator(seed=7)
    target = make_bench_target(sim)
    program = assemble(ISA_LOOP_SOURCE)
    target.load_program(program)
    step_block = target.cpu.step_block
    # Warm-up: one loop body, outside the timed window.
    for _ in range(16):
        step_block()
    t0 = time.perf_counter()
    retired = 0
    while retired < instructions:
        retired += step_block()
    wall = time.perf_counter() - t0
    return BenchResult(
        name="isa_throughput",
        value=retired / wall if wall > 0 else float("inf"),
        unit="instructions/s",
        wall_s=wall,
        detail={
            "instructions": retired,
            "retired_total": target.cpu.instructions_retired,
            "cycles_executed": target.cycles_executed,
            "sim_time_s": sim.now,
            "blocks": _blocks_detail(target.cpu),
        },
    )


def bench_charge_discharge(cycles: int = 12) -> BenchResult:
    """Full charge/discharge cycles per wall second on a fast target.

    Deterministic harvesting (no fading) so the charging fast path gets
    its longest batches; the discharge leg burns real instruction-sized
    work units until the organic brown-out.
    """
    sim = Simulator(seed=11)
    target = make_fast_target(sim, distance_m=1.6, fading_sigma=0.0)
    completed = 0
    sim_start = sim.now
    t0 = time.perf_counter()
    for _ in range(cycles):
        target.power.charge_until_on()
        try:
            while True:
                target.execute_cycles(64)
        except PowerFailure:
            completed += 1
    wall = time.perf_counter() - t0
    return BenchResult(
        name="charge_discharge",
        value=completed / wall if wall > 0 else float("inf"),
        unit="cycles/s",
        wall_s=wall,
        detail={
            "cycles": completed,
            "sim_time_s": sim.now - sim_start,
            "reboots": target.power.reboots,
            "blocks": _blocks_detail(target.cpu),
        },
    )


def bench_campaign(runs: int = 6) -> BenchResult:
    """End-to-end campaign runs per wall second (inline, one worker).

    A small untimed campaign runs first: it pays the one-time costs a
    fleet amortises over hundreds of runs (lazy imports, the memoized
    continuous control leg for this workload), so the timed window
    measures steady-state per-run throughput whether or not the
    process is cold.  Without the warm-up the number swings ~2x on the
    luck of arriving with a warm memo.
    """
    config = CampaignConfig(
        app="linked_list",
        runs=runs,
        seed=1234,
        workers=1,
        duration=0.5,
        shrink=False,
        capture=False,
    )
    run_campaign(CampaignConfig(**{**config.to_dict(), "runs": 2}))
    t0 = time.perf_counter()
    report = run_campaign(config)
    wall = time.perf_counter() - t0
    return BenchResult(
        name="campaign",
        value=runs / wall if wall > 0 else float("inf"),
        unit="runs/s",
        wall_s=wall,
        detail={
            "runs": runs,
            "diverged": report["summary"]["diverged"],
            "agree": report["summary"]["agree"],
            # The execution shape actually used: how many workers the
            # scheduler was given and whether snapshot execution was
            # active (run_campaign defaults it on), so a
            # recorded BENCH file says what was measured.
            "workers": config.workers,
            "snapshot": True,
        },
    )


def bench_snapshot_fork(runs: int = 24) -> BenchResult:
    """Fork-group campaign throughput (snapshot execution at its best).

    The environment is pinned (fixed distance, no fading), so every run
    in a fault mode lands in one fork group and the lane engine runs its
    fault-free prefix once.  Both execution paths are timed on the
    identical config — their reports are byte-identical by contract —
    and the headline value is the snapshot path's throughput; the
    no-snapshot figure and the resulting speedup land in ``detail``.
    A small untimed campaign pays the one-time costs first (see
    :func:`bench_campaign`).
    """
    config = CampaignConfig(
        app="linked_list",
        runs=runs,
        seed=4321,
        workers=1,
        duration=0.5,
        shrink=False,
        capture=False,
        modes=("op_index", "commit_boundary"),
        distance_range=(1.6, 1.6),
        fading_range=(0.0, 0.0),
    )
    run_campaign(CampaignConfig(**{**config.to_dict(), "runs": 2}))
    t0 = time.perf_counter()
    run_campaign(config, snapshot=False)
    wall_off = time.perf_counter() - t0
    t0 = time.perf_counter()
    report = run_campaign(config, snapshot=True)
    wall = time.perf_counter() - t0
    return BenchResult(
        name="snapshot_fork",
        value=runs / wall if wall > 0 else float("inf"),
        unit="runs/s",
        wall_s=wall,
        detail={
            "runs": runs,
            "diverged": report["summary"]["diverged"],
            "no_snapshot_runs_per_s": (
                runs / wall_off if wall_off > 0 else float("inf")
            ),
            "speedup_vs_no_snapshot": (
                wall_off / wall if wall > 0 else float("inf")
            ),
            "workers": config.workers,
        },
    )


def bench_campaign_opsweep(runs: int = 24) -> BenchResult:
    """Lane-batched campaign throughput on an op-index sweep workload.

    Every run shares the environment (fixed distance, no fading, no
    duty) and sweeps injection points across a wide op-index range, so
    the whole chunk lands in one lane group: schedules that fire inside
    the executed window peel back into the scalar path, schedules that
    sweep past it become clones of the shared fault-free leader.  Both
    execution paths are timed on the identical config — reports are
    byte-identical by contract — and the headline value is the batched
    path's throughput; the scalar figure, the speedup, and the lane
    accounting land in ``detail``.  A small untimed campaign pays the
    one-time costs first (see :func:`bench_campaign`).
    """
    from repro.campaign.runner import tier_stats_delta, tier_stats_snapshot

    config = CampaignConfig(
        app="rfid_firmware",
        runs=runs,
        seed=2468,
        workers=1,
        iterations=600,
        duration=1.0,
        shrink=False,
        capture=False,
        modes=("op_index",),
        min_ops=2000,
        max_ops=60_000,
        distance_range=(1.6, 1.6),
        fading_range=(0.0, 0.0),
        duty_chance=0.0,
    )
    run_campaign(CampaignConfig(**{**config.to_dict(), "runs": 2}))
    t0 = time.perf_counter()
    run_campaign(config, batch=False)
    wall_off = time.perf_counter() - t0
    before = tier_stats_snapshot()
    t0 = time.perf_counter()
    report = run_campaign(config, batch=True)
    wall = time.perf_counter() - t0
    lanes = tier_stats_delta(before)
    return BenchResult(
        name="campaign_opsweep",
        value=runs / wall if wall > 0 else float("inf"),
        unit="runs/s",
        wall_s=wall,
        detail={
            "runs": runs,
            "diverged": report["summary"]["diverged"],
            "no_batch_runs_per_s": (
                runs / wall_off if wall_off > 0 else float("inf")
            ),
            "speedup_vs_no_batch": (
                wall_off / wall if wall > 0 else float("inf")
            ),
            "workers": config.workers,
            "lanes_packed": lanes["lanes_packed"],
            "lanes_peeled": lanes["lanes_peeled"],
            "batch_spans": lanes["batch_spans"],
        },
    )


def bench_fuzz_search(runs: int = 18) -> BenchResult:
    """Coverage-guided fuzz campaign throughput on the RFID firmware.

    Exercises the full search stack per run — coverage recording in the
    ISA core, corpus bookkeeping, mutators, warm from-reset legs and
    the memoized control leg — so a regression in any of those layers
    shows up as a runs/s cliff here before it shows up in a fleet.  The
    round count scales with the budget (three runs per round, capped at
    six rounds) to keep the corpus-feedback loop engaged at every
    scale.  A small
    untimed campaign pays the one-time costs first (see
    :func:`bench_campaign`).
    """
    rounds = max(1, min(6, runs // 3))
    config = CampaignConfig(
        app="rfid_firmware",
        runs=runs,
        seed=1,
        iterations=10,
        duration=0.8,
        workers=1,
        max_ops=120,
        shrink=False,
        capture=False,
        mode="fuzz",
        fuzz_rounds=rounds,
    )
    run_campaign(
        CampaignConfig(**{**config.to_dict(), "runs": 2, "fuzz_rounds": 1})
    )
    t0 = time.perf_counter()
    report = run_campaign(config)
    wall = time.perf_counter() - t0
    return BenchResult(
        name="fuzz_search",
        value=runs / wall if wall > 0 else float("inf"),
        unit="runs/s",
        wall_s=wall,
        detail={
            "runs": runs,
            "rounds": rounds,
            "blocks_covered": report["coverage"]["blocks"],
            "corpus": report["coverage"]["corpus"],
            "diverged": report["summary"]["diverged"],
        },
    )


#: Benchmark registry: name -> (constructor taking a workload scale).
#: ``python -m repro.perf --profile NAME`` resolves names here.
BENCHMARKS = {
    "isa_throughput": lambda scale=1.0: bench_isa_throughput(
        max(500, int(60_000 * scale))
    ),
    "charge_discharge": lambda scale=1.0: bench_charge_discharge(
        max(2, int(12 * scale))
    ),
    "campaign": lambda scale=1.0: bench_campaign(max(1, int(6 * scale))),
    "snapshot_fork": lambda scale=1.0: bench_snapshot_fork(
        max(2, int(24 * scale))
    ),
    # Not scaled below 24 runs: the lane engine amortises one leader
    # leg across the whole group, so tiny run counts measure leader
    # amortisation (noisily), not batched throughput — and the value
    # must stay comparable with the committed full-size baseline.
    "campaign_opsweep": lambda scale=1.0: bench_campaign_opsweep(
        max(24, int(24 * scale))
    ),
    "fuzz_search": lambda scale=1.0: bench_fuzz_search(
        max(3, int(18 * scale))
    ),
}


def run_all(scale: float = 1.0, repeats: int = 1) -> dict[str, BenchResult]:
    """Run every benchmark; keep the best (fastest) of ``repeats``.

    ``scale`` multiplies each benchmark's workload size — the
    ``perf_smoke`` test uses a small scale to keep the suite fast.
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive (got {scale})")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1 (got {repeats})")
    plans = list(BENCHMARKS.values())
    results: dict[str, BenchResult] = {}
    for plan in plans:
        best: BenchResult | None = None
        for _ in range(repeats):
            result = plan(scale)
            if best is None or result.value > best.value:
                best = result
        results[best.name] = best
    return results
