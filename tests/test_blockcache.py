"""Differential ISA conformance for the block dispatch tier.

Every test here runs the same assembled program on freshly built,
identically seeded simulators under each execution tier — single-step
and translated basic blocks — and requires the executions to be
*bit-identical*: register file, Fletcher-16 checksums of every memory
region, retired-instruction counts, reboot boundaries, simulated clock,
capacitor voltage, and energy accounting.  Programs are randomly
generated from seeds (straight-line and branchy shapes), optionally
under randomized brown-out schedules, plus directed cases for the
hardest invalidation/deoptimization scenarios: self-modifying
FRAM-resident code, brown-outs landing mid-block under an intermittent
supply, and forced deoptimization of every guard.

What is deliberately *not* compared: per-region read counters.  Block
translation decodes ahead of execution, so instrumentation-level read
counts legitimately differ while every architecturally visible bit
stays equal.
"""

from __future__ import annotations

import math
import os
import random

import pytest

from repro import RunStatus, Simulator, TargetDevice, make_wisp_power_system
from repro.campaign import forking
from repro.campaign.config import CampaignConfig
from repro.campaign.faults import ScheduledBrownouts
from repro.campaign.report import render_json
from repro.campaign.scheduler import run_campaign
from repro.mcu.assembler import assemble
from repro.power.capacitor import StorageCapacitor, closed_form_step
from repro.runtime.isa_executor import IsaIntermittentExecutor
from repro.testing import make_bench_target

pytestmark = pytest.mark.blockcache

#: The two dispatch tiers, fastest first (see docs/PERF.md).
MODES = ("block", "step")

# The differential (bit-identity) assertions run under *every* tier
# environment — that is the point of the suite — but the non-vacuity
# assertions ("the tier under test really engaged") only hold when the
# environment has not disabled that tier.
_BLOCKCACHE_ON = os.environ.get("REPRO_NO_BLOCKCACHE", "") in ("", "0")
_DEOPT_FORCED = os.environ.get("REPRO_FORCE_DEOPT", "") not in ("", "0")
_BLOCKS_ENGAGE = _BLOCKCACHE_ON and not _DEOPT_FORCED

needs_guards = pytest.mark.skipif(
    not _BLOCKS_ENGAGE,
    reason="block guards disabled by REPRO_NO_BLOCKCACHE/REPRO_FORCE_DEOPT",
)


def fletcher16(data: bytes) -> int:
    """Fletcher-16 checksum (the classic mod-255 formulation)."""
    s1 = s2 = 0
    for byte in data:
        s1 = (s1 + byte) % 255
        s2 = (s2 + s1) % 255
    return (s2 << 8) | s1


def _execute(source, *, mode="block", seed=1234, duration=1.5,
             distance=1.6, fading_sigma=0.0, schedule=None, bench=False):
    """Assemble and run ``source`` intermittently under one dispatch tier.

    ``mode`` picks the tier: ``"step"`` single-steps every instruction,
    and ``"block"`` is the production path (translated blocks).
    ``schedule`` optionally installs a
    :class:`ScheduledBrownouts` injector (ops per boot); ``bench``
    swaps the fading RF supply for the bench supply that never browns
    out organically, so the schedule is the only fault source.
    Returns ``(result, device, sim)``.
    """
    sim = Simulator(seed=seed)
    if bench:
        device = make_bench_target(sim)
    else:
        power = make_wisp_power_system(
            sim, distance_m=distance, fading_sigma=fading_sigma
        )
        device = TargetDevice(sim, power)
    if mode == "step":
        device.cpu.block_cache_enabled = False
    elif mode != "block":
        raise ValueError(f"unknown mode {mode!r}")
    if schedule:
        ScheduledBrownouts(device, list(schedule))
    executor = IsaIntermittentExecutor(sim, device, assemble(source))
    result = executor.run(duration=duration)
    return result, device, sim


def _observable_state(result, device, sim):
    """Everything the ISSUE's bit-identity contract covers, as one dict."""
    return {
        "status": result.status,
        "boots": result.boots,
        "reboots": result.reboots,
        "faults": result.faults,
        "first_fault_time": result.first_fault_time,
        "registers": tuple(device.cpu.registers),
        "retired": device.cpu.instructions_retired,
        # Region bytes read directly, not through the map accessors, so
        # the checksum itself cannot perturb read/write counters.
        "memory": {
            region.name: fletcher16(bytes(region._data))
            for region in device.memory.regions
        },
        "now": sim.now,
        "vcap": device.power.vcap,
        "energy": device.energy_consumed,
    }


def _assert_differential(source, **kwargs):
    """Run both tiers and require bit-identical observable state.

    Returns ``{mode: (result, device, sim)}`` so callers can make the
    differential non-vacuous (assert the tier under test actually
    engaged).
    """
    runs = {mode: _execute(source, mode=mode, **kwargs) for mode in MODES}
    states = {mode: _observable_state(*run) for mode, run in runs.items()}
    assert states["block"] == states["step"], "block tier diverged"
    return runs


# -- random program generation ---------------------------------------------

_REGS = [f"r{i}" for i in range(4, 13)]
_TWO_OP = ["mov", "add", "sub", "and", "or", "xor", "cmp", "bit"]
_ONE_OP = ["inc", "dec", "shl", "shr", "swpb", "inv"]


def _random_straightline(rng: random.Random, length: int) -> str:
    """A linear program over registers, immediates, and FRAM words."""
    data = [f"d{i}:     .word {rng.randrange(0x10000)}" for i in range(4)]
    body = []
    for _ in range(length):
        shape = rng.randrange(6)
        if shape == 0:
            body.append(
                f"        {rng.choice(_TWO_OP)} "
                f"#{rng.randrange(0x10000)}, {rng.choice(_REGS)}"
            )
        elif shape == 1:
            body.append(
                f"        {rng.choice(_TWO_OP)} "
                f"{rng.choice(_REGS)}, {rng.choice(_REGS)}"
            )
        elif shape == 2:
            body.append(
                f"        {rng.choice(_TWO_OP)} "
                f"&d{rng.randrange(4)}, {rng.choice(_REGS)}"
            )
        elif shape == 3:
            body.append(
                f"        mov {rng.choice(_REGS)}, &d{rng.randrange(4)}"
            )
        elif shape == 4:
            body.append(f"        {rng.choice(_ONE_OP)} {rng.choice(_REGS)}")
        else:
            reg = rng.choice(_REGS)
            body.append(f"        push {reg}")
            body.append(f"        pop {rng.choice(_REGS)}")
    lines = ["        .org 0xA000", *data, "start:  nop", *body, "        halt"]
    return "\n".join(lines)


def _random_branchy(rng: random.Random, iterations: int) -> str:
    """A counted loop with a flag-dependent branch inside each pass."""
    taken = rng.choice(["jz", "jnz", "jc", "jn"])
    op_a = rng.choice(_TWO_OP)
    op_b = rng.choice(_ONE_OP)
    return f"""
        .org 0xA000
acc:    .word 0
out:    .word 0
start:  mov &acc, r4
        mov #{rng.randrange(1, 0x4000)}, r6
loop:   {op_a} #{rng.randrange(0x10000)}, r6
        {op_b} r6
        shr r6
        {taken} skip
        add #{rng.randrange(1, 9)}, r7
        xor r6, r7
skip:   add r7, r5
        inc r4
        mov r4, &acc
        cmp #{iterations}, r4
        jnz loop
        mov r5, &out
        halt
"""


@pytest.mark.parametrize("seed", [1, 7, 23, 101, 4099])
def test_random_straightline_differential(seed):
    rng = random.Random(seed)
    source = _random_straightline(rng, length=rng.randrange(20, 60))
    runs = _assert_differential(source, seed=1000 + seed)
    blocked_result, blocked_device, _ = runs["block"]
    assert blocked_result.status is RunStatus.COMPLETED
    # The fast path genuinely engaged: translation and block dispatch
    # both happened (the differential would pass vacuously otherwise).
    if _BLOCKS_ENGAGE:
        assert blocked_device.cpu.blocks_translated > 0
        assert blocked_device.cpu.blocks_executed > 0


@pytest.mark.parametrize("seed", [2, 11, 31, 127, 8191])
def test_random_branchy_differential(seed):
    rng = random.Random(seed)
    source = _random_branchy(rng, iterations=rng.randrange(40, 160))
    runs = _assert_differential(source, seed=2000 + seed, duration=2.5)
    _, blocked_device, _ = runs["block"]
    _, stepped_device, _ = runs["step"]
    if _BLOCKS_ENGAGE:
        assert blocked_device.cpu.blocks_executed > 0
    # Single-step mode must never have touched the translator.
    assert stepped_device.cpu.blocks_translated == 0
    assert stepped_device.cpu.blocks_executed == 0


def test_mid_block_brownout_differential():
    """A weak, fading supply browns out constantly; blocks must deopt
    (or unwind) onto the exact instruction boundary single-stepping
    lands on, reboot for reboot."""
    rng = random.Random(5)
    source = _random_branchy(rng, iterations=6000)
    runs = _assert_differential(
        source, seed=77, duration=1.0, distance=2.4, fading_sigma=1.5
    )
    blocked_result, blocked_device, _ = runs["block"]
    # The scenario is only meaningful if power actually failed mid-run
    # and the near-brown-out guard forced deoptimizations.
    assert blocked_result.reboots > 0
    if _BLOCKCACHE_ON:
        assert blocked_device.cpu.blocks_deopts > 0


SELF_MODIFYING_SOURCE = """
; FRAM-resident code that rewrites its own immediate operand.
; 0xA000: mov #7, r4 encodes as opcode word, register word, then the
; immediate extension word at 0xA004.  The store to &0xA004 must
; invalidate the translated block so the second pass of the loop
; executes the patched instruction.
        .org 0xA000
start:  mov #7, r4
        mov #99, &0xA004
        inc r5
        cmp #2, r5
        jnz start
        halt
"""


def test_self_modifying_code_differential():
    runs = _assert_differential(SELF_MODIFYING_SOURCE, seed=31)
    blocked_result, blocked_device, _ = runs["block"]
    assert blocked_result.status is RunStatus.COMPLETED
    # The patch took effect on the second pass in *all* modes: stale
    # translations would have left r4 at the original immediate.
    assert blocked_device.cpu.registers[4] == 99


def test_forced_single_step_leaves_counters_dark():
    """block_cache_enabled=False is a true kill switch: no translation,
    no block dispatch, no deopt accounting."""
    _, device, _ = _execute(
        _random_straightline(random.Random(3), 25), mode="step", seed=3
    )
    cpu = device.cpu
    assert (cpu.blocks_translated, cpu.blocks_executed, cpu.blocks_deopts) == (
        0,
        0,
        0,
    )


# -- random fault schedules across both tiers -------------------------------


@pytest.mark.parametrize("seed", [3, 17, 59])
def test_random_faulted_schedule_differential(seed):
    """Random program + random brown-out schedule, step vs block identical.

    The bench supply never browns out organically, so the injected
    schedule is the only fault source — every reboot boundary, register,
    memory word, clock tick, and capacitor bit must agree across
    single-step and block dispatch, with the injector's watch
    installed exactly as in campaign legs.
    """
    rng = random.Random(seed)
    source = _random_branchy(rng, iterations=rng.randrange(200, 400))
    schedule = [rng.randrange(40, 400) for _ in range(rng.randrange(2, 8))]
    runs = _assert_differential(
        source, seed=4000 + seed, duration=0.5, bench=True, schedule=schedule
    )
    blocked_result, _, _ = runs["block"]
    # Faults really fired.
    assert blocked_result.reboots > 0


@pytest.mark.parametrize("seed", [13, 43])
def test_random_faulted_organic_differential(seed):
    """Random schedule *plus* organic fading brown-outs, step vs block."""
    rng = random.Random(seed)
    source = _random_branchy(rng, iterations=5000)
    schedule = [rng.randrange(30, 200) for _ in range(rng.randrange(1, 5))]
    runs = _assert_differential(
        source, seed=5000 + seed, duration=0.8, distance=2.2,
        fading_sigma=1.5, schedule=schedule,
    )
    blocked_result, blocked_device, _ = runs["block"]
    assert blocked_result.reboots > 0
    if _BLOCKS_ENGAGE:
        assert blocked_device.cpu.blocks_executed > 0


# -- directed guard edge cases (src/repro/mcu/device.py block_guard) --------


HOT_LOOP_SOURCE = """
        .org 0xA000
start:  mov #0, r4
outer:  mov #30000, r5
loop:   add #3, r4
        dec r5
        jnz loop
        jmp outer
"""


def _warm_bench_device(seed=7, leakage_resistance=None, steps=200):
    """A bench-supplied device with a live spend window and hot blocks."""
    sim = Simulator(seed=seed)
    device = make_bench_target(sim)
    if leakage_resistance is not None:
        device.power.capacitor.leakage_resistance = leakage_resistance
        device.invalidate_energy_window()
    device.load_program(assemble(HOT_LOOP_SOURCE))
    for _ in range(steps):
        device.cpu.step_block()
    assert device._spend_window is not None
    return sim, device


def _first_refusal(device, lo=1, hi=1 << 24):
    """Bisect the smallest worst_cycles block_guard refuses."""
    assert device.block_guard(lo)
    assert not device.block_guard(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if device.block_guard(mid):
            lo = mid
        else:
            hi = mid
    return hi


@needs_guards
def test_block_guard_refuses_earlier_with_leakage():
    """The droop bound must include the leakage term when present.

    Identical setups except for the capacitor's self-discharge path:
    the leaky device's worst-case droop crosses the comparator floor at
    a strictly smaller cycle span, and at exactly that span the
    leak-free device still admits the block — so the refusal is
    attributable to the leakage term, not the base net-load droop.
    """
    _, clean = _warm_bench_device(leakage_resistance=None)
    _, leaky = _warm_bench_device(leakage_resistance=2e5)
    assert leaky._spend_window.leak_tau is not None
    assert clean._spend_window.leak_tau is None
    clean_refusal = _first_refusal(clean)
    leaky_refusal = _first_refusal(leaky)
    assert leaky_refusal < clean_refusal
    assert clean.block_guard(leaky_refusal)


@needs_guards
def test_block_guard_stop_after_exactly_on_boundary():
    """A deadline landing exactly on the block's end must force deopt.

    The guard computes ``t1 = now + worst_cycles * cycle_time`` with
    the same expression used here, so the comparison is exact: a span
    ending *at* the deadline is refused (``t1 >= stop``), one cycle of
    headroom re-admits it.
    """
    sim, device = _warm_bench_device()
    cycles = 100
    assert device.block_guard(cycles)
    boundary = sim._now + cycles * device._cycle_time
    # Set the private field: the public setter deliberately drops the
    # spend window (deadline changes are executor run boundaries), and
    # this test needs the window live to isolate the deadline check.
    device._stop_after = boundary
    assert not device.block_guard(cycles)
    device._stop_after = sim._now + (cycles + 1) * device._cycle_time
    assert device.block_guard(cycles)
    device._stop_after = None


@needs_guards
def test_block_guard_event_one_cycle_inside_span():
    """A queued sim event inside the span must force deopt."""
    sim, device = _warm_bench_device()
    cycles = 1000
    assert device.block_guard(cycles)
    # One cycle *inside* the span: due strictly before the block ends.
    event_time = sim._now + (cycles - 1) * device._cycle_time
    sim.call_at(event_time, lambda: None)
    assert not device.block_guard(cycles)
    # A span that completes before the event is due stays admitted
    # (three cycles of headroom so float rounding cannot flip it).
    assert device.block_guard(cycles - 4)


def test_forced_deopt_differential():
    """force_deopt defeats every guard yet changes no observable bit."""
    source = _random_branchy(random.Random(9), iterations=2500)

    def run(force):
        sim = Simulator(seed=66)
        power = make_wisp_power_system(sim, distance_m=2.0, fading_sigma=1.0)
        device = TargetDevice(sim, power)
        device.force_deopt = force
        executor = IsaIntermittentExecutor(sim, device, assemble(source))
        result = executor.run(duration=0.8)
        return result, device, sim

    forced = run(True)
    normal = run(False)
    assert _observable_state(*forced) == _observable_state(*normal)
    forced_device = forced[1]
    # Every block admission was refused: translation still happens (and
    # is charged as a deopt).
    if _BLOCKCACHE_ON:
        assert forced_device.cpu.blocks_deopts > 0
    # The unforced run really used the fast tier, so the comparison
    # is not vacuous.
    if _BLOCKS_ENGAGE:
        assert normal[1].cpu.blocks_executed > 0


def test_force_deopt_env(monkeypatch):
    """REPRO_FORCE_DEOPT=1 arms force_deopt at construction."""
    monkeypatch.setenv("REPRO_FORCE_DEOPT", "1")
    sim = Simulator(seed=1)
    device = make_bench_target(sim)
    assert device.force_deopt
    assert not device.block_guard(1)


# -- campaign-level dispatch identity ---------------------------------------

#: A pinned-environment op-index sweep of the ISA firmware: every leg
#: runs the interpreter, lanes batch, and forks share prefixes.
OPSWEEP_CONFIG = CampaignConfig(
    app="rfid_firmware", runs=6, seed=1357, workers=1, iterations=600,
    duration=1.0, shrink=False, modes=("op_index",), min_ops=2000,
    max_ops=60_000, distance_range=(1.6, 1.6), fading_range=(0.0, 0.0),
    duty_chance=0.0,
)


def test_opsweep_campaign_identical_across_dispatch(monkeypatch):
    """Sample-mode campaign bytes do not depend on the dispatch path.

    Block dispatch, the from-reset single-step kill switch
    (``REPRO_NO_BLOCKCACHE``), and guards refusing every block
    (``REPRO_FORCE_DEOPT``) must render the same report.  The
    continuous-leg memo is cleared between variants: a control leg
    memoised under one setting would otherwise serve the next.
    """
    rendered = {}
    stats = {}
    for variant, env in (
        ("block", None),
        ("no_blockcache", "REPRO_NO_BLOCKCACHE"),
        ("force_deopt", "REPRO_FORCE_DEOPT"),
    ):
        monkeypatch.delenv("REPRO_NO_BLOCKCACHE", raising=False)
        monkeypatch.delenv("REPRO_FORCE_DEOPT", raising=False)
        if env is not None:
            monkeypatch.setenv(env, "1")
        forking._continuous_memo.clear()
        stats[variant] = {}
        rendered[variant] = render_json(
            run_campaign(OPSWEEP_CONFIG, batch=True, stats=stats[variant])
        )
    forking._continuous_memo.clear()
    assert rendered["no_blockcache"] == rendered["block"]
    assert rendered["force_deopt"] == rendered["block"]
    assert stats["block"]["blocks_executed"] > 0
    assert stats["block"]["lanes_packed"] > 0
    assert stats["no_blockcache"]["blocks_executed"] == 0
    assert stats["force_deopt"]["blocks_executed"] == 0


# -- closed-form step: the pinned reference arithmetic ----------------------


@pytest.mark.skipif(
    not _BLOCKCACHE_ON, reason="spend window disabled by environment"
)
def test_closed_form_step_matches_device_fast_path():
    """One spend through execute_cycles lands exactly on the closed form.

    The device's fast path inlines :func:`closed_form_step`'s
    arithmetic from memoized constants; this pins the two against each
    other bit for bit, charge branch and leakage factor included.
    """
    for leak in (None, 2e5):
        _, device = _warm_bench_device(leakage_resistance=leak)
        fw = device._spend_window
        cycles = 137
        dt = cycles * device._cycle_time
        exp_charge = math.exp(-dt / fw.tau)
        leak_factor = (
            math.exp(-dt / fw.leak_tau) if fw.leak_tau is not None else None
        )
        v0 = device.power.capacitor._voltage
        expected = closed_form_step(
            v0, dt, fw.voc, fw.v_inf, exp_charge, fw.net,
            fw.cap, fw.vmax, leak_factor,
        )
        device.execute_cycles(cycles)
        assert device.power.capacitor._voltage == expected


def test_closed_form_advance_matches_reference():
    """StorageCapacitor.closed_form_advance == closed_form_step."""
    cap = StorageCapacitor(
        47e-6, voltage=2.0, max_voltage=3.3, leakage_resistance=1e6
    )
    dt, voc, rs, net = 1e-3, 3.3, 660.0, 1.2e-3
    expected = closed_form_step(
        2.0, dt, voc, voc - net * rs, math.exp(-dt / (rs * 47e-6)),
        net, 47e-6, 3.3, math.exp(-dt / (1e6 * 47e-6)),
    )
    assert cap.closed_form_advance(dt, voc, rs, net) == expected
    assert cap.voltage == expected
