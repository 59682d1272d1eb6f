"""Ablation benches for the design choices DESIGN.md calls out.

1. **Checkpointing (ISA core)** — the Mementos-style result the paper's
   §2 assumes as background: a long-running computation on intermittent
   power makes *no* forward progress restarting from ``main`` (it is
   Sisyphean), but completes once volatile-context checkpoints are
   taken — and the checkpoint restore is exactly the control-flow
   discontinuity that makes Figure 3's bug possible.

2. **Restore trim strategy** — the two energy-restore approaches in
   :meth:`EnergyStateManager.end_task`: trim-up (discharge below, fine
   charge back up through the filter dump) lands tens of millivolts
   *high*; discharge-only lands millivolts *low*.  The sign matters:
   compensation paths that run at high rates (printf) must not feed the
   target energy.

3. **Passive interference accounting** — attach EDB with leakage
   injection enabled vs disabled and compare discharge-cycle lengths:
   the difference must be far below a percent (the paper's
   energy-interference-freedom claim, as an end-to-end measurement).
"""

import statistics

from conftest import report

from repro import (
    EDB,
    IntermittentExecutor,
    PowerFailure,
    RunStatus,
    Simulator,
    TargetDevice,
    make_wisp_power_system,
)
from repro.apps.isa_app import IsaApp
from repro.mcu.assembler import assemble
from repro.mcu.memory import FRAM_BASE
from repro.runtime.checkpoint import CheckpointManager
from repro.sim import units

# A deliberately long ISA workload: sum the numbers 1..30000, keeping
# all state in (volatile) registers, writing the result to FRAM only at
# the very end.  One full pass takes ~0.5 M cycles — several times one
# charge/discharge cycle — so restart-from-main can never finish it.
LONG_PROGRAM = """
        .org 0xA000
total:  .word 0
count:  .word 0
start:  mov #0, r4
        mov #0, r5
loop:   add #1, r4
        add r4, r5
        out r4, #0x10         ; checkpoint request port
        cmp #30000, r4
        jnz loop
        mov r4, &count
        mov r5, &total
        halt
"""

CHECKPOINT_BASE = FRAM_BASE + 0x8000


def run_isa_intermittent(use_checkpoints: bool, budget_s: float = 4.0):
    sim = Simulator(seed=13)
    power = make_wisp_power_system(sim, distance_m=1.6)
    device = TargetDevice(sim, power)
    program = assemble(LONG_PROGRAM)
    manager = CheckpointManager(device, CHECKPOINT_BASE)
    # Checkpoint every 64 iterations (the app's default) to bound overhead.
    app = IsaApp(device, program, manager if use_checkpoints else None)
    result = IntermittentExecutor(sim, device, app).run(duration=budget_s)
    progress = device.memory.read_u16(program.symbols["count"])
    return (
        result.status is RunStatus.COMPLETED,
        progress,
        result.boots,
        manager.checkpoints_taken,
    )


def run_restore_trial(trim_up: bool, trials: int = 25):
    sim = Simulator(seed=14)
    power = make_wisp_power_system(sim, initial_voltage=2.3)
    device = TargetDevice(sim, power)
    edb = EDB(sim, device)
    manager = edb.board.energy
    deltas = []
    for _ in range(trials):
        power.capacitor.voltage = 2.3
        power.reset_comparator()
        manager.begin_task()
        device.execute_cycles(4000)  # some tethered work
        record = manager.end_task(trim_up=trim_up)
        deltas.append(record.delta_v_true * 1e3)
    return deltas


def measure_discharge_time(interference: bool) -> float:
    sim = Simulator(seed=15)
    power = make_wisp_power_system(sim, distance_m=1.6)
    device = TargetDevice(sim, power)
    edb = EDB(sim, device)
    edb.board.interference_enabled = interference
    if not interference:
        power.inject_current(0.0)
    durations = []
    for _ in range(3):
        power.charge_until_on()
        t0 = sim.now
        try:
            while True:
                device.execute_cycles(500)
        except PowerFailure:
            durations.append(sim.now - t0)
    return statistics.mean(durations)


def test_ablation_checkpointing(benchmark):
    def run_both():
        return run_isa_intermittent(False), run_isa_intermittent(True)

    without, with_cp = benchmark.pedantic(run_both, rounds=1, iterations=1)
    completed_n, progress_n, boots_n, _ = without
    completed_c, progress_c, boots_c, checkpoints = with_cp

    # Without checkpoints the workload is Sisyphean: every boot restarts
    # from main (count reset path) and the budget expires.
    assert not completed_n
    # With checkpoints it completes across several reboots.
    assert completed_c
    assert progress_c == 30000
    assert boots_c > 1
    assert checkpoints > 0

    report(
        "ablation_checkpointing",
        [
            "variant           completed  progress  boots  checkpoints",
            f"restart-from-main {str(completed_n):9s}  {progress_n:8d}  "
            f"{boots_n:5d}  -",
            f"checkpointing     {str(completed_c):9s}  {progress_c:8d}  "
            f"{boots_c:5d}  {checkpoints}",
            "",
            "shape: long workloads need volatile-context checkpoints to make",
            "forward progress on intermittent power (Mementos et al.), which",
            "is the very mechanism that re-executes NV writes in Figure 3",
        ],
    )


def test_ablation_restore_trim(benchmark):
    def run_both():
        return run_restore_trial(True), run_restore_trial(False)

    trim_up, discharge_only = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    mean_up = statistics.mean(trim_up)
    mean_down = statistics.mean(discharge_only)

    assert mean_up > 10.0  # tens of millivolts high (the Table 3 mode)
    assert -10.0 < mean_down < 1.0  # millivolts low (the printf mode)
    assert mean_up > mean_down + 10.0

    report(
        "ablation_restore_trim",
        [
            "restore strategy    mean_dV_mV  sd_mV",
            f"trim-up (Table 3)   {mean_up:10.1f}  "
            f"{statistics.stdev(trim_up):5.1f}",
            f"discharge-only      {mean_down:10.1f}  "
            f"{statistics.stdev(discharge_only):5.1f}",
            "",
            "shape: trim-up biases the restored level high (filter dump);",
            "discharge-only lands just low — the right choice for",
            "high-rate compensation like printf and energy guards",
        ],
    )


def test_ablation_passive_interference(benchmark):
    def run_both():
        return measure_discharge_time(True), measure_discharge_time(False)

    with_leakage, without_leakage = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    relative = abs(with_leakage - without_leakage) / without_leakage

    # Energy-interference-freedom, end to end: attaching EDB changes the
    # observed discharge-cycle length by far less than a percent.
    assert relative < 0.01

    report(
        "ablation_passive_interference",
        [
            f"discharge time, EDB leakage modelled: "
            f"{with_leakage * 1e3:.3f} ms",
            f"discharge time, leakage disabled:     "
            f"{without_leakage * 1e3:.3f} ms",
            f"relative difference: {100 * relative:.4f} %",
            "",
            "shape: passive attachment perturbs the discharge cycle at the",
            "same sub-percent scale as the paper's 0.2 % worst-case bound",
        ],
    )
