#!/usr/bin/env python3
"""The ISA core and Mementos-style checkpointing under intermittence.

Background machinery for the paper's setting (§2): a long computation
written against the 16-bit ISA makes no forward progress on harvested
power when every reboot restarts ``main`` — and completes once the
volatile context (registers + stack) is checkpointed into FRAM.  The
example also shows EDB-style program-event monitoring of ISA code via
the ``mark`` instruction.

Run:  python examples/isa_checkpointing.py
"""

from repro import (
    IntermittentExecutor,
    RunStatus,
    Simulator,
    TargetDevice,
    make_wisp_power_system,
)
from repro.apps.isa_app import IsaApp
from repro.mcu.assembler import assemble, disassemble
from repro.mcu.memory import FRAM_BASE
from repro.runtime.checkpoint import CheckpointManager

PROGRAM = """
        .org 0xA000
result: .word 0
        .equ N, 20000
start:  mov #0, r4            ; loop counter   (volatile!)
        mov #0, r5            ; running sum    (volatile!)
loop:   add #1, r4
        add r4, r5
        out r4, #0x10         ; checkpoint-request port
        cmp #N, r4
        jnz loop
        mov r5, &result
        mark #1               ; EDB watchpoint: completion
        halt
"""


def run(use_checkpoints: bool, budget_s: float = 3.0):
    sim = Simulator(seed=13)
    power = make_wisp_power_system(sim, distance_m=1.6)
    target = TargetDevice(sim, power)
    program = assemble(PROGRAM)
    manager = CheckpointManager(target, FRAM_BASE + 0x8000)
    # The app restores on every boot and honours every 64th request
    # on the checkpoint port (0x10).
    app = IsaApp(target, program, manager if use_checkpoints else None)
    result = IntermittentExecutor(sim, target, app).run(duration=budget_s)
    completed = result.status is RunStatus.COMPLETED
    value = target.memory.read_u16(program.symbols["result"])
    return completed, value, result.boots, manager


def main() -> None:
    program = assemble(PROGRAM)
    print("=== the workload (disassembled from its binary image) ===")
    for address, text in disassemble(program)[:8]:
        print(f"  {address:04X}: {text}")
    print(f"  ... {program.size_bytes} bytes at 0x{program.origin:04X}\n")

    print("=== restart-from-main (no checkpoints) ===")
    completed, result, boots, _ = run(use_checkpoints=False)
    print(f"  completed: {completed}  after {boots} boots "
          f"(result word: {result})")
    print("  -> Sisyphean: every reboot discards the registers and "
          "starts over.\n")

    print("=== with volatile-context checkpoints ===")
    completed, result, boots, manager = run(use_checkpoints=True)
    expected = (20000 * 20001 // 2) & 0xFFFF
    print(f"  completed: {completed}  after {boots} boots "
          f"(result word: {result}, expected {expected})")
    print(f"  checkpoints taken: {manager.checkpoints_taken}, "
          f"restores: {manager.restores}")
    print("  -> progress is stitched across power failures — and note "
          "that every restore")
    print("     is an implicit control-flow jump back in time, the very "
          "mechanism behind")
    print("     the paper's Figure 3 bug.")


if __name__ == "__main__":
    main()
