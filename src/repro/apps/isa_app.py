"""Assembled ISA programs as apps for the intermittent executor.

The runtime, not each program, owns the boot protocol: the
:class:`~repro.runtime.executor.IntermittentExecutor` charges to
turn-on, reboots, and calls ``main``; an ISA app's ``main`` is one
powered boot — optionally restore the newest committed checkpoint,
then dispatch translated blocks until HALT or brown-out.

Checkpointing convention: programs request checkpoints by writing to
the well-known port :data:`CHECKPOINT_PORT` (0x10); an app given a
:class:`~repro.runtime.checkpoint.CheckpointManager` honours every
``checkpoint_every``-th request (bounding the overhead) and restores
on every boot.
"""

from __future__ import annotations

from repro.mcu.assembler import Program
from repro.mcu.cpu import Cpu, CpuError, Halted
from repro.mcu.device import TargetDevice
from repro.mcu.hlapi import DeviceAPI, ProgramComplete
from repro.mcu.isa import DecodeError
from repro.mcu.memory import MemoryFault
from repro.runtime.checkpoint import CheckpointManager

#: Port a program writes to request a checkpoint.
CHECKPOINT_PORT = 0x10


def run_to_halt(cpu: Cpu) -> None:
    """One powered boot of ISA code: block-dispatch until HALT.

    Returns on HALT; a brown-out propagates as
    :class:`~repro.mcu.device.PowerFailure`.  Translated straight-line
    runs execute as single closures, deoptimizing to ``Cpu.step`` near
    brown-out or pending events, so the trajectory stays bit-identical
    to single-stepping.  ISA-level faults fold into the memory-fault
    taxonomy the executor (and the campaign oracle) already model.

    With a :attr:`Cpu.between_blocks` probe set, the probe runs after
    every dispatch; the plain loop is kept for the probe-free case.
    """
    step_block = cpu.step_block
    probe = cpu.between_blocks
    try:
        if probe is None:
            while True:
                step_block()
        while True:
            step_block()
            probe()
    except Halted:
        return
    except (CpuError, DecodeError) as fault:
        raise MemoryFault(f"isa fault: {fault}") from fault


class IsaApp:
    """An assembled program, optionally with Mementos-style checkpoints.

    The constructor loads the image, erases the checkpoint store and
    wires :data:`CHECKPOINT_PORT` unless the caller already has.  The
    app deliberately has no ``flash``: the executor would run one on a
    tether and advance the clock by 1 ms before the first boot.

    Parameters
    ----------
    device:
        The target to load the image into.
    program:
        The assembled image.
    checkpoints:
        A :class:`CheckpointManager`, or ``None`` to run with pure
        restart-from-main semantics.
    checkpoint_every:
        Honour one checkpoint request out of this many (amortises the
        copy cost; 1 = every request).
    """

    name = "isa-app"

    def __init__(
        self,
        device: TargetDevice,
        program: Program,
        checkpoints: CheckpointManager | None = None,
        checkpoint_every: int = 64,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.program = program
        self.checkpoints = checkpoints
        self.checkpoint_every = checkpoint_every
        self._requests = 0
        device.load_program(program)
        if checkpoints is not None:
            checkpoints.erase()
        device.cpu.ports_out.setdefault(CHECKPOINT_PORT, self._on_checkpoint)

    def _on_checkpoint(self, value: int) -> None:
        self._requests += 1
        if (
            self.checkpoints is not None
            and self._requests % self.checkpoint_every == 0
        ):
            self.checkpoints.checkpoint()

    def main(self, api: DeviceAPI) -> None:
        """One powered boot: restore, then run until HALT or brown-out."""
        if self.checkpoints is not None:
            self.checkpoints.restore()
        run_to_halt(api.device.cpu)
        raise ProgramComplete
