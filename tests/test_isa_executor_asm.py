"""Tests for ISA programs as executor apps and the assembly workloads."""

import pytest

from repro import (
    IntermittentExecutor,
    RunStatus,
    Simulator,
    TargetDevice,
    make_wisp_power_system,
)
from repro.apps.asm_programs import (
    assemble_fibonacci,
    assemble_heartbeat,
    assemble_summation,
    read_fibonacci,
    seed_fibonacci,
)
from repro.apps.isa_app import IsaApp
from repro.mcu.assembler import assemble
from repro.mcu.memory import FRAM_BASE
from repro.runtime.checkpoint import CheckpointManager

CHECKPOINT_BASE = FRAM_BASE + 0x8000


def _target(sim, distance=1.6):
    power = make_wisp_power_system(sim, distance_m=distance)
    return TargetDevice(sim, power)


def _executor(sim, device, program, **app_options):
    """``program`` as an :class:`IsaApp` under the intermittent executor."""
    return IntermittentExecutor(
        sim, device, IsaApp(device, program, **app_options)
    )


class TestIsaExecutor:
    def test_short_program_completes(self, sim):
        device = _target(sim)
        program = assemble("start: mov #1, r4\nmov r4, &0x4400\nhalt")
        executor = _executor(sim, device, program)
        result = executor.run(duration=2.0)
        assert result.status is RunStatus.COMPLETED
        assert device.memory.read_u16(0x4400) == 1

    def test_endless_program_times_out(self, sim):
        device = _target(sim)
        program = assemble("loop: jmp loop")
        executor = _executor(sim, device, program)
        result = executor.run(duration=0.3)
        assert result.status is RunStatus.TIMEOUT
        assert result.boots >= 1

    def test_wild_store_crashes(self, sim):
        device = _target(sim)
        program = assemble("start: mov #0, r4\nmov #1, @r4\nhalt")
        executor = _executor(sim, device, program)
        result = executor.run(duration=1.0, stop_on_fault=True)
        assert result.status is RunStatus.CRASHED
        assert "unmapped" in result.faults[0]

    def test_starved_without_harvest(self, sim):
        device = _target(sim)
        device.power.source.enabled = False
        program = assemble("loop: jmp loop")
        executor = _executor(sim, device, program)
        result = executor.run(duration=5.0)
        assert result.status is RunStatus.STARVED

    def test_long_workload_needs_checkpoints(self, sim):
        device = _target(sim)
        program = assemble_summation(30000)
        executor = _executor(sim, device, program)
        # ~8 boots, each able to cover barely half the workload.
        result = executor.run(duration=0.8)
        assert result.status is RunStatus.TIMEOUT  # Sisyphean

    def test_long_workload_completes_with_checkpoints(self, sim):
        device = _target(sim)
        program = assemble_summation(30000)
        manager = CheckpointManager(device, CHECKPOINT_BASE)
        executor = _executor(sim, device, program, checkpoints=manager)
        result = executor.run(duration=4.0)
        assert result.status is RunStatus.COMPLETED
        expected = (30000 * 30001 // 2) & 0xFFFF
        assert device.memory.read_u16(program.symbols["total"]) == expected
        assert manager.checkpoints_taken > 0

    def test_checkpoint_every_validated(self, sim):
        device = _target(sim)
        with pytest.raises(ValueError):
            IsaApp(
                device,
                assemble("loop: jmp loop"),
                checkpoints=CheckpointManager(device, CHECKPOINT_BASE),
                checkpoint_every=0,
            )


    @pytest.mark.parametrize(
        "source",
        [
            "start: out r4, #0x33\nhalt",  # no handler on port 0x33
            "start: jmp bad\nbad: .word 0xFFFF",  # not an instruction
        ],
        ids=["cpu-error", "decode-error"],
    )
    def test_isa_fault_crashes(self, sim, source):
        device = _target(sim)
        executor = _executor(sim, device, assemble(source))
        result = executor.run(duration=1.0, stop_on_fault=True)
        assert result.status is RunStatus.CRASHED
        assert len(result.faults) == 1
        assert result.faults[0].startswith("isa fault: ")

    def test_first_boot_is_not_flashed_on_a_tether(self):
        """The app has no ``flash``: the executor boots it at the same
        clock as a hand-built device (a tethered flash would add 1 ms)."""
        program = assemble("loop: jmp loop")
        sim = Simulator(seed=5)
        device = _target(sim)
        device.load_program(program)
        device.power.charge_until_on()
        hand_built = sim.now

        sim = Simulator(seed=5)
        device = _target(sim)
        boots = []
        device.on_reboot.append(lambda count: boots.append(sim.now))
        _executor(sim, device, program).run(duration=1.0, max_boots=1)
        assert boots == [hand_built]


class TestAsmFibonacci:
    def test_produces_the_sequence_intermittently(self, sim):
        device = _target(sim)
        program = assemble_fibonacci()
        executor = _executor(sim, device, program)
        seed_fibonacci(device, program)
        result = executor.run(duration=5.0)
        assert result.status is RunStatus.COMPLETED
        values = read_fibonacci(device, program, 40)
        for a, b, c in zip(values, values[1:], values[2:]):
            assert c == (a + b) & 0xFFFF

    def test_progress_is_nv(self, sim):
        """Progress (the index word) survives reboots one-at-a-time."""
        device = _target(sim)
        program = assemble_fibonacci()
        executor = _executor(sim, device, program)
        seed_fibonacci(device, program)
        result = executor.run(duration=5.0)
        assert result.status is RunStatus.COMPLETED
        assert device.memory.read_u16(program.symbols["index"]) == 40

    def test_watchpoints_fire_via_mark(self, sim):
        device = _target(sim)
        hits = []
        device.on_code_marker.append(hits.append)
        program = assemble_fibonacci()
        executor = _executor(sim, device, program)
        seed_fibonacci(device, program)
        executor.run(duration=5.0)
        assert hits.count(1) >= 38  # one per produced element
        assert hits.count(2) == 1  # completion marker


class TestAsmHeartbeat:
    def test_port_drives_gpio(self, sim):
        device = _target(sim)
        edges = []
        device.cpu.ports_out[0x01] = lambda v: device.gpio.write(
            "main_loop", bool(v)
        )
        device.gpio.subscribe("main_loop", lambda name, s: edges.append(s))
        program = assemble_heartbeat()
        executor = _executor(sim, device, program)
        result = executor.run(duration=0.2)
        assert result.status is RunStatus.TIMEOUT  # endless by design
        assert len(edges) > 100
        beats = device.memory.read_u16(program.symbols["beats"])
        assert beats > 50
