"""Unit + property tests for the intermittent runtime.

Covers the NV data structures (including the exact Figure 3 corruption
windows, reproduced deterministically with the brown-out injector), the
checkpoint manager's double-buffering guarantee, and the executor's
charge-reboot-run loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IntermittentExecutor, RunStatus, Simulator, TargetDevice
from repro.apps.rfid_isa import RfidIsaFirmware
from repro.mcu.device import PowerFailure
from repro.mcu.hlapi import DeviceAPI, ProgramComplete
from repro.mcu.memory import FRAM_BASE, MemoryFault, NULL
from repro.power import make_wisp_power_system
from repro.runtime.checkpoint import CheckpointManager
from repro.snapshot import capture, restore
from repro.runtime.nonvolatile import (
    NVCounter,
    NVLinkedList,
    SafeNVLinkedList,
    StructLayout,
    StructView,
)
from repro.testing import BrownoutInjector, make_fast_target


@pytest.fixture
def api(wisp):
    return DeviceAPI(wisp)


class TestStructLayout:
    def test_field_offsets(self):
        layout = StructLayout("s", ("a", "b", "c"))
        assert layout.offset("a") == 0
        assert layout.offset("c") == 4
        assert layout.size == 6

    def test_unknown_field(self):
        layout = StructLayout("s", ("a",))
        with pytest.raises(KeyError):
            layout.offset("z")

    def test_view_roundtrip(self, api):
        layout = StructLayout("s", ("a", "b"))
        view = StructView(api, layout, api.nv_var("s", layout.size))
        view.set("b", 77)
        assert view.get("b") == 77
        assert view.get("a") == 0

    def test_view_at_follows_pointer(self, api):
        layout = StructLayout("s", ("a",))
        base = api.nv_var("pool", 8)
        view = StructView(api, layout, base)
        other = view.at(base + 4)
        other.set("a", 9)
        assert api.load_u16(base + 4) == 9

    def test_view_at_null_faults_on_access(self, api):
        layout = StructLayout("s", ("a", "b"))
        wild = StructView(api, layout, NULL)
        with pytest.raises(MemoryFault):
            wild.get("b")


class TestNVCounter:
    def test_increment_and_wrap(self, api):
        counter = NVCounter(api, "c")
        counter.set(0xFFFF)
        assert counter.increment() == 0

    def test_persists_across_reboot(self, api, wisp):
        counter = NVCounter(api, "c")
        counter.set(41)
        counter.increment()
        wisp.reboot()
        assert NVCounter(api, "c").get() == 42


class TestNVLinkedList:
    def _list(self, api, cls=NVLinkedList):
        nv_list = cls(api, "t", capacity=4)
        nv_list.init()
        return nv_list

    def test_starts_empty_and_consistent(self, api):
        nv_list = self._list(api)
        assert nv_list.is_empty()
        assert nv_list.tail_is_last()
        assert nv_list.check_consistency()

    def test_append_links_forward_and_back(self, api):
        nv_list = self._list(api)
        nv_list.append(nv_list.node_address(0))
        nv_list.append(nv_list.node_address(1))
        assert nv_list.walk() == [nv_list.node_address(0), nv_list.node_address(1)]
        assert nv_list.node(1).get("prev") == nv_list.node_address(0)
        assert nv_list.check_consistency()

    def test_remove_middle(self, api):
        nv_list = self._list(api)
        for i in range(3):
            nv_list.append(nv_list.node_address(i))
        nv_list.remove(nv_list.node_address(1))
        assert nv_list.walk() == [nv_list.node_address(0), nv_list.node_address(2)]
        assert nv_list.check_consistency()

    def test_remove_tail_updates_tail(self, api):
        nv_list = self._list(api)
        nv_list.append(nv_list.node_address(0))
        nv_list.append(nv_list.node_address(1))
        nv_list.remove(nv_list.node_address(1))
        assert nv_list.header.get("tail") == nv_list.node_address(0)

    def test_remove_only_element_empties(self, api):
        nv_list = self._list(api)
        nv_list.append(nv_list.node_address(0))
        nv_list.remove(nv_list.node_address(0))
        assert nv_list.is_empty()
        assert nv_list.length() == 0

    def test_length_tracks(self, api):
        nv_list = self._list(api)
        for i in range(3):
            nv_list.append(nv_list.node_address(i))
        assert nv_list.length() == 3

    def test_node_index_bounds(self, api):
        nv_list = self._list(api)
        with pytest.raises(IndexError):
            nv_list.node_address(4)

    def test_stale_tail_detected_by_invariant(self, api):
        """Simulate the Figure 3 window by hand: head set, tail not."""
        nv_list = self._list(api)
        node = nv_list.node_address(0)
        nv_list.node(0).set("next", NULL)
        nv_list.node(0).set("prev", NULL)
        nv_list.header.set("head", node)  # ...reboot here: tail never set
        assert not nv_list.tail_is_last()
        assert not nv_list.check_consistency()

    def test_remove_with_stale_tail_faults(self, api):
        """The full Figure 3 chain: stale tail -> NULL next -> wild write."""
        nv_list = self._list(api)
        node = nv_list.node_address(0)
        nv_list.node(0).set("next", NULL)
        nv_list.node(0).set("prev", NULL)
        nv_list.header.set("head", node)  # tail remains NULL
        with pytest.raises(MemoryFault):
            nv_list.remove(node)

    @given(ops=st.lists(st.sampled_from(["append", "remove"]), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_consistency_invariant_under_op_sequences(self, ops):
        """Without power failures the list is *always* consistent."""
        sim = Simulator(seed=1)
        power = make_wisp_power_system(sim, initial_voltage=2.4)
        from repro.power.harvester import TetheredSupply

        power.tether(TetheredSupply())
        api = DeviceAPI(TargetDevice(sim, power))
        nv_list = NVLinkedList(api, "p", capacity=16)
        nv_list.init()
        free = list(range(16))
        live: list[int] = []
        for op in ops:
            if op == "append" and free:
                index = free.pop()
                nv_list.append(nv_list.node_address(index))
                live.append(index)
            elif op == "remove" and live:
                index = live.pop(0)
                nv_list.remove(nv_list.node_address(index))
                free.append(index)
            assert nv_list.check_consistency()
            assert nv_list.length() == len(live)


class TestSafeListRepair:
    def test_repair_fixes_stale_tail(self, api):
        nv_list = SafeNVLinkedList(api, "s", capacity=4)
        nv_list.init()
        nv_list.append(nv_list.node_address(0))
        # Manually strand the tail as an interrupted append would.
        nv_list.node(0).set("next", NULL)
        node1 = nv_list.node_address(1)
        nv_list.node(1).set("next", NULL)
        nv_list.node(1).set("prev", nv_list.node_address(0))
        nv_list.node(0).set("next", node1)  # hooked in...
        # ...but tail/length never updated (reboot).
        nv_list.repair()
        assert nv_list.header.get("tail") == node1
        assert nv_list.length() == 2
        assert nv_list.check_consistency()

    def test_repair_rebuilds_prev_pointers(self, api):
        nv_list = SafeNVLinkedList(api, "s", capacity=4)
        nv_list.init()
        for i in range(3):
            nv_list.append(nv_list.node_address(i))
        nv_list.node(2).set("prev", 0xDEAD & 0xFFFE)  # corrupt a back pointer
        nv_list.repair()
        assert nv_list.check_consistency()

    def test_repair_on_empty_list(self, api):
        nv_list = SafeNVLinkedList(api, "s", capacity=4)
        nv_list.init()
        nv_list.repair()
        assert nv_list.is_empty()

    def test_repair_idempotent(self, api):
        nv_list = SafeNVLinkedList(api, "s", capacity=4)
        nv_list.init()
        nv_list.append(nv_list.node_address(0))
        nv_list.repair()
        snapshot = (
            nv_list.header.get("head"),
            nv_list.header.get("tail"),
            nv_list.length(),
        )
        nv_list.repair()
        assert snapshot == (
            nv_list.header.get("head"),
            nv_list.header.get("tail"),
            nv_list.length(),
        )


class TestCheckpointManager:
    BASE = FRAM_BASE + 0x4000

    @pytest.fixture(autouse=True)
    def _reset_cpu(self, wisp):
        # Give the CPU a sane SP (as a power-on reset would).
        wisp.cpu.reset(0xA000)

    def test_roundtrip_registers_and_stack(self, wisp):
        manager = CheckpointManager(wisp, self.BASE)
        manager.erase()
        wisp.cpu.registers[4] = 0x1234
        wisp.cpu.sp = wisp.cpu.sp - 4
        wisp.memory.write_u16(wisp.cpu.sp, 0xBEEF)
        manager.checkpoint()
        wisp.cpu.registers[4] = 0
        wisp.memory.clear_volatile()
        info = manager.restore()
        assert info is not None
        assert wisp.cpu.registers[4] == 0x1234
        assert wisp.memory.read_u16(wisp.cpu.sp) == 0xBEEF

    def test_restore_without_checkpoint_returns_none(self, wisp):
        manager = CheckpointManager(wisp, self.BASE)
        manager.erase()
        assert manager.restore() is None

    def test_newest_committed_wins(self, wisp):
        manager = CheckpointManager(wisp, self.BASE)
        manager.erase()
        wisp.cpu.registers[4] = 1
        manager.checkpoint()
        wisp.cpu.registers[4] = 2
        manager.checkpoint()
        wisp.cpu.registers[4] = 0
        manager.restore()
        assert wisp.cpu.registers[4] == 2

    def test_double_buffering_survives_interrupted_checkpoint(self, wisp):
        """A power failure *during* checkpointing keeps the old one."""
        manager = CheckpointManager(wisp, self.BASE)
        manager.erase()
        wisp.cpu.registers[4] = 1
        manager.checkpoint()
        # Second checkpoint dies in its energy spend, before any write.
        wisp.cpu.registers[4] = 2
        wisp.power.source.enabled = False
        wisp.power.capacitor.voltage = 1.79
        wisp.power.step(0.0)
        with pytest.raises(PowerFailure):
            manager.checkpoint()
        wisp.power.capacitor.voltage = 2.4
        wisp.power.reset_comparator()
        wisp.cpu.registers[4] = 0
        manager.restore()
        assert wisp.cpu.registers[4] == 1  # the old committed snapshot

    def test_oversized_stack_rejected(self, wisp):
        manager = CheckpointManager(wisp, self.BASE)
        wisp.cpu.sp = wisp.cpu.sp - 1024
        with pytest.raises(ValueError):
            manager.checkpoint()


class _CountingApp:
    """Increments an NV counter forever; completes at a target."""

    name = "counting"

    def __init__(self, target=None):
        self.target = target

    def flash(self, api):
        api.device.memory.write_u16(api.nv_var("counter.n"), 0)

    def main(self, api):
        counter = NVCounter(api, "n")
        while True:
            value = counter.increment()
            api.compute(400)
            if self.target is not None and value >= self.target:
                raise ProgramComplete(value)


class TestExecutor:
    def test_completes_small_workload(self, sim, fast_target):
        executor = IntermittentExecutor(sim, fast_target, _CountingApp(target=50))
        result = executor.run(duration=5.0)
        assert result.status is RunStatus.COMPLETED
        assert result.detail == 50

    def test_timeout_on_endless_workload(self, sim, fast_target):
        executor = IntermittentExecutor(sim, fast_target, _CountingApp())
        result = executor.run(duration=0.2)
        assert result.status is RunStatus.TIMEOUT
        assert result.sim_time >= 0.2

    def test_progress_spans_reboots(self, sim, fast_target):
        executor = IntermittentExecutor(
            sim, fast_target, _CountingApp(target=20_000)
        )
        result = executor.run(duration=20.0)
        assert result.status is RunStatus.COMPLETED
        assert result.reboots > 1  # needed several charge cycles

    def test_continuous_run_never_reboots(self, sim, fast_target):
        executor = IntermittentExecutor(
            sim, fast_target, _CountingApp(target=20_000)
        )
        result = executor.run_continuous(duration=20.0)
        assert result.status is RunStatus.COMPLETED
        assert result.reboots == 0

    def test_starved_when_harvester_dead(self, sim, fast_target):
        fast_target.power.source.enabled = False
        executor = IntermittentExecutor(sim, fast_target, _CountingApp())
        result = executor.run(duration=5.0)
        assert result.status is RunStatus.STARVED

    def test_max_boots_cap(self, sim, fast_target):
        executor = IntermittentExecutor(sim, fast_target, _CountingApp())
        result = executor.run(duration=30.0, max_boots=3)
        assert result.boots == 3

    def test_flash_restores_pre_flash_energy_state(self, sim, fast_target):
        v_before = fast_target.power.vcap
        executor = IntermittentExecutor(sim, fast_target, _CountingApp())
        executor.flash()
        assert fast_target.power.vcap == pytest.approx(v_before)
        assert not fast_target.power.is_tethered


def _world(device: TargetDevice, program) -> tuple:
    """What a resumed run must reproduce: clock, energy, CPU, memory."""
    return (
        device.sim.now,
        device.cycles_executed,
        device.energy_consumed,
        device.work_units,
        device.boot_units,
        device.reboot_count,
        device.power.vcap,
        tuple(device.cpu.registers),
        device.cpu.instructions_retired,
        tuple(bytes(region._data) for region in device.memory.regions),
        program.stim_pos,
    )


@pytest.mark.blockcache
class TestMidBootResume:
    """``run(mid_boot=True)`` continues a boot a snapshot was taken in."""

    def _executor(self):
        sim = Simulator(seed=77)
        device = make_fast_target(sim)
        program = RfidIsaFirmware(False, 1500, bytes(range(0, 256, 9)))
        executor = IntermittentExecutor(sim, device, program)
        executor.flash()
        return sim, device, program, executor

    def test_continuing_gives_the_uninterrupted_run(self):
        sim, device, program, executor = self._executor()
        deadline = sim.now + 0.3
        saved = []

        def probe():
            # Inside the third boot, between two step_block calls.
            if not saved and device.reboot_count == 3 and device.boot_units >= 200:
                saved.append((capture(device), program.stim_pos))

        device.cpu.between_blocks = probe
        whole = executor.run(until=deadline)
        device.cpu.between_blocks = None
        assert saved and whole.boots > 3
        end = _world(device, program)
        snap, stim_pos = saved[0]
        restore(device, snap)
        program.stim_pos = stim_pos
        rest = executor.run(until=deadline, mid_boot=True)
        assert _world(device, program) == end
        assert (rest.status, rest.sim_time, rest.faults, rest.detail) == (
            whole.status, whole.sim_time, whole.faults, whole.detail
        )
        # The resumed boot was started (and rebooted into) before the
        # snapshot, so it counts in neither tally.
        assert rest.boots == whole.boots - 3
        assert rest.reboots == whole.reboots - 3

    def test_refused_without_a_resumable_program_or_power(self, sim, fast_target):
        executor = IntermittentExecutor(sim, fast_target, _CountingApp())
        with pytest.raises(ValueError, match="mid_boot"):
            executor.run(duration=0.1, mid_boot=True)
        _, device, _, executor = self._executor()
        assert not device.power.is_on
        with pytest.raises(ValueError, match="mid_boot"):
            executor.run(duration=0.1, mid_boot=True)


class TestBrownoutInjector:
    def test_injects_after_exact_op_count(self, sim, wisp):
        injector = BrownoutInjector(wisp)
        injector.arm(3)
        wisp.execute_cycles(10)
        wisp.execute_cycles(10)
        wisp.execute_cycles(10)  # injection lands after this one
        with pytest.raises(PowerFailure):
            wisp.execute_cycles(10)
        assert injector.injections == 1

    def test_disarm_cancels(self, sim, wisp):
        injector = BrownoutInjector(wisp)
        injector.arm(1)
        injector.disarm()
        for _ in range(5):
            wisp.execute_cycles(10)
        assert injector.injections == 0

    def test_cannot_injure_tethered_target(self, sim, wisp):
        from repro.power.harvester import TetheredSupply

        injector = BrownoutInjector(wisp)
        wisp.power.tether(TetheredSupply())
        injector.arm(1)
        wisp.execute_cycles(10)
        wisp.execute_cycles(10)
        assert injector.injections == 0

    def test_remove_uninstalls(self, sim, wisp):
        injector = BrownoutInjector(wisp)
        injector.remove()
        injector.arm(1)
        wisp.execute_cycles(10)
        wisp.execute_cycles(10)
        assert injector.injections == 0
