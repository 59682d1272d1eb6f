"""Property-based tests of the system's core invariants.

These are the "for any schedule" guarantees the design rests on:

- control loops converge with bounded error for any setpoint;
- the repair-on-boot list is consistent after a brown-out at *any*
  operation of *any* workload (exhaustive-ish via hypothesis);
- the task runtime conserves its invariants across failures injected
  at arbitrary points;
- the protocol decoder survives arbitrary corruption;
- intermittent progress counters never move backwards;
- a campaign's report bytes do not depend on any execution option.
"""

import dataclasses
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Simulator, TargetDevice, make_wisp_power_system
from repro.analog.charge_circuit import ChargeDischargeCircuit
from repro.campaign.config import FAULT_MODES, CampaignConfig
from repro.campaign.scheduler import run_campaign
from repro.core.protocol import Decoder, Message, encode
from repro.mcu.adc import Adc
from repro.mcu.device import PowerFailure
from repro.mcu.hlapi import DeviceAPI
from repro.mcu.memory import FRAM_BASE
from repro.runtime.checkpoint import (
    _CKSUM_OFF,
    _STACK_OFF,
    SLOT_SIZE,
    CheckpointManager,
)
from repro.runtime.nonvolatile import SafeNVLinkedList
from repro.runtime.tasks import Task, TaskRuntime
from repro.sim import units
from repro.testing import BrownoutInjector
from tests.test_fuzz import _canonical


def _charged_device(seed=1, voltage=2.2):
    sim = Simulator(seed=seed)
    power = make_wisp_power_system(sim, initial_voltage=voltage)
    power.source.enabled = False
    device = TargetDevice(sim, power)
    power.capacitor.voltage = voltage
    power.reset_comparator()
    return sim, device


class TestControlLoopConvergence:
    @given(
        start=st.floats(1.9, 3.1),
        target=st.floats(1.9, 3.1),
    )
    @settings(max_examples=40, deadline=None)
    def test_restore_converges_from_anywhere(self, start, target):
        sim = Simulator(seed=5)
        power = make_wisp_power_system(sim, initial_voltage=start)
        power.source.enabled = False
        power.capacitor.voltage = start
        adc = Adc(rng=sim.rng, noise_sigma_v=0.5 * units.MV, stream="edb-adc")
        circuit = ChargeDischargeCircuit(sim, power, adc)
        circuit.restore_to(target)
        # Bounded error: a few mV low (discharge trim) up to the filter
        # dump high (charge trim), never runaway.
        assert target - 0.02 <= power.vcap <= target + 0.15

    @given(target=st.floats(1.9, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_discharge_never_overshoots_down(self, target):
        sim = Simulator(seed=5)
        power = make_wisp_power_system(sim, initial_voltage=3.2)
        power.source.enabled = False
        power.capacitor.voltage = 3.2
        adc = Adc(rng=sim.rng, noise_sigma_v=0.5 * units.MV, stream="edb-adc")
        circuit = ChargeDischargeCircuit(sim, power, adc)
        circuit.discharge_to(target)
        assert target - 0.02 <= power.vcap <= target + 0.005


class TestSafeListCrashConsistency:
    @given(
        ops=st.lists(st.sampled_from(["append", "remove"]), min_size=1, max_size=8),
        fail_at=st.integers(1, 120),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_repair_heals_any_interruption_point(self, ops, fail_at):
        """Run a random workload, kill it at a random op, repair, check."""
        sim, device = _charged_device(voltage=2.4)
        api = DeviceAPI(device)
        nv_list = SafeNVLinkedList(api, "p", capacity=8)
        nv_list.init()
        injector = BrownoutInjector(device)
        injector.arm(fail_at)
        free = list(range(8))
        live: list[int] = []
        try:
            for op in ops:
                if op == "append" and free:
                    index = free.pop()
                    nv_list.append(nv_list.node_address(index))
                    live.append(index)
                elif op == "remove" and live:
                    index = live.pop(0)
                    nv_list.remove(nv_list.node_address(index))
                    free.append(index)
        except PowerFailure:
            pass
        # Reboot: volatile gone, FRAM (the list) retained.  The pending
        # injection (if it never fired) dies with the power failure.
        injector.disarm()
        device.power.capacitor.voltage = 2.4
        device.power.reset_comparator()
        device.reboot()
        nv_list.repair()
        assert nv_list.check_consistency()
        # The healed chain's membership is a subset of the nodes ever
        # linked, with no duplicates.
        chain = nv_list.walk()
        assert len(chain) == len(set(chain))


class TestTaskInvariantConservation:
    @given(fail_points=st.lists(st.integers(2, 90), min_size=1, max_size=6))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_transfer_conserves_total(self, fail_points):
        sim, device = _charged_device(voltage=2.4)
        api = DeviceAPI(device)

        def debit(api_, rt):
            rt.set("a", (rt.get("a") - 1) & 0xFFFF)
            rt.set("b", (rt.get("b") + 1) & 0xFFFF)

        runtime = TaskRuntime(api, [Task("debit", debit)], ["a", "b"], name="h")
        runtime.flash_init({"a": 500, "b": 0})
        injector = BrownoutInjector(device)
        for point in fail_points:
            injector.arm(point)
            try:
                runtime.recover()
                runtime.run_one_task()
            except PowerFailure:
                pass
            device.power.capacitor.voltage = 2.4
            device.power.reset_comparator()
            injector.disarm()
        runtime.recover()
        total = runtime.read_committed("a") + runtime.read_committed("b")
        assert total == 500


class TestDecoderRobustness:
    @given(
        texts=st.lists(st.text(max_size=20), min_size=1, max_size=5),
        flips=st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 7)), max_size=6
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_raises_on_corruption(self, texts, flips):
        stream = bytearray(
            b"".join(encode(Message.printf(t)) for t in texts)
        )
        for position, bit in flips:
            if stream:
                stream[position % len(stream)] ^= 1 << bit
        decoder = Decoder()
        messages = decoder.feed(bytes(stream))  # must not raise
        assert len(messages) <= len(texts) + len(flips)

    @given(garbage=st.binary(max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_pure_garbage_yields_no_phantom_floods(self, garbage):
        decoder = Decoder()
        messages = decoder.feed(garbage)
        # Checksummed framing keeps accidental decodes very rare.
        assert len(messages) <= max(1, len(garbage) // 8)


class TestProgressMonotonicity:
    @given(durations=st.lists(st.floats(0.01, 0.3), min_size=2, max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_nv_counter_never_decreases(self, durations):
        from repro import IntermittentExecutor
        from repro.runtime.nonvolatile import NVCounter
        from repro.testing import make_fast_target

        class App:
            name = "mono"

            def flash(self, api):
                api.device.memory.write_u16(api.nv_var("counter.n"), 0)

            def main(self, api):
                counter = NVCounter(api, "n")
                while True:
                    counter.increment()
                    api.compute(300)

        sim = Simulator(seed=3)
        device = make_fast_target(sim)
        executor = IntermittentExecutor(sim, device, App())
        last = 0
        for duration in durations:
            executor.run(duration=duration)
            value = device.memory.read_u16(executor.api.nv_var("counter.n"))
            assert value >= last
            last = value


class TestCheckpointCorruptionDetection:
    """Bit-flip properties of the double-buffered checkpoint store.

    The slot image has three regions with different guarantees:

    - the checksummed payload (checksum word, stack count, registers,
      live stack): any single bit flip is *detected* — Fletcher-16
      catches all single-bit errors, and a flipped checksum word fails
      against the recomputed value;
    - the sequence word: NOT covered by the checksum.  A flip there is
      the documented undetected case — it can reorder or empty the
      slot, but the restored context itself is still intact (the
      payload validates), so corruption degrades ordering, never state;
    - the unused stack tail: flips land in bytes no restore reads, so
      they are undetected and harmless by construction.
    """

    BASE = FRAM_BASE + 0x4000

    def _manager(self, stack_words=2, seed=1):
        sim, device = _charged_device(seed=seed, voltage=2.4)
        device.cpu.reset(0xA000)
        for i in range(stack_words):
            device.cpu.sp -= 2
            device.memory.write_u16(device.cpu.sp, 0xBE00 + i)
        manager = CheckpointManager(device, self.BASE)
        manager.erase()
        return device, manager

    @given(
        stack_words=st.integers(0, 8),
        offset=st.integers(0, SLOT_SIZE - 1),
        bit=st.integers(0, 7),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_single_flip_is_detected_or_documented(
        self, stack_words, offset, bit
    ):
        device, manager = self._manager(stack_words)
        info = manager.checkpoint()
        used = _STACK_OFF + info.stack_bytes
        manager.corrupt_bit(0, offset, bit)
        if offset < _CKSUM_OFF:
            # Sequence word: outside the checksum.  Either the flip
            # zeroed it (slot reads as empty) or the slot still
            # validates with a different sequence — ordering corrupted,
            # payload intact.
            if manager.slot_is_valid(0):
                stored = device.memory.read_u16(self.BASE)
                assert stored != info.sequence
        elif offset < used:
            assert not manager.slot_is_valid(0)
        else:
            # Unused tail: never read back, undetected by design.
            assert manager.slot_is_valid(0)

    @given(offset=st.integers(0, SLOT_SIZE - 1), bit=st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_corrupt_newest_falls_back_to_older_checkpoint(self, offset, bit):
        device, manager = self._manager(stack_words=2)
        first = manager.checkpoint()
        device.cpu.registers[4] = 0x1234
        second = manager.checkpoint()
        assert second.sequence == first.sequence + 1
        used = _STACK_OFF + second.stack_bytes
        manager.corrupt_bit(1, _CKSUM_OFF + offset % (used - _CKSUM_OFF), bit)
        restored = manager.restore()
        assert restored is not None
        assert restored.sequence == first.sequence
        assert manager.corruptions_detected >= 1

    @given(
        regs=st.lists(
            st.integers(0, 0xFFFF), min_size=12, max_size=12
        ),
        stack_words=st.integers(0, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_restores_exact_context(self, regs, stack_words):
        device, manager = self._manager(stack_words)
        cpu = device.cpu
        for i, value in enumerate(regs):
            cpu.registers[4 + i] = value
        saved_regs = list(cpu.registers)
        saved_sp = cpu.sp
        saved_stack = device.memory.read_bytes(saved_sp, stack_words * 2)
        manager.checkpoint()
        # A reboot clears SRAM and the register file; FRAM survives.
        device.memory.clear_volatile()
        cpu.registers = [0] * len(saved_regs)
        restored = manager.restore()
        assert restored is not None
        assert list(cpu.registers) == saved_regs
        assert device.memory.read_bytes(saved_sp, stack_words * 2) == saved_stack


class TestAdcAccuracy:
    @given(voltage=st.floats(0.0, 3.3))
    @settings(max_examples=100)
    def test_measurement_error_bounded(self, voltage):
        sim = Simulator(seed=8)
        adc = Adc(rng=sim.rng, noise_sigma_v=0.5e-3, stream="x")
        measured = adc.measure(voltage)
        # Quantisation (half an LSB) + 5 sigma of noise.
        assert abs(measured - voltage) < adc.lsb_volts / 2 + 5 * 0.5e-3


# -- the execution-option matrix ---------------------------------------------
#: The environment each dispatch mode is selected by (see
#: ``repro.mcu.device.dispatch_mode``).
_DISPATCH_ENV = {
    "step": {"REPRO_NO_BLOCKCACHE": "1", "REPRO_FORCE_DEOPT": "0"},
    "block": {"REPRO_NO_BLOCKCACHE": "0", "REPRO_FORCE_DEOPT": "0"},
    "deopt": {"REPRO_NO_BLOCKCACHE": "0", "REPRO_FORCE_DEOPT": "1"},
}

#: ``run_campaign`` keywords per execution path.
_PATH_KW = {
    "reset": {"snapshot": False, "batch": False},
    "warm": {"snapshot": True, "batch": False},
    "lanes": {"snapshot": True, "batch": True},
}


@st.composite
def _campaign_configs(draw):
    # Not ``chaos``: its os._exit would kill an in-process run.
    app = draw(st.sampled_from(
        ("counter", "fibonacci", "linked_list", "rfid_firmware")
    ))
    fuzz = draw(st.booleans())
    if draw(st.booleans()):
        # A fixed environment, where same-mode runs form lane groups.
        distance = draw(st.sampled_from((1.6, 2.0)))
        environment = dict(
            distance_range=(distance, distance), fading_range=(0.0, 0.0),
            duty_chance=0.0,
        )
    else:
        environment = {}
    return CampaignConfig(
        app=app,
        runs=draw(st.integers(4, 8)),
        seed=draw(st.integers(0, 2**16)),
        # Chunks of 4 hold enough same-mode runs to form lane groups.
        chunk=draw(st.sampled_from((0, 4))),
        iterations=60 if app == "rfid_firmware" else draw(st.integers(4, 12)),
        duration=1.0,
        modes=tuple(draw(st.lists(
            st.sampled_from(FAULT_MODES), min_size=1, unique=True
        ))),
        max_ops=draw(st.sampled_from((60, 200))),
        corrupt_checkpoints=draw(st.booleans()),
        capture=not fuzz and draw(st.booleans()),
        shrink=draw(st.booleans()),
        shrink_limit=1,
        mode="fuzz" if fuzz else "sample",
        fuzz_rounds=2,
        **environment,
    )


class TestExecutionMatrix:
    """No execution option moves a report byte.

    Each drawn campaign runs in all 18 cells of execution path x
    dispatch mode x worker count, and every cell must render the bytes
    of the reference cell (from reset, single-stepped, one worker).
    """

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(config=_campaign_configs())
    def test_every_cell_renders_the_reference_bytes(self, config):
        reference = None
        for dispatch, env in _DISPATCH_ENV.items():
            for path, kw in _PATH_KW.items():
                for workers in (1, 2):
                    cell = dataclasses.replace(config, workers=workers)
                    with mock.patch.dict(os.environ, env):
                        rendered = _canonical(run_campaign(cell, **kw))
                    if reference is None:
                        reference = rendered
                    assert rendered == reference, (dispatch, path, workers)
