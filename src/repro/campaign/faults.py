"""Fault planning and injection for campaign runs.

A :class:`FaultPlan` is the fully materialised randomness of one run:
where power failures go, how the harvesting environment is perturbed,
and which bits (if any) get flipped in the app's protected FRAM state.
Plans are drawn from a per-run ``random.Random`` seeded by
:func:`repro.sim.rng.derive_seed`, so a campaign is replayable run by
run from its master seed alone.

The injectors translate a plan into device watches and hooks:

- :class:`ScheduledBrownouts` — force a brown-out after an exact count
  of completed work units on each boot (the op-index axis, and the
  replay substrate the shrinker uses on a bench supply): a per-boot
  unit deadline;
- :class:`EnergyLevelTrigger` — force a brown-out the first time the
  capacitor sags to a chosen voltage (placement follows the energy
  trajectory rather than the instruction stream): a Vcap watch level;
- :class:`CommitBoundaryTrigger` — force a brown-out immediately after
  the N-th non-volatile write (failures land right at FRAM commit
  boundaries, the adversarial placement for checkpoint/commit code);
- :class:`StateCorruptor` — flip bits in the app's protected FRAM
  ranges at chosen boots (post-commit corruption);
- :class:`RebootRecorder` — passively record the device's work-unit
  count of every finished boot, turning *any* run (organic or
  injected) into a replayable brown-out schedule.

All forced brown-outs go through
:meth:`repro.power.supply.PowerSystem.force_brownout`, so the program
observes them exactly as it observes an organic supply failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.campaign.config import CampaignConfig
from repro.mcu.device import NEVER, TargetDevice
from repro.mcu.memory import FRAM_BASE, FRAM_SIZE


@dataclass(frozen=True)
class FaultPlan:
    """The materialised fault decisions of one campaign run."""

    mode: str
    ops_schedule: tuple[int, ...] = ()
    energy_levels: tuple[float, ...] = ()
    commit_counts: tuple[int, ...] = ()
    distance_m: float = 1.6
    fading_sigma: float = 1.5
    duty: tuple[float, float] | None = None
    flips: tuple[tuple[int, int, int], ...] = ()  # (boot, offset, bit)

    def to_dict(self) -> dict:
        """JSON-ready form for the report."""
        return {
            "mode": self.mode,
            "ops_schedule": list(self.ops_schedule),
            "energy_levels": list(self.energy_levels),
            "commit_counts": list(self.commit_counts),
            "distance_m": self.distance_m,
            "fading_sigma": self.fading_sigma,
            "duty": list(self.duty) if self.duty else None,
            "flips": [list(f) for f in self.flips],
        }


def plan_faults(config: CampaignConfig, rng: random.Random) -> FaultPlan:
    """Draw one run's fault plan from a seeded RNG.

    Every axis is drawn unconditionally-in-order (mode, environment,
    placement, corruption) so the mapping from seed to plan is stable
    even as individual axes are enabled or disabled.
    """
    mode = rng.choice(list(config.modes))
    distance = round(rng.uniform(*config.distance_range), 4)
    fading = round(rng.uniform(*config.fading_range), 4)
    duty = None
    if rng.random() < config.duty_chance:
        duty = (
            round(rng.uniform(2e-3, 20e-3), 6),
            round(rng.uniform(0.4, 0.9), 3),
        )
    count = rng.randint(config.min_reboots, config.max_reboots)
    ops_schedule: tuple[int, ...] = ()
    energy_levels: tuple[float, ...] = ()
    commit_counts: tuple[int, ...] = ()
    if mode == "op_index":
        ops_schedule = tuple(
            rng.randint(config.min_ops, config.max_ops) for _ in range(count)
        )
    elif mode == "energy_level":
        # Strictly between brown-out (1.8 V) and turn-on (2.4 V), with
        # margin so the trigger beats the organic threshold crossing.
        energy_levels = tuple(
            round(rng.uniform(1.85, 2.35), 4) for _ in range(count)
        )
    elif mode == "commit_boundary":
        cumulative = 0
        counts = []
        for _ in range(count):
            cumulative += rng.randint(1, max(2, config.max_ops // 8))
            counts.append(cumulative)
        commit_counts = tuple(counts)
    flips: tuple[tuple[int, int, int], ...] = ()
    if config.corrupt_checkpoints:
        flips = tuple(
            (rng.randint(1, max(2, count)), rng.randint(0, 4095), rng.randint(0, 7))
            for _ in range(rng.randint(1, 3))
        )
    return FaultPlan(
        mode=mode,
        ops_schedule=ops_schedule,
        energy_levels=energy_levels,
        commit_counts=commit_counts,
        distance_m=distance,
        fading_sigma=fading,
        duty=duty,
        flips=flips,
    )


class _Injector:
    """Shared base of the injectors below.

    Injector counters are *simulated-world* state: a mid-run snapshot
    that omitted them would resume with a desynchronized schedule.
    Each injector therefore exposes ``export_state``/``restore_state``
    (plain tuples, no device references) that the snapshot layer's
    callers carry alongside a :class:`repro.snapshot.DeviceSnapshot`
    (which itself carries the device's work-unit counts).
    """

    def __init__(self, device: TargetDevice) -> None:
        self.device = device
        self.injections = 0

    def _force(self) -> None:
        if self.device.power.force_brownout():
            self.injections += 1


class ScheduledBrownouts(_Injector):
    """Brown out after ``schedule[k]`` completed work units on boot k.

    Boot counting starts at the first reboot *after* installation, so
    installing post-flash never misattributes flash-time work.  Boots
    beyond the schedule run free, and an entry below 1 never fires.
    """

    def __init__(self, device: TargetDevice, schedule: list[int]) -> None:
        super().__init__(device)
        self.schedule = [int(n) for n in schedule]
        self._boot = -1
        self._watch = device.watch(self._fire)
        device.on_reboot.append(self._on_reboot)

    def _on_reboot(self, count: int) -> None:
        self._boot += 1
        self._arm(self.device.work_units)

    def _arm(self, boot_start: int) -> None:
        """Arm this boot's deadline unless it is out of reach."""
        at = NEVER
        if 0 <= self._boot < len(self.schedule):
            at = boot_start + self.schedule[self._boot]
        self._watch.arm(at if at > self.device.work_units else NEVER)

    def _fire(self) -> None:
        self._watch.disarm()
        self._force()

    def export_state(self) -> tuple:
        """Snapshot-able progress state (see :class:`_Injector`)."""
        return (self._boot, self.injections)

    def restore_state(self, state: tuple) -> None:
        """Rewind to a previously exported progress state."""
        self._boot, self.injections = state
        self._arm(self.device.work_units - self.device.boot_units)


class EnergyLevelTrigger(_Injector):
    """Brown out when the capacitor first sags to each level in turn.

    Each level fires once, in sequence — the k-th trigger places the
    k-th failure on the energy trajectory rather than at an instruction
    count, which is how real brown-outs cluster around expensive code.
    """

    def __init__(self, device: TargetDevice, levels: list[float]) -> None:
        super().__init__(device)
        self.levels = [float(v) for v in levels]
        self._index = 0
        self._watch = device.watch(self._fire)
        self._arm()

    def _arm(self) -> None:
        if self._index < len(self.levels):
            self._watch.arm(vcap=self.levels[self._index])
        else:
            self._watch.disarm()

    def _fire(self) -> None:
        power = self.device.power
        if power.is_on and power.vcap <= self.levels[self._index]:
            self._index += 1
            self._arm()
            self._force()

    def export_state(self) -> tuple:
        """Snapshot-able progress state (see :class:`_Injector`)."""
        return (self._index, self.injections)

    def restore_state(self, state: tuple) -> None:
        """Rewind to a previously exported progress state."""
        self._index, self.injections = state
        self._arm()


class CommitBoundaryTrigger(_Injector):
    """Brown out immediately after the N-th non-volatile write.

    Counts map-level FRAM stores via the memory write observers, so the
    forced failure lands right after a commit-style write completes —
    the adversarial placement for checkpoint and two-phase-commit code
    (and for Figure 3's ``tail->next = e``).
    """

    def __init__(self, device: TargetDevice, counts: list[int]) -> None:
        super().__init__(device)
        self.counts = sorted(int(c) for c in counts)
        self._index = 0
        self.writes_seen = 0
        device.memory.write_observers.append(self._observer)

    def _observer(self, address: int, width: int) -> None:
        if not FRAM_BASE <= address < FRAM_BASE + FRAM_SIZE:
            return
        self.writes_seen += 1
        if (
            self._index < len(self.counts)
            and self.writes_seen == self.counts[self._index]
        ):
            self._index += 1
            self._force()

    def export_state(self) -> tuple:
        """Snapshot-able progress state (see :class:`_Injector`)."""
        return (self._index, self.writes_seen, self.injections)

    def restore_state(self, state: tuple) -> None:
        """Rewind to a previously exported progress state."""
        self._index, self.writes_seen, self.injections = state


class StateCorruptor:
    """Flip bits in the app's protected FRAM ranges at chosen boots.

    Flips happen host-side at boot boundaries (the device is off when
    FRAM decays or wears), through the region layer so memory write
    observers — e.g. a commit-boundary trigger — never count them.
    """

    def __init__(
        self,
        device: TargetDevice,
        ranges: list[tuple[int, int]],
        flips: list[tuple[int, int, int]],
    ) -> None:
        self.device = device
        self.ranges = [(int(a), int(s)) for a, s in ranges if s > 0]
        self.flips = [(int(b), int(o), int(bit)) for b, o, bit in flips]
        self.applied: list[tuple[int, int]] = []  # (address, bit)
        self._boot = -1
        device.on_reboot.append(self._on_reboot)

    def _address_for(self, offset: int) -> int | None:
        total = sum(size for _, size in self.ranges)
        if total == 0:
            return None
        offset %= total
        for base, size in self.ranges:
            if offset < size:
                return base + offset
            offset -= size
        return None

    def _on_reboot(self, count: int) -> None:
        self._boot += 1
        for boot, offset, bit in self.flips:
            if boot != self._boot:
                continue
            address = self._address_for(offset)
            if address is None:
                continue
            region = self.device.memory.region_at(address, 1)
            region.write_u8(address, region.read_u8(address) ^ (1 << bit))
            self.device.memory.notify_out_of_band(address, 1)
            self.applied.append((address, bit))
        if self.applied:
            # Region-level writes bypass the map observers on purpose
            # (the commit-boundary trigger must not count decay), so the
            # CPU's decoded-instruction cache is told explicitly — a
            # flip could land in code bytes.
            self.device.cpu.invalidate_decode_cache()

    def export_state(self) -> tuple:
        """Snapshot-able progress state (see :class:`_Injector`)."""
        return (self._boot, tuple(self.applied))

    def restore_state(self, state: tuple) -> None:
        """Rewind to a previously exported progress state."""
        boot, applied = state
        self._boot = boot
        self.applied = list(applied)


class RebootRecorder:
    """Record completed work units per boot — the replayable schedule.

    The schedule contains only brown-out-terminated boots: the final
    boot (ended by deadline, completion, or a crash) is not a reboot
    the replay should inject.
    """

    def __init__(self, device: TargetDevice) -> None:
        self.device = device
        self._completed: list[int] = []
        self._started = False
        device.on_reboot.append(self._on_reboot)

    def _on_reboot(self, count: int) -> None:
        if self._started:
            self._completed.append(self.device.boot_units)
        self._started = True

    def schedule(self) -> list[int]:
        """Ops-per-boot for every brown-out-terminated boot so far."""
        return list(self._completed)

    def export_state(self) -> tuple:
        """Snapshot-able progress state (see :class:`_Injector`)."""
        return (tuple(self._completed), self._started)

    def restore_state(self, state: tuple) -> None:
        """Rewind to a previously exported progress state."""
        completed, self._started = state
        self._completed = list(completed)
