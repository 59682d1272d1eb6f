"""Deterministic whole-device snapshot/restore.

EDB's core trick is manipulating target state without re-running the
target from reset; this package is the simulator-side rendition.  A
:class:`DeviceSnapshot` captures *everything* the simulated world can
observe — CPU registers, SRAM/FRAM contents, GPIO/ADC/UART/I2C
peripheral state, the capacitor voltage and comparator state, the
harvester's fading stream position, every RNG stream, the simulation
clock and the pending-event queue — so that restoring it and resuming
execution is bit-identical to never having stopped.  That is the same
correctness bar the campaign engine's byte-identical reports impose,
and it is enforced by the property tests in ``tests/test_snapshot.py``.
Derived caches are not state: a restore invalidates them, but the CPU's
translated blocks survive wherever the restored memory still holds
their code bytes, so a device restored to a node of the same image
runs warm.  That is what lets campaign legs reuse one built device
(:func:`repro.campaign.runner.build_leg`).

Two capture modes:

- **Full** (``tracker=None``): every memory page is copied.
- **Differential** (with a :class:`DirtyTracker`): dirty pages are
  tracked through the memory map's write observers (plus the explicit
  out-of-band channel for region-level writes such as the campaign's
  ``StateCorruptor``), so successive snapshots copy only what changed
  — the DiCA-style cheap-capture discipline.  Clean pages are shared
  by reference between snapshots; pages are immutable ``bytes``.

Every capture is **checksummed** (CRC32 over memory pages and CPU
registers) and every restore verifies the checksum before touching the
device, raising :class:`SnapshotIntegrityError` on a mismatch — the
same refuse-to-restore-garbage discipline the target-side checkpoint
system's Fletcher-16 enforces, applied to the host's own snapshots
(see ``docs/RESILIENCE.md``).

Deliberately *not* captured:

- host-side state — wall-clock watchdog polls, journal writers,
  progress callbacks.  Simulator events registered with ``host=True``
  are excluded from capture and survive a restore untouched;
- hook/listener registrations (``on_reboot``, watches, write
  observers, trace listeners): those are wiring, not state.  (The
  work-unit counters and each watch's armed triggers *are* captured.)
  :func:`capture_wiring`/:func:`restore_wiring` record and put back
  the registrations campaign legs make, for callers that reuse one
  device across legs.  Stateful hook owners (the campaign's fault
  injectors) expose their own ``export_state``/``restore_state`` and
  are handled by callers;
- callbacks in the event queue are captured *by reference*: snapshots
  live in-process and fork within one worker, so closures stay valid.
"""

from __future__ import annotations

import zlib
from typing import Any

from repro.mcu.device import TargetDevice
from repro.mcu.memory import MemoryMap, MemoryRegion

#: Page granularity of dirty tracking; matches the memory map's
#: address->region page table so one shift serves both.
PAGE_SHIFT = MemoryMap.PAGE_SHIFT
PAGE_SIZE = 1 << PAGE_SHIFT

#: Mutable electrical/environment attributes an energy source may carry.
#: Captured with ``getattr`` and restored with ``setattr`` so every
#: source model (RF, solar, constant-current, tether, trace-driven) is
#: covered without each one knowing about snapshots.  Derived caches
#: (e.g. the RF harvester's base-power cache) are keyed on their inputs
#: and therefore self-correct after a restore.
_SOURCE_ATTRS = (
    "_fade_db",
    "_fade_until",
    "enabled",
    "tx_power_dbm",
    "distance_m",
    "efficiency",
    "open_voltage",
    "reference_gain",
    "fading_sigma",
    "duty_period",
    "duty_fraction",
    "irradiance_w_m2",
    "area_m2",
    "current_a",
    "compliance_v",
    "voltage",
    "resistance",
)

_MISSING = object()


class SnapshotIntegrityError(RuntimeError):
    """A snapshot failed its checksum at restore time.

    Restoring a corrupted snapshot would silently poison every
    downstream trajectory (and, in the campaign's fork engine, every
    record forked from it), so corruption is detected *before* the
    device is touched.  The snapshot/fork execution paths treat this
    exactly like any other mid-session failure: the affected runs fall
    back to the honest from-reset path.
    """


def _snapshot_integrity(
    pages: dict[str, tuple[bytes, ...]], registers: tuple
) -> int:
    """CRC32 over a snapshot's payload (memory pages + CPU registers).

    Region names participate so pages cannot silently swap regions;
    iteration is sorted so the checksum is independent of dict order.
    A region's pages are checksummed as one joined run (CRC32 of a
    concatenation equals the CRC chained page by page), which saves a
    call per page.
    """
    crc = zlib.crc32(repr(registers).encode("ascii"))
    for name in sorted(pages):
        crc = zlib.crc32(name.encode("utf-8"), crc)
        crc = zlib.crc32(b"".join(pages[name]), crc)
    return crc


def _pages_of(region: MemoryRegion) -> list[bytes]:
    """Slice a region's contents into immutable pages."""
    data = region._data
    return [
        bytes(data[offset : offset + PAGE_SIZE])
        for offset in range(0, region.size, PAGE_SIZE)
    ]


class DirtyTracker:
    """Dirty-page bookkeeping for differential capture.

    Attach one tracker per memory map; it registers on the map's write
    observers (seeing every map-level store and the whole-region
    notifications of ``clear_volatile``) and on the out-of-band channel
    (:meth:`MemoryMap.notify_out_of_band`) that region-level writers
    use.  :meth:`snapshot_pages` then copies only pages written since
    the previous capture, sharing every clean page with it.
    """

    def __init__(self, memory: MemoryMap) -> None:
        self.memory = memory
        self._pages: dict[str, list[bytes]] = {
            region.name: _pages_of(region) for region in memory.regions
        }
        self._dirty: dict[str, set[int]] = {
            region.name: set() for region in memory.regions
        }
        memory.write_observers.append(self._observe)
        memory.oob_write_observers.append(self._observe)

    def _observe(self, address: int, width: int) -> None:
        for region in self.memory.regions:
            if region.base <= address < region.end:
                first = (address - region.base) >> PAGE_SHIFT
                last = (address + width - 1 - region.base) >> PAGE_SHIFT
                self._dirty[region.name].update(range(first, last + 1))
                return

    def mark_all_dirty(self) -> None:
        """Assume every page changed (after unobserved bulk mutation)."""
        for region in self.memory.regions:
            count = (region.size + PAGE_SIZE - 1) >> PAGE_SHIFT
            self._dirty[region.name] = set(range(count))

    def snapshot_pages(self) -> dict[str, tuple[bytes, ...]]:
        """Current contents as pages, re-copying only dirty ones."""
        out: dict[str, tuple[bytes, ...]] = {}
        for region in self.memory.regions:
            pages = self._pages[region.name]
            dirty = self._dirty[region.name]
            if dirty:
                data = region._data
                for index in dirty:
                    offset = index << PAGE_SHIFT
                    pages[index] = bytes(data[offset : offset + PAGE_SIZE])
                dirty.clear()
            out[region.name] = tuple(pages)
        return out

    def resync(self, pages: dict[str, tuple[bytes, ...]]) -> None:
        """Adopt restored contents as the new clean baseline."""
        for name, region_pages in pages.items():
            self._pages[name] = list(region_pages)
            self._dirty[name].clear()


class DeviceSnapshot:
    """One captured world state; see :func:`capture` / :func:`restore`."""

    __slots__ = (
        "sim_now",
        "sim_seq",
        "sim_stop_reason",
        "sim_events",
        "rng_states",
        "trace_lengths",
        "trace_enabled",
        "memory_pages",
        "memory_counters",
        "cpu_registers",
        "cpu_retired",
        "cpu_halted",
        "cpu_coverage",
        "gpio_pins",
        "uart_state",
        "debug_uart_state",
        "i2c_transactions",
        "adc_samples",
        "line_states",
        "cycles_executed",
        "reboot_count",
        "energy_consumed",
        "stop_after",
        "work_units",
        "boot_start_units",
        "watches",
        "power_state",
        "power_reboots",
        "power_turn_ons",
        "injected_current",
        "cap_voltage",
        "tether",
        "source_attrs",
        "tether_attrs",
        "integrity",
    )


def _capture_source_attrs(source: Any) -> tuple[tuple[str, Any], ...]:
    attrs = []
    for name in _SOURCE_ATTRS:
        value = getattr(source, name, _MISSING)
        if value is not _MISSING:
            attrs.append((name, value))
    return tuple(attrs)


def _restore_source_attrs(source: Any, attrs: tuple[tuple[str, Any], ...]) -> None:
    for name, value in attrs:
        setattr(source, name, value)


def capture(
    device: TargetDevice, tracker: DirtyTracker | None = None
) -> DeviceSnapshot:
    """Capture the complete simulated-world state of ``device``.

    With a ``tracker`` (attached to ``device.memory``), memory capture
    is differential: only pages written since the tracker's previous
    capture are copied.  Host-side simulator events are excluded.
    """
    sim = device.sim
    snap = DeviceSnapshot()
    snap.sim_now = sim._now
    snap.sim_seq = sim._seq
    snap.sim_stop_reason = sim._stop_reason
    snap.sim_events = sim.export_events()
    snap.rng_states = {
        name: stream.getstate() for name, stream in sim.rng._streams.items()
    }
    snap.trace_lengths = {
        name: len(events) for name, events in sim.trace._channels.items()
    }
    snap.trace_enabled = sim.trace.enabled

    if tracker is not None:
        snap.memory_pages = tracker.snapshot_pages()
    else:
        snap.memory_pages = {
            region.name: tuple(_pages_of(region))
            for region in device.memory.regions
        }
    snap.memory_counters = {
        region.name: (region.reads, region.writes)
        for region in device.memory.regions
    }

    cpu = device.cpu
    snap.cpu_registers = tuple(cpu.registers)
    snap.cpu_retired = cpu.instructions_retired
    snap.cpu_halted = cpu.halted
    snap.cpu_coverage = (
        None if cpu.coverage is None else cpu.coverage.export_state()
    )

    snap.gpio_pins = {
        name: (pin.state, pin.toggles)
        for name, pin in device.gpio._pins.items()
    }
    snap.uart_state = (
        bytes(device.uart._rx_queue),
        device.uart.bytes_transmitted,
        device.uart.bytes_received,
    )
    snap.debug_uart_state = (
        bytes(device.debug_uart._rx_queue),
        device.debug_uart.bytes_transmitted,
        device.debug_uart.bytes_received,
    )
    snap.i2c_transactions = device.i2c.transactions
    snap.adc_samples = device.adc.samples_taken
    snap.line_states = tuple(
        (line._state, line.transitions)
        for line in (*device.marker_lines, device.debug_signal)
    )

    snap.cycles_executed = device.cycles_executed
    snap.reboot_count = device.reboot_count
    snap.energy_consumed = device.energy_consumed
    snap.stop_after = device.stop_after
    snap.work_units = device.work_units
    snap.boot_start_units = device._boot_start_units
    snap.watches = [(w, w.units, w.cycles, w.vcap) for w in device._watches]

    power = device.power
    snap.power_state = power._state
    snap.power_reboots = power.reboots
    snap.power_turn_ons = power.turn_ons
    snap.injected_current = power._injected_current
    snap.cap_voltage = power.capacitor._voltage
    snap.tether = power._tether
    snap.source_attrs = _capture_source_attrs(power.source)
    snap.tether_attrs = (
        _capture_source_attrs(power._tether)
        if power._tether is not None
        else ()
    )
    snap.integrity = _snapshot_integrity(snap.memory_pages, snap.cpu_registers)
    return snap


def restore(
    device: TargetDevice,
    snap: DeviceSnapshot,
    tracker: DirtyTracker | None = None,
) -> None:
    """Rewind ``device`` (and its simulator) to a captured state.

    Derived caches — the CPU's decoded-instruction cache, the GPIO load
    current sum — are invalidated; they rebuild lazily and are keyed on
    the restored state.  Translated blocks are kept: each is checked
    against the restored code bytes at its next dispatch and
    retranslated only if they differ.  Live host-side simulator events
    are preserved.

    The snapshot's checksum is verified *before* the device is touched;
    a payload that rotted since capture (a host-fault-injected bit
    flip, a real memory error) raises :class:`SnapshotIntegrityError`
    and leaves the device exactly as it was.
    """
    expected = getattr(snap, "integrity", None)
    if expected is not None and expected != _snapshot_integrity(
        snap.memory_pages, snap.cpu_registers
    ):
        raise SnapshotIntegrityError(
            "snapshot payload failed its checksum: the captured state was "
            "corrupted after capture; refusing to restore it"
        )
    sim = device.sim
    sim._now = snap.sim_now
    sim._seq = snap.sim_seq
    sim._stop_reason = snap.sim_stop_reason
    sim.restore_events(snap.sim_events)

    streams = {}
    import random as _random

    for name, state in snap.rng_states.items():
        stream = _random.Random()
        stream.setstate(state)
        streams[name] = stream
    # Streams created after the capture are dropped: re-creating them
    # on demand re-derives the same seed, so draws replay identically.
    sim.rng._streams = streams

    channels = sim.trace._channels
    for name in list(channels):
        length = snap.trace_lengths.get(name)
        if length is None:
            del channels[name]
        else:
            del channels[name][length:]
    sim.trace.enabled = snap.trace_enabled

    for region in device.memory.regions:
        pages = snap.memory_pages[region.name]
        region._data[:] = b"".join(pages)
        region.reads, region.writes = snap.memory_counters[region.name]
    if tracker is not None:
        tracker.resync(snap.memory_pages)
    # Memory changed behind the map's observers: decoded instructions
    # may describe bytes that no longer exist, and every block must
    # match the restored bytes before it runs again.
    device.cpu.invalidate_decode_cache()

    cpu = device.cpu
    cpu.registers[:] = snap.cpu_registers
    cpu.instructions_retired = snap.cpu_retired
    cpu.halted = snap.cpu_halted
    if cpu.coverage is not None and snap.cpu_coverage is not None:
        cpu.coverage.restore_state(snap.cpu_coverage)
    # Block-cache counters are *per-leg* instrumentation, not simulated
    # state: a forked leg resuming from a shared prefix must report its
    # own translation/dispatch/deopt activity, not inherit the counts
    # the prefix accumulated before the capture.
    cpu.blocks_translated = 0
    cpu.blocks_executed = 0
    cpu.blocks_deopts = 0

    gpio = device.gpio
    for name, (state, toggles) in snap.gpio_pins.items():
        pin = gpio._pins[name]
        pin.state = state
        pin.toggles = toggles
    gpio._load_current_cache = None

    for uart, (rx, tx_count, rx_count) in (
        (device.uart, snap.uart_state),
        (device.debug_uart, snap.debug_uart_state),
    ):
        uart._rx_queue[:] = rx
        uart.bytes_transmitted = tx_count
        uart.bytes_received = rx_count
    device.i2c.transactions = snap.i2c_transactions
    device.adc.samples_taken = snap.adc_samples
    for line, (state, transitions) in zip(
        (*device.marker_lines, device.debug_signal), snap.line_states
    ):
        line._state = state
        line.transitions = transitions

    device.cycles_executed = snap.cycles_executed
    device.reboot_count = snap.reboot_count
    device.energy_consumed = snap.energy_consumed
    device.stop_after = snap.stop_after
    device.work_units = snap.work_units
    device._boot_start_units = snap.boot_start_units
    for watch, units, cycles, vcap in snap.watches:
        watch.units, watch.cycles, watch.vcap = units, cycles, vcap
    device._rearm()

    power = device.power
    power._state = snap.power_state
    power.reboots = snap.power_reboots
    power.turn_ons = snap.power_turn_ons
    power._injected_current = snap.injected_current
    power.capacitor._voltage = snap.cap_voltage
    power._tether = snap.tether
    _restore_source_attrs(power.source, snap.source_attrs)
    if snap.tether is not None:
        _restore_source_attrs(snap.tether, snap.tether_attrs)
    # The environment (clock, power state, source attributes) changed
    # behind the caches' invalidation hooks: drop the device's memoized
    # spend window so batched energy accounting re-derives itself from
    # the restored state.  Translated blocks survive where the restored
    # code bytes equal theirs (``invalidate_decode_cache`` above marked
    # them for that check); the rest recompile from the process-wide
    # decoded-instruction table, which is keyed by code content — the
    # "cheaply rebuild" half of the snapshot contract.
    power.invalidate_env()
    device.invalidate_energy_window()


def capture_wiring(device: TargetDevice) -> tuple:
    """The hook registrations on ``device`` that :func:`capture` omits.

    Device reboot/marker hooks and watches, the loaded ISA image, power
    change hooks, memory write and out-of-band observers (all but the
    CPU's own cache observer), the CPU's ports, mark hook, coverage
    recorder and watched PCs, and the set of declared GPIO pins.  Two
    captures compare equal exactly when the registrations are the same.
    """
    cpu = device.cpu
    memory = device.memory
    own = cpu._on_memory_write
    return (
        tuple(device.on_reboot),
        tuple(device.on_code_marker),
        tuple(device._watches),
        device._program,
        tuple(device.power.on_power_change),
        tuple(hook for hook in memory.write_observers if hook != own),
        tuple(memory.oob_write_observers),
        dict(cpu.ports_out),
        dict(cpu.ports_in),
        cpu.on_mark,
        cpu.coverage,
        cpu.watch_pcs,
        tuple(device.gpio._pins),
    )


def restore_wiring(device: TargetDevice, wiring: tuple) -> None:
    """Put back registrations taken by :func:`capture_wiring`.

    Every hook registered since is dropped, and GPIO pins declared
    since are forgotten.  The CPU's own write observer stays installed
    once it is, so its translated blocks keep seeing stores.
    """
    (
        on_reboot, on_code_marker, watches, program, on_power_change,
        write_observers, oob_observers, ports_out, ports_in, on_mark,
        coverage, watch_pcs, pins,
    ) = wiring
    cpu = device.cpu
    memory = device.memory
    device.on_reboot[:] = on_reboot
    device.on_code_marker[:] = on_code_marker
    device._watches[:] = watches
    device._rearm()
    device._program = program
    device.power.on_power_change[:] = on_power_change
    memory.write_observers[:] = write_observers
    if cpu._observing:
        memory.write_observers.append(cpu._on_memory_write)
    memory.oob_write_observers[:] = oob_observers
    cpu.ports_out.clear()
    cpu.ports_out.update(ports_out)
    cpu.ports_in.clear()
    cpu.ports_in.update(ports_in)
    cpu.on_mark = on_mark
    cpu.coverage = coverage
    if cpu.watch_pcs != watch_pcs:
        cpu._watch_pcs = set(watch_pcs)
        cpu._drop_blocks()
    gpio = device.gpio
    for name in [name for name in gpio._pins if name not in pins]:
        del gpio._pins[name]
    gpio._load_current_cache = None
