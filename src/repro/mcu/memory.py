"""Byte-addressable target memory with volatile and non-volatile regions.

The memory map mirrors the MSP430FR5969 on the WISP 5:

- SRAM at ``0x1C00``, 2 KiB — volatile, cleared on every reboot;
- FRAM at ``0x4400``, 47.75 KiB — non-volatile, survives reboots.

Accesses outside any mapped region, or misaligned word accesses, raise
:class:`MemoryFault`.  That fault is the simulator's rendition of the
paper's "undefined behavior": the wild-pointer write at the end of the
Figure 3 bug chain lands here.
"""

from __future__ import annotations

from typing import Iterable

SRAM_BASE = 0x1C00
SRAM_SIZE = 2 * 1024
FRAM_BASE = 0x4400
FRAM_SIZE = 0xBF80  # 0x4400 .. 0xFF7F on the FR5969

NULL = 0x0000


class MemoryFault(Exception):
    """A wild access: unmapped address, misalignment, or bad width."""

    def __init__(self, message: str, address: int | None = None) -> None:
        super().__init__(message)
        self.address = address


class MemoryRegion:
    """A contiguous block of byte-addressable memory.

    Parameters
    ----------
    name:
        Human-readable region name ("sram", "fram").
    base:
        First mapped address.
    size:
        Region size in bytes.
    volatile:
        Whether the region is cleared by a power failure.
    write_cycles / read_cycles:
        Access cost in CPU cycles (FRAM writes on real parts incur wait
        states; the costs feed the device's time/energy accounting).
    """

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        volatile: bool,
        read_cycles: int = 1,
        write_cycles: int = 1,
    ) -> None:
        if size <= 0:
            raise ValueError(f"region size must be positive (got {size})")
        if base < 0:
            raise ValueError(f"region base must be non-negative (got {base})")
        self.name = name
        self.base = base
        self.size = size
        # One past the last mapped address.  A plain attribute, not a
        # property: bounds checks read it on every access and the
        # descriptor-call overhead is measurable in campaign profiles.
        self.end = base + size
        self.volatile = volatile
        self.read_cycles = read_cycles
        self.write_cycles = write_cycles
        self._data = bytearray(size)
        self.writes = 0
        self.reads = 0

    def contains(self, address: int, width: int = 1) -> bool:
        """True if ``[address, address+width)`` lies inside the region."""
        return self.base <= address and address + width <= self.end

    def _offset(self, address: int, width: int) -> int:
        if self.base <= address and address + width <= self.end:
            return address - self.base
        raise MemoryFault(
            f"access of {width} byte(s) at 0x{address:04X} escapes "
            f"region '{self.name}' [0x{self.base:04X}, 0x{self.end:04X})",
            address=address,
        )

    def read_u8(self, address: int) -> int:
        """Read one byte."""
        self.reads += 1
        return self._data[self._offset(address, 1)]

    def write_u8(self, address: int, value: int) -> None:
        """Write one byte (value truncated to 8 bits)."""
        self.writes += 1
        self._data[self._offset(address, 1)] = value & 0xFF

    def read_u16(self, address: int) -> int:
        """Read one little-endian 16-bit word (must be 2-byte aligned)."""
        if address % 2:
            raise MemoryFault(
                f"misaligned word read at 0x{address:04X}", address=address
            )
        base = self.base
        if base <= address and address + 2 <= self.end:
            offset = address - base
            self.reads += 1
            data = self._data
            return data[offset] | (data[offset + 1] << 8)
        self._offset(address, 2)  # raises the canonical escape fault
        raise AssertionError("unreachable")  # pragma: no cover

    def write_u16(self, address: int, value: int) -> None:
        """Write one little-endian 16-bit word (must be 2-byte aligned)."""
        if address % 2:
            raise MemoryFault(
                f"misaligned word write at 0x{address:04X}", address=address
            )
        base = self.base
        if base <= address and address + 2 <= self.end:
            offset = address - base
            self.writes += 1
            data = self._data
            data[offset] = value & 0xFF
            data[offset + 1] = (value >> 8) & 0xFF
            return
        self._offset(address, 2)  # raises the canonical escape fault
        raise AssertionError("unreachable")  # pragma: no cover

    def read_bytes(self, address: int, count: int) -> bytes:
        """Read ``count`` raw bytes."""
        offset = self._offset(address, count)
        self.reads += 1
        return bytes(self._data[offset : offset + count])

    def peek_bytes(self, address: int, count: int) -> bytes:
        """Read ``count`` raw bytes without counting an access."""
        offset = self._offset(address, count)
        return bytes(self._data[offset : offset + count])

    def write_bytes(self, address: int, data: bytes | bytearray) -> None:
        """Write raw bytes."""
        offset = self._offset(address, len(data))
        self.writes += 1
        self._data[offset : offset + len(data)] = data

    def clear(self) -> None:
        """Zero the region (what a power failure does to volatile RAM)."""
        self._data[:] = bytes(self.size)

    def __repr__(self) -> str:
        kind = "volatile" if self.volatile else "non-volatile"
        return (
            f"MemoryRegion({self.name!r}, 0x{self.base:04X}+{self.size}, {kind})"
        )


class MemoryMap:
    """The full address space: an ordered set of non-overlapping regions."""

    #: Page granularity of the precomputed address→region table (2^8 =
    #: 256 bytes).  Pages that straddle a region boundary are left out
    #: and fall through to the linear scan.
    PAGE_SHIFT = 8

    def __init__(self, regions: Iterable[MemoryRegion]) -> None:
        self.regions = sorted(regions, key=lambda r: r.base)
        for a, b in zip(self.regions, self.regions[1:]):
            if a.end > b.base:
                raise ValueError(f"regions overlap: {a!r} and {b!r}")
        self._by_name = {r.name: r for r in self.regions}
        if len(self._by_name) != len(self.regions):
            raise ValueError("region names must be unique")
        # Write observers: ``hook(address, width)`` after every
        # successful map-level store.  The campaign's commit-boundary
        # fault injector watches FRAM traffic here; observers must not
        # themselves touch target memory.
        self.write_observers: list = []
        # Out-of-band observers: notified (via ``notify_out_of_band``)
        # of region-level writes that deliberately bypass the map —
        # FRAM decay flips, host-side surgery.  Kept separate so
        # observers that model the *program's* store stream (the
        # commit-boundary trigger) never count them, while bookkeeping
        # that must see every mutation (snapshot dirty tracking) can.
        self.oob_write_observers: list = []
        # Region-lookup acceleration: a last-hit cache plus a page
        # table covering every page that lies entirely inside one
        # region.  Both only ever *shortcut* the linear scan — fault
        # semantics for unmapped/straddling accesses are unchanged.
        self._last_region: MemoryRegion | None = None
        shift = self.PAGE_SHIFT
        page_size = 1 << shift
        self._page_table: dict[int, MemoryRegion] = {}
        for region in self.regions:
            first = region.base >> shift
            last = (region.end - 1) >> shift
            for page in range(first, last + 1):
                start = page << shift
                if start >= region.base and start + page_size <= region.end:
                    self._page_table[page] = region

    def _notify_write(self, address: int, width: int) -> None:
        for hook in self.write_observers:
            hook(address, width)

    def notify_out_of_band(self, address: int, width: int) -> None:
        """Report a region-level write that bypassed the map accessors."""
        for hook in self.oob_write_observers:
            hook(address, width)

    def region(self, name: str) -> MemoryRegion:
        """Look a region up by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"no region named {name!r}; have {sorted(self._by_name)}"
            ) from None

    def region_at(self, address: int, width: int = 1) -> MemoryRegion:
        """The region mapping ``[address, address+width)``.

        Raises :class:`MemoryFault` for unmapped addresses — including
        address 0, so NULL-pointer dereferences fault here.  The lookup
        is O(1) on the hot path: the last-hit region, then the page
        table, then the full scan only for misses and faults.
        """
        region = self._last_region
        if (
            region is not None
            and region.base <= address
            and address + width <= region.end
        ):
            return region
        region = self._page_table.get(address >> self.PAGE_SHIFT)
        if region is not None and address + width <= region.end:
            self._last_region = region
            return region
        for region in self.regions:
            if region.contains(address, width):
                self._last_region = region
                return region
        raise MemoryFault(
            f"access of {width} byte(s) at unmapped address 0x{address:04X}",
            address=address,
        )

    # -- whole-address-space accessors -------------------------------------
    def read_u8(self, address: int) -> int:
        """Read a byte anywhere in the address space."""
        return self.region_at(address, 1).read_u8(address)

    def write_u8(self, address: int, value: int) -> None:
        """Write a byte anywhere in the address space."""
        self.region_at(address, 1).write_u8(address, value)
        self._notify_write(address, 1)

    def read_u16(self, address: int) -> int:
        """Read a word anywhere in the address space."""
        return self.region_at(address, 2).read_u16(address)

    def write_u16(self, address: int, value: int) -> None:
        """Write a word anywhere in the address space."""
        self.region_at(address, 2).write_u16(address, value)
        self._notify_write(address, 2)

    def read_bytes(self, address: int, count: int) -> bytes:
        """Read raw bytes anywhere in the address space."""
        return self.region_at(address, count).read_bytes(address, count)

    def write_bytes(self, address: int, data: bytes | bytearray) -> None:
        """Write raw bytes anywhere in the address space."""
        self.region_at(address, len(data)).write_bytes(address, data)
        self._notify_write(address, len(data))

    def clear_volatile(self) -> None:
        """Clear every volatile region (reboot semantics).

        The wipe is reported to the write observers as one whole-region
        store, so caches keyed on memory contents (e.g. the CPU's
        decoded-instruction cache) see volatile code vanish.  Observers
        that filter by address range (the commit-boundary injector
        watches FRAM only) are unaffected: volatile regions are by
        definition not FRAM.
        """
        for region in self.regions:
            if region.volatile:
                region.clear()
                self._notify_write(region.base, region.size)


def make_msp430_memory_map() -> MemoryMap:
    """Build the MSP430FR5969-flavoured map used by the WISP target.

    FRAM accesses are costed at 3 cycles to reflect the wait states the
    real part inserts above 8 MHz plus the cache-miss penalty; SRAM is
    single-cycle.
    """
    return MemoryMap(
        [
            MemoryRegion("sram", SRAM_BASE, SRAM_SIZE, volatile=True),
            MemoryRegion(
                "fram",
                FRAM_BASE,
                FRAM_SIZE,
                volatile=False,
                read_cycles=3,
                write_cycles=3,
            ),
        ]
    )
