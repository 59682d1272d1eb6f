"""The interpreting CPU core for the :mod:`repro.mcu.isa` instruction set.

The core owns the register file (volatile!) and executes instructions
out of the target's memory map.  Every instruction reports its cycle
cost to a ``spend`` callback supplied by the device; the device converts
cycles into simulated time and energy drawn from the capacitor — which
is how a power failure can interrupt the program between any two
instructions.

Two execution engines share that contract:

- :meth:`Cpu.step` — the reference single-instruction interpreter.
- :meth:`Cpu.step_block` — a QEMU-TCG-style basic-block translation
  cache.  On first execution from a PC the core decodes forward to the
  next control transfer / SR write / watch-hooked address and compiles
  the run into a tuple of pre-bound Python closures (one per
  instruction).  Steady-state execution then runs whole blocks with one
  dict lookup instead of a decode + dispatch round trip per
  instruction.  Every thunk replays the *exact* ``spend``/memory-access
  sequence of :meth:`step`, so voltage trajectories, power failures,
  and faults land on the same instruction boundaries bit-for-bit; the
  translation only removes interpreter overhead, never accounting.
"""

from __future__ import annotations

from typing import Callable

from repro.mcu.isa import (
    FLAG_C,
    FLAG_N,
    FLAG_V,
    FLAG_Z,
    JUMPS,
    DecodeError,
    Instruction,
    Mode,
    NUM_REGISTERS,
    Op,
    PC,
    SP,
    SR,
    WORD_MASK,
    decode_entry,
)
from repro.mcu.memory import MemoryFault, MemoryMap, SRAM_BASE, SRAM_SIZE


class Halted(Exception):
    """The program executed a HALT instruction."""


class CpuError(Exception):
    """An architecturally invalid operation (e.g. unknown port)."""


def _signed(value: int) -> int:
    """Interpret a 16-bit word as a signed integer."""
    return value - 0x10000 if value & 0x8000 else value


# Instructions a block must end *after* (control transfer, or an explicit
# architectural write to PC/SR through a register destination — checked
# separately) and instructions a block may never contain (host-visible
# side channels whose hooks expect plain single-stepping).
_TERMINAL_OPS = frozenset(JUMPS | {Op.CALL, Op.RET, Op.HALT})
_UNTRANSLATABLE_OPS = frozenset({Op.OUT, Op.IN, Op.MARK})
_ALU_OPS = frozenset({Op.ADD, Op.SUB, Op.CMP, Op.AND, Op.OR, Op.XOR, Op.BIT})
_UNARY_OPS = frozenset({Op.INC, Op.DEC, Op.SHL, Op.SHR, Op.SWPB, Op.INV})
# Conditional jump -> (flag bit, jump when flag *clear*).
_JUMP_FLAG = {
    Op.JZ: (FLAG_Z, False),
    Op.JNZ: (FLAG_Z, True),
    Op.JC: (FLAG_C, False),
    Op.JNC: (FLAG_C, True),
    Op.JN: (FLAG_N, False),
}
# Ops that write their destination operand (an explicit REG-mode store to
# R0/R2 is a control-flow/SR write and therefore ends a block).
_NON_WRITING_OPS = frozenset({Op.CMP, Op.BIT, Op.NOP} | JUMPS)

_BLOCK_LIMIT = 64  # instructions per block; bounds translation latency


class _Block:
    """A translated straight-line run of instructions.

    ``thunks`` execute the run one closure per instruction, each fully
    updating PC/flags/memory exactly as :meth:`Cpu.step` would.  ``lo``/
    ``hi`` bound the code bytes the block was compiled from and ``code``
    holds those bytes (``None`` if they straddle regions): the block
    stays good exactly while memory still holds them.  ``valid`` is
    false while that is unverified or known false, and
    ``worst_cycles`` bounds the cycles one pass can spend (used by the
    advisory energy guard).
    """

    __slots__ = (
        "start", "lo", "hi", "code", "thunks", "worst_cycles", "valid", "end_pc",
    )


class Cpu:
    """A 16-register interpreting core over a :class:`MemoryMap`.

    Parameters
    ----------
    memory:
        The target's address space (code lives in FRAM).
    spend:
        ``spend(cycles)`` — charge the given cycle count to the power
        system; may raise :class:`repro.mcu.device.PowerFailure`.
    """

    def __init__(
        self, memory: MemoryMap, spend: Callable[[int], None] | None = None
    ) -> None:
        self.memory = memory
        self.spend = spend or (lambda cycles: None)
        self._registers = [0] * NUM_REGISTERS
        self.ports_out: dict[int, Callable[[int], None]] = {}
        self.ports_in: dict[int, Callable[[], int]] = {}
        self.on_mark: Callable[[int], None] | None = None
        self.instructions_retired = 0
        self.halted = False
        # Optional dynamic-coverage hook: a CoverageRecorder, or None
        # (the default — the checks below then cost one attribute read).
        # When attached, reset() and every *taken* control transfer
        # record the landing PC, identically under step() and
        # step_block(), so coverage is dispatch-invariant by design.
        self.coverage = None
        # Optional boot probe: ``run_to_halt`` calls it after every
        # ``step_block`` (an instruction boundary) when set.  It is read
        # once per boot, so while it is None it costs nothing; a fork
        # session's fault-free pass sets it to keep mid-boot nodes.
        self.between_blocks: Callable[[], None] | None = None
        # Decoded-instruction cache: PC -> the shared decode-table entry
        # ``(instruction, size, cycles, worst_cycles)``.  FRAM-resident
        # code is decoded once per image instead of once per retirement.
        # Invalidation rides the map's write observers (every map-level
        # store, plus whole-region notifications from
        # ``clear_volatile``); code paths that mutate memory behind the
        # map's back must call :meth:`invalidate_decode_cache`.
        self._decode_cache: dict[int, tuple[Instruction, int, int, int]] = {}
        self._cache_lo = 0  # lowest byte address any cached encoding covers
        self._cache_hi = 0  # one past the highest (lo == hi means empty)
        # -- block translation cache ------------------------------------
        # ``block_guard(worst_cycles) -> bool`` is installed by the
        # device: it answers "is it *certainly* safe to run a block this
        # expensive?".  It is advisory — thunks replicate the exact
        # per-instruction spend sequence, so a mid-block power failure
        # still lands on the right instruction even if the guard said
        # yes — but deoptimizing near brown-out keeps the single-step
        # reference path exercised at every observation point.
        self.block_cache_enabled = True
        self.block_guard: Callable[[int], bool] | None = None
        self.blocks_translated = 0
        self.blocks_executed = 0
        self.blocks_deopts = 0
        # Blocks survive as long as their code bytes do: a store over a
        # block, or an out-of-band edit, costs a byte compare, and only
        # changed bytes force a retranslation.
        self._block_cache: dict[int, _Block] = {}
        self._block_index: dict[int, list[_Block]] = {}  # page -> blocks
        self._blk_lo = 0  # address span covered by any cached block
        self._blk_hi = 0  # (lo == hi means no cached blocks)
        self._no_block: set[int] = set()  # PCs translation refused
        self._watch_pcs: set[int] = set()
        # The write observer that keeps both caches honest is installed
        # lazily, at the first decode: before anything is decoded both
        # caches are empty, so no store can invalidate anything, and
        # workloads that drive the device purely through the high-level
        # API never pay the per-store observer call at all.
        self._observing = False

    # -- register/flag helpers ---------------------------------------------
    @property
    def registers(self) -> list[int]:
        """The register file.

        The backing list's identity is stable for the CPU's lifetime —
        translated thunks bind it directly — so assigning to this
        property replaces the *contents*, not the list.
        """
        return self._registers

    @registers.setter
    def registers(self, value) -> None:
        self._registers[:] = value

    @property
    def pc(self) -> int:
        """Program counter (R0)."""
        return self._registers[PC]

    @pc.setter
    def pc(self, value: int) -> None:
        self._registers[PC] = value & WORD_MASK

    @property
    def sp(self) -> int:
        """Stack pointer (R1)."""
        return self._registers[SP]

    @sp.setter
    def sp(self, value: int) -> None:
        self._registers[SP] = value & WORD_MASK

    def flag(self, bit: int) -> bool:
        """Read one status-register flag."""
        return bool(self._registers[SR] & bit)

    def _set_flags(self, result: int, carry: bool, overflow: bool) -> int:
        result &= WORD_MASK
        sr = 0
        if result == 0:
            sr |= FLAG_Z
        if result & 0x8000:
            sr |= FLAG_N
        if carry:
            sr |= FLAG_C
        if overflow:
            sr |= FLAG_V
        self._registers[SR] = sr
        return result

    # -- decoded-instruction cache -----------------------------------------
    def invalidate_decode_cache(self) -> None:
        """Forget every cached decode; recheck every block before it runs.

        Call after out-of-band code edits (a snapshot restore, a bit
        flip through the region layer).  Re-decoding is a lookup in the
        shared decoded-instruction table.  Translated blocks are kept
        but marked unverified: the next dispatch of each compares its
        code bytes with memory and retranslates only on a difference,
        and a block running when this is called stops at its next
        instruction.
        """
        self._decode_cache.clear()
        self._cache_lo = self._cache_hi = 0
        for block in self._block_cache.values():
            block.valid = False
        self._no_block.clear()

    def _on_memory_write(self, address: int, width: int) -> None:
        # One range overlap test per store; a hit wipes the whole decode
        # cache (self-modifying code is rare enough that precision would
        # cost more than it saves).
        if (
            self._decode_cache
            and address < self._cache_hi
            and address + width > self._cache_lo
        ):
            self._decode_cache.clear()
            self._cache_lo = self._cache_hi = 0
        # Blocks are checked precisely through the per-page index: a
        # store that misses every block's byte span cannot change block
        # semantics (thunks never consult the decode cache), and one
        # that rewrites a block's bytes with equal values keeps it.
        if (
            self._block_index
            and address < self._blk_hi
            and address + width > self._blk_lo
        ):
            end = address + width
            shift = MemoryMap.PAGE_SHIFT
            index = self._block_index
            hit = None
            for page in range(address >> shift, ((end - 1) >> shift) + 1):
                for block in index.get(page, ()):
                    if address < block.hi and end > block.lo:
                        if hit is None:
                            hit = [block]
                        elif block not in hit:
                            hit.append(block)
            if hit is not None:
                for block in hit:
                    self._recheck(block)
            if self._no_block:
                # The store may have turned an untranslatable PC into a
                # translatable one (or vice versa); re-probe lazily.
                self._no_block.clear()

    # -- block cache bookkeeping -------------------------------------------
    def _code_bytes(self, lo: int, hi: int) -> bytes | None:
        """Memory's current bytes ``[lo, hi)``, or ``None`` across regions."""
        try:
            region = self.memory.region_at(lo, hi - lo)
        except MemoryFault:
            return None
        return region.peek_bytes(lo, hi - lo)

    def _recheck(self, block: _Block) -> bool:
        """Keep ``block`` if memory still holds its code, else evict it."""
        code = block.code
        if code is not None and self._code_bytes(block.lo, block.hi) == code:
            block.valid = True
            return True
        block.valid = False
        if self._block_cache.get(block.start) is block:
            del self._block_cache[block.start]
        shift = MemoryMap.PAGE_SHIFT
        index = self._block_index
        for page in range(block.lo >> shift, ((block.hi - 1) >> shift) + 1):
            bucket = index.get(page)
            if bucket is not None and block in bucket:
                bucket.remove(block)
                if not bucket:
                    del index[page]
        return False

    def _drop_blocks(self) -> None:
        """Destroy every translated block."""
        for block in self._block_cache.values():
            block.valid = False
        self._block_cache.clear()
        self._block_index.clear()
        self._blk_lo = self._blk_hi = 0
        self._no_block.clear()

    def add_watch_pc(self, pc: int) -> None:
        """Exclude ``pc`` from block translation (breakpoint/watch hook).

        Execution reaching a watched address always goes through
        :meth:`step`, one instruction at a time, so PC-matching hooks
        observe it exactly as they would without the block cache.
        """
        self._watch_pcs.add(pc & WORD_MASK)
        self._drop_blocks()

    def remove_watch_pc(self, pc: int) -> None:
        """Re-allow block translation across ``pc``."""
        self._watch_pcs.discard(pc & WORD_MASK)
        self._drop_blocks()

    @property
    def watch_pcs(self) -> frozenset[int]:
        """Addresses currently excluded from block translation."""
        return frozenset(self._watch_pcs)

    def _install_block(self, block: _Block) -> None:
        self._block_cache[block.start] = block
        shift = MemoryMap.PAGE_SHIFT
        index = self._block_index
        for page in range(block.lo >> shift, ((block.hi - 1) >> shift) + 1):
            bucket = index.get(page)
            if bucket is None:
                index[page] = [block]
            else:
                bucket.append(block)
        if self._blk_lo == self._blk_hi:  # first live block
            self._blk_lo, self._blk_hi = block.lo, block.hi
        else:
            if block.lo < self._blk_lo:
                self._blk_lo = block.lo
            if block.hi > self._blk_hi:
                self._blk_hi = block.hi

    # -- reset / power cycle -----------------------------------------------
    def reset(self, entry: int) -> None:
        """Power-on reset: clear all registers, PC = entry, SP = top of SRAM."""
        self.registers = [0] * NUM_REGISTERS
        self.pc = entry
        self.sp = SRAM_BASE + SRAM_SIZE
        self.halted = False
        if self.coverage is not None:
            self.coverage.record(self._registers[PC])

    # -- operand resolution --------------------------------------------------
    def _operand_address(self, operand) -> int:
        if operand.mode is Mode.ABS:
            return operand.value
        if operand.mode is Mode.IDX:
            return (self._registers[operand.reg] + _signed(operand.value)) & WORD_MASK
        if operand.mode is Mode.IND:
            return self._registers[operand.reg]
        raise CpuError(f"operand {operand!r} has no address")

    def _read_operand(self, operand) -> int:
        if operand.mode is Mode.REG:
            return self._registers[operand.reg]
        if operand.mode is Mode.IMM:
            return operand.value
        address = self._operand_address(operand)
        region = self.memory.region_at(address, 2)
        self.spend(region.read_cycles)
        # Read through the region directly: the map-level accessor would
        # only repeat the region lookup (reads have no observers).
        return region.read_u16(address)

    def _write_operand(self, operand, value: int) -> None:
        if operand.mode is Mode.REG:
            self._registers[operand.reg] = value & WORD_MASK
            return
        address = self._operand_address(operand)
        region = self.memory.region_at(address, 2)
        self.spend(region.write_cycles)
        self.memory.write_u16(address, value)

    # -- stack ---------------------------------------------------------------
    #
    # Stack traffic is memory traffic: PUSH/POP/CALL/RET charge the
    # destination region's access cycles through ``spend`` exactly like
    # an equivalent MOV would, so stack-heavy code is not energy-free
    # relative to the same data movement through ``_write_operand``.
    def _push(self, value: int) -> None:
        self.sp = self.sp - 2
        address = self.sp
        region = self.memory.region_at(address, 2)
        self.spend(region.write_cycles)
        self.memory.write_u16(address, value)

    def _pop(self) -> int:
        address = self.sp
        region = self.memory.region_at(address, 2)
        self.spend(region.read_cycles)
        value = region.read_u16(address)
        self.sp = address + 2
        return value

    # -- execution -----------------------------------------------------------
    def step(self) -> Instruction:
        """Fetch, decode, and execute one instruction at the PC.

        Returns the executed instruction.  Raises :class:`Halted` on
        HALT, propagates :class:`~repro.mcu.memory.MemoryFault` on wild
        accesses and whatever ``spend`` raises on power failure.
        """
        if self.halted:
            raise Halted("CPU is halted")
        pc = self._registers[PC]
        cached = self._decode_cache.get(pc)
        if cached is None:
            cached = self._decode_at(pc)
        instruction, size, cycles, _ = cached
        self.spend(cycles)
        next_pc = (pc + size) & WORD_MASK
        self._execute(instruction, next_pc)
        self.instructions_retired += 1
        if self.coverage is not None and self._registers[PC] != next_pc:
            self.coverage.record(self._registers[PC])
        return instruction

    def _decode_at(self, pc: int) -> tuple[Instruction, int, int, int]:
        if not self._observing:
            self.memory.write_observers.append(self._on_memory_write)
            self._observing = True
        cached = decode_entry(self.memory.read_u16, pc)
        self._decode_cache[pc] = cached
        end = pc + cached[1]
        if self._cache_lo == self._cache_hi:  # first entry
            self._cache_lo, self._cache_hi = pc, end
        else:
            if pc < self._cache_lo:
                self._cache_lo = pc
            if end > self._cache_hi:
                self._cache_hi = end
        return cached

    def step_block(self, limit: int | None = None) -> int:
        """Execute one translated block (or one instruction) at the PC.

        Returns the number of instructions retired (≥ 1 unless an
        exception unwinds mid-block, in which case the partial count is
        reflected in :attr:`instructions_retired` exactly as repeated
        :meth:`step` calls would leave it).  ``limit`` caps how many
        instructions this call may retire; a block longer than the
        remaining budget deoptimizes to a single step.

        Exceptions land on the same instruction boundary single-stepping
        would produce: thunks replay the exact spend/memory sequence of
        :meth:`step`, so a power failure, memory fault, or HALT inside a
        block leaves PC, registers, retired counts, and the capacitor in
        the bit-identical state.
        """
        if self.halted:
            raise Halted("CPU is halted")
        if not self.block_cache_enabled:
            self.step()
            return 1
        pc = self._registers[PC]
        block = self._block_cache.get(pc)
        if block is None or not (block.valid or self._recheck(block)):
            if pc in self._no_block:
                self.step()
                return 1
            block = self._translate(pc)
            if block is None:
                self._no_block.add(pc)
                self.step()
                return 1
            self.blocks_translated += 1
            self._install_block(block)
        thunks = block.thunks
        guard = self.block_guard
        if (limit is not None and limit < len(thunks)) or (
            guard is not None and not guard(block.worst_cycles)
        ):
            self.blocks_deopts += 1
            self.step()
            return 1
        self.blocks_executed += 1
        retired = 0
        for thunk in thunks:
            if retired and not block.valid:
                # A store inside the block modified the block's own
                # code: stop and let the next dispatch retranslate.
                self.blocks_deopts += 1
                break
            thunk()
            self.instructions_retired += 1
            retired += 1
        if (
            self.coverage is not None
            and retired == len(thunks)
            and self._registers[PC] != block.end_pc
        ):
            # An early (invalidation) break leaves PC at the last
            # executed thunk's own fall-through — no transfer taken, so
            # nothing to record; only a completed block whose final
            # transfer landed elsewhere opens a new dynamic block.
            self.coverage.record(self._registers[PC])
        return retired

    # -- block translation ---------------------------------------------------
    def _translate(self, start: int) -> _Block | None:
        """Decode forward from ``start`` and compile a straight-line block.

        Stops *before* watch-hooked addresses, port I/O, code markers,
        and anything that fails to decode; stops *after* control
        transfers, HALT, and explicit REG-mode writes to PC or SR.
        Returns ``None`` when not even one instruction is translatable.
        """
        watch = self._watch_pcs
        decode_cache = self._decode_cache
        thunks: list[Callable[[], None]] = []
        worst = 0
        at = start
        while True:
            if at in watch:
                break
            cached = decode_cache.get(at)
            if cached is None:
                try:
                    cached = self._decode_at(at)
                except (DecodeError, MemoryFault):
                    break
            ins, size, cycles, worst_cycles = cached
            if ins.op in _UNTRANSLATABLE_OPS:
                break
            npc = (at + size) & WORD_MASK
            thunks.append(self._compile_thunk(ins, npc, cycles))
            worst += worst_cycles
            at += size
            if ins.op in _TERMINAL_OPS or self._writes_control_reg(ins):
                break
            if at != npc:  # wrapped the 16-bit address space
                break
            if len(thunks) >= _BLOCK_LIMIT:
                break
        if not thunks:
            return None
        block = _Block()
        block.start = start
        block.lo = start
        block.hi = at
        block.code = self._code_bytes(start, at)
        block.thunks = tuple(thunks)
        block.worst_cycles = worst
        block.valid = True
        # Fall-through PC after the final thunk.  Only the last
        # instruction of a block can transfer control (everything
        # earlier is non-terminal by construction), so "PC != end_pc
        # after a full block" is exactly "the last transfer was taken" —
        # the same predicate step() evaluates per instruction.
        block.end_pc = at & WORD_MASK
        return block

    @staticmethod
    def _writes_control_reg(ins: Instruction) -> bool:
        dst = ins.dst
        return (
            dst.mode is Mode.REG
            and (dst.reg == PC or dst.reg == SR)
            and ins.op not in _NON_WRITING_OPS
        )

    def _compile_thunk(
        self, ins: Instruction, npc: int, cycles: int
    ) -> Callable[[], None]:
        """One closure reproducing ``spend(cycles); _execute(ins, npc)``.

        Specialized shapes below inline the interpreter's work for the
        hot opcodes; anything else falls back to a generic thunk that
        literally calls :meth:`_execute`.  Either way the observable
        sequence (spend calls, memory traffic, register/flag updates,
        exceptions) is identical to :meth:`step` — specialization is
        pure dispatch-overhead removal.
        """
        op = ins.op
        spend = self.spend
        regs = self._registers
        if op in JUMPS and ins.src.mode is Mode.IMM:
            target = ins.src.value & WORD_MASK
            if op is Op.JMP:

                def thunk() -> None:
                    spend(cycles)
                    regs[0] = target

                return thunk
            flag, when_clear = _JUMP_FLAG[op]
            if when_clear:

                def thunk() -> None:
                    spend(cycles)
                    regs[0] = npc if regs[2] & flag else target

            else:

                def thunk() -> None:
                    spend(cycles)
                    regs[0] = target if regs[2] & flag else npc

            return thunk
        if op is Op.NOP:

            def thunk() -> None:
                spend(cycles)
                regs[0] = npc

            return thunk
        if op is Op.MOV:
            read_src = self._compile_read(ins.src)
            write_dst = self._compile_write(ins.dst)
            if read_src is not None and write_dst is not None:

                def thunk() -> None:
                    spend(cycles)
                    regs[0] = npc
                    write_dst(read_src())

                return thunk
        elif op in _ALU_OPS:
            thunk = self._compile_alu(ins, npc, cycles)
            if thunk is not None:
                return thunk
        elif op in _UNARY_OPS:
            thunk = self._compile_unary(ins, npc, cycles)
            if thunk is not None:
                return thunk
        elif op is Op.PUSH:
            read_src = self._compile_read(ins.src)
            if read_src is not None:
                region_at = self.memory.region_at
                write_u16 = self.memory.write_u16

                def thunk() -> None:
                    spend(cycles)
                    regs[0] = npc
                    value = read_src()
                    sp = (regs[1] - 2) & 0xFFFF
                    regs[1] = sp
                    region = region_at(sp, 2)
                    spend(region.write_cycles)
                    write_u16(sp, value)

                return thunk
        elif op is Op.POP:
            write_dst = self._compile_write(ins.dst)
            if write_dst is not None:
                region_at = self.memory.region_at

                def thunk() -> None:
                    spend(cycles)
                    regs[0] = npc
                    address = regs[1]
                    region = region_at(address, 2)
                    spend(region.read_cycles)
                    value = region.read_u16(address)
                    regs[1] = (address + 2) & 0xFFFF
                    write_dst(value)

                return thunk
        # Generic fallback: CALL/RET/HALT, non-immediate jump targets,
        # and any operand shape the specializers declined.
        execute = self._execute

        def thunk() -> None:
            spend(cycles)
            execute(ins, npc)

        return thunk

    def _compile_alu(self, ins, npc, cycles):
        op = ins.op
        spend = self.spend
        regs = self._registers
        read_src = self._compile_read(ins.src)
        read_dst = self._compile_read(ins.dst)
        if read_src is None or read_dst is None:
            return None
        if op in (Op.CMP, Op.BIT):
            write_dst = None
        else:
            write_dst = self._compile_write(ins.dst)
            if write_dst is None:
                return None
        # Flag bits below are the architectural encoding (C=1, Z=2, N=4,
        # V=0x100) — kept literal so each thunk avoids global lookups.
        if op is Op.ADD:

            def thunk() -> None:
                spend(cycles)
                regs[0] = npc
                src = read_src()
                dst = read_dst()
                raw = dst + src
                result = raw & 0xFFFF
                sr = 0
                if result == 0:
                    sr |= 2
                if result & 0x8000:
                    sr |= 4
                if raw > 0xFFFF:
                    sr |= 1
                if (dst ^ raw) & (src ^ raw) & 0x8000:
                    sr |= 0x100
                regs[2] = sr
                write_dst(result)

            return thunk
        if op is Op.SUB or op is Op.CMP:
            writing = op is Op.SUB

            def thunk() -> None:
                spend(cycles)
                regs[0] = npc
                src = read_src()
                dst = read_dst()
                raw = dst - src
                result = raw & 0xFFFF
                sr = 0
                if result == 0:
                    sr |= 2
                if result & 0x8000:
                    sr |= 4
                if dst >= src:
                    sr |= 1
                if (dst ^ src) & (dst ^ raw) & 0x8000:
                    sr |= 0x100
                regs[2] = sr
                if writing:
                    write_dst(result)

            return thunk
        # AND / OR / XOR / BIT: logical result, Z/N only.
        if op is Op.OR:
            combine = lambda dst, src: dst | src  # noqa: E731
        elif op is Op.XOR:
            combine = lambda dst, src: dst ^ src  # noqa: E731
        else:  # AND and BIT share the same result computation
            combine = lambda dst, src: dst & src  # noqa: E731

        def thunk() -> None:
            spend(cycles)
            regs[0] = npc
            src = read_src()
            dst = read_dst()
            result = combine(dst, src) & 0xFFFF
            sr = 0
            if result == 0:
                sr |= 2
            if result & 0x8000:
                sr |= 4
            regs[2] = sr
            if write_dst is not None:
                write_dst(result)

        return thunk

    def _compile_unary(self, ins, npc, cycles):
        op = ins.op
        spend = self.spend
        regs = self._registers
        read_dst = self._compile_read(ins.dst)
        write_dst = self._compile_write(ins.dst)
        if read_dst is None or write_dst is None:
            return None

        if op is Op.INC:

            def compute(value):
                raw = value + 1
                return raw & 0xFFFF, 1 if raw > 0xFFFF else 0

        elif op is Op.DEC:

            def compute(value):
                return (value - 1) & 0xFFFF, 1 if value >= 1 else 0

        elif op is Op.SHL:

            def compute(value):
                return (value << 1) & 0xFFFF, 1 if value & 0x8000 else 0

        elif op is Op.SHR:

            def compute(value):
                return value >> 1, 1 if value & 1 else 0

        elif op is Op.SWPB:

            def compute(value):
                return ((value & 0xFF) << 8) | (value >> 8), 0

        else:  # INV

            def compute(value):
                return ~value & 0xFFFF, 0

        def thunk() -> None:
            spend(cycles)
            regs[0] = npc
            result, carry = compute(read_dst())
            sr = carry
            if result == 0:
                sr |= 2
            if result & 0x8000:
                sr |= 4
            regs[2] = sr
            write_dst(result)

        return thunk

    def _compile_read(self, operand) -> Callable[[], int] | None:
        """An accessor replicating ``_read_operand`` for one operand."""
        mode = operand.mode
        regs = self._registers
        if mode is Mode.REG:
            reg = operand.reg
            return lambda: regs[reg]
        if mode is Mode.IMM:
            value = operand.value
            return lambda: value
        spend = self.spend
        region_at = self.memory.region_at
        if mode is Mode.ABS:
            address = operand.value
            try:
                region = region_at(address, 2)
            except MemoryFault:
                # Unmapped absolute operand: the generic thunk raises
                # the fault at execution time, same as single-stepping.
                return None
            read_cycles = region.read_cycles
            read_u16 = region.read_u16

            def read() -> int:
                spend(read_cycles)
                return read_u16(address)

            return read
        if mode is Mode.IND:
            reg = operand.reg

            def read() -> int:
                address = regs[reg]
                region = region_at(address, 2)
                spend(region.read_cycles)
                return region.read_u16(address)

            return read
        if mode is Mode.IDX:
            reg = operand.reg
            offset = _signed(operand.value)

            def read() -> int:
                address = (regs[reg] + offset) & 0xFFFF
                region = region_at(address, 2)
                spend(region.read_cycles)
                return region.read_u16(address)

            return read
        return None  # Mode.NONE — malformed; the generic path faults

    def _compile_write(self, operand) -> Callable[[int], None] | None:
        """An accessor replicating ``_write_operand`` for one operand.

        Writes go through the map-level accessor so write observers
        (decode/block invalidation, dirty tracking, commit triggers)
        fire exactly as they do when single-stepping.
        """
        mode = operand.mode
        regs = self._registers
        if mode is Mode.REG:
            reg = operand.reg

            def write(value: int) -> None:
                regs[reg] = value & 0xFFFF

            return write
        spend = self.spend
        region_at = self.memory.region_at
        write_u16 = self.memory.write_u16
        if mode is Mode.ABS:
            address = operand.value
            try:
                region = region_at(address, 2)
            except MemoryFault:
                return None
            write_cycles = region.write_cycles

            def write(value: int) -> None:
                spend(write_cycles)
                write_u16(address, value)

            return write
        if mode is Mode.IND:
            reg = operand.reg

            def write(value: int) -> None:
                address = regs[reg]
                region = region_at(address, 2)
                spend(region.write_cycles)
                write_u16(address, value)

            return write
        if mode is Mode.IDX:
            reg = operand.reg
            offset = _signed(operand.value)

            def write(value: int) -> None:
                address = (regs[reg] + offset) & 0xFFFF
                region = region_at(address, 2)
                spend(region.write_cycles)
                write_u16(address, value)

            return write
        return None  # Mode.NONE / IMM destination — the generic path faults

    def _execute(self, ins: Instruction, next_pc: int) -> None:
        op = ins.op
        if op in JUMPS:
            self.pc = self._jump_target(ins) if self._jump_taken(op) else next_pc
            return
        self.pc = next_pc
        if op is Op.NOP:
            return
        if op is Op.HALT:
            self.halted = True
            raise Halted(f"HALT at 0x{(next_pc - ins.size_bytes) & WORD_MASK:04X}")
        if op is Op.MOV:
            self._write_operand(ins.dst, self._read_operand(ins.src))
        elif op in (Op.ADD, Op.SUB, Op.CMP, Op.AND, Op.OR, Op.XOR, Op.BIT):
            self._alu(ins)
        elif op in (Op.INC, Op.DEC, Op.SHL, Op.SHR, Op.SWPB, Op.INV):
            self._unary(ins)
        elif op is Op.PUSH:
            self._push(self._read_operand(ins.src))
        elif op is Op.POP:
            self._write_operand(ins.dst, self._pop())
        elif op is Op.CALL:
            self._push(self.pc)
            self.pc = self._read_operand(ins.src)
        elif op is Op.RET:
            self.pc = self._pop()
        elif op is Op.OUT:
            port = self._read_operand(ins.dst)
            handler = self.ports_out.get(port)
            if handler is None:
                raise CpuError(f"OUT to unknown port 0x{port:04X}")
            handler(self._read_operand(ins.src))
        elif op is Op.IN:
            port = self._read_operand(ins.src)
            handler = self.ports_in.get(port)
            if handler is None:
                raise CpuError(f"IN from unknown port 0x{port:04X}")
            self._write_operand(ins.dst, handler() & WORD_MASK)
        elif op is Op.MARK:
            marker = self._read_operand(ins.src)
            if self.on_mark is not None:
                self.on_mark(marker)
        else:  # pragma: no cover - every opcode is handled above
            raise CpuError(f"unimplemented opcode {op!r}")

    def _alu(self, ins: Instruction) -> None:
        src = self._read_operand(ins.src)
        dst = self._read_operand(ins.dst)
        op = ins.op
        if op is Op.ADD:
            raw = dst + src
            overflow = ((dst ^ raw) & (src ^ raw) & 0x8000) != 0
            result = self._set_flags(raw, carry=raw > WORD_MASK, overflow=overflow)
            self._write_operand(ins.dst, result)
        elif op in (Op.SUB, Op.CMP):
            raw = dst - src
            overflow = ((dst ^ src) & (dst ^ raw) & 0x8000) != 0
            result = self._set_flags(raw, carry=dst >= src, overflow=overflow)
            if op is Op.SUB:
                self._write_operand(ins.dst, result)
        else:
            table = {
                Op.AND: dst & src,
                Op.OR: dst | src,
                Op.XOR: dst ^ src,
                Op.BIT: dst & src,
            }
            result = self._set_flags(table[op], carry=False, overflow=False)
            if op is not Op.BIT:  # BIT only sets flags
                self._write_operand(ins.dst, result)

    def _unary(self, ins: Instruction) -> None:
        value = self._read_operand(ins.dst)
        op = ins.op
        if op is Op.INC:
            raw = value + 1
            result = self._set_flags(raw, carry=raw > WORD_MASK, overflow=False)
        elif op is Op.DEC:
            raw = value - 1
            result = self._set_flags(raw, carry=value >= 1, overflow=False)
        elif op is Op.SHL:
            raw = value << 1
            result = self._set_flags(
                raw, carry=bool(value & 0x8000), overflow=False
            )
        elif op is Op.SHR:
            result = self._set_flags(
                value >> 1, carry=bool(value & 1), overflow=False
            )
        elif op is Op.SWPB:
            swapped = ((value & 0xFF) << 8) | (value >> 8)
            result = self._set_flags(swapped, carry=False, overflow=False)
        else:  # INV
            result = self._set_flags(~value, carry=False, overflow=False)
        self._write_operand(ins.dst, result)

    def _jump_taken(self, op: Op) -> bool:
        if op is Op.JMP:
            return True
        if op is Op.JZ:
            return self.flag(FLAG_Z)
        if op is Op.JNZ:
            return not self.flag(FLAG_Z)
        if op is Op.JC:
            return self.flag(FLAG_C)
        if op is Op.JNC:
            return not self.flag(FLAG_C)
        return self.flag(FLAG_N)  # JN

    def _jump_target(self, ins: Instruction) -> int:
        return self._read_operand(ins.src)
