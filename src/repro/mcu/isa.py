"""A compact MSP430-inspired 16-bit instruction set.

The ISA exists so that the checkpointing runtime has real volatile
execution context to snapshot (a register file, a status register, and
a stack), and so that program-event monitoring has a real program
counter to watch.  It is deliberately small — 16 registers, five
addressing modes, ~25 opcodes — but fully encoded: every instruction
assembles to 2-4 little-endian 16-bit words and decodes back (the
property-based tests round-trip this).

Register conventions (MSP430-style):

- ``R0`` is the program counter (PC),
- ``R1`` is the stack pointer (SP),
- ``R2`` is the status register (SR) holding the Z/N/C/V flags,
- ``R3``-``R15`` are general purpose.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

NUM_REGISTERS = 16
PC, SP, SR = 0, 1, 2

# Status-register flag bits.
FLAG_C = 1 << 0
FLAG_Z = 1 << 1
FLAG_N = 1 << 2
FLAG_V = 1 << 8

WORD_MASK = 0xFFFF


class Op(enum.IntEnum):
    """Opcodes. Values are stable: they are part of the binary encoding."""

    NOP = 0x00
    MOV = 0x01
    ADD = 0x02
    SUB = 0x03
    CMP = 0x04
    AND = 0x05
    OR = 0x06
    XOR = 0x07
    PUSH = 0x10
    POP = 0x11
    CALL = 0x12
    RET = 0x13
    INC = 0x14
    DEC = 0x15
    SHL = 0x16  # logical shift left one bit (MSB -> carry)
    SHR = 0x17  # logical shift right one bit (LSB -> carry)
    SWPB = 0x18  # swap bytes
    INV = 0x19  # one's complement
    BIT = 0x1A  # AND setting flags only (like CMP for AND)
    JMP = 0x20
    JZ = 0x21
    JNZ = 0x22
    JC = 0x23
    JNC = 0x24
    JN = 0x25
    HALT = 0x30
    OUT = 0x31  # write src to a peripheral port
    IN = 0x32  # read a peripheral port into dst
    MARK = 0x33  # EDB watchpoint marker (code-marker GPIO pulse)


class Mode(enum.IntEnum):
    """Operand addressing modes."""

    NONE = 0x0  # operand absent
    REG = 0x1  # Rn
    IMM = 0x2  # #value          (extension word)
    ABS = 0x3  # &address        (extension word)
    IDX = 0x4  # offset(Rn)      (extension word)
    IND = 0x5  # @Rn


# Opcode -> (has_src, has_dst).  CMP/OUT treat "dst" as a second source.
OPERAND_SHAPE: dict[Op, tuple[bool, bool]] = {
    Op.NOP: (False, False),
    Op.MOV: (True, True),
    Op.ADD: (True, True),
    Op.SUB: (True, True),
    Op.CMP: (True, True),
    Op.AND: (True, True),
    Op.OR: (True, True),
    Op.XOR: (True, True),
    Op.PUSH: (True, False),
    Op.POP: (False, True),
    Op.CALL: (True, False),
    Op.RET: (False, False),
    Op.INC: (False, True),
    Op.DEC: (False, True),
    Op.SHL: (False, True),
    Op.SHR: (False, True),
    Op.SWPB: (False, True),
    Op.INV: (False, True),
    Op.BIT: (True, True),
    Op.JMP: (True, False),
    Op.JZ: (True, False),
    Op.JNZ: (True, False),
    Op.JC: (True, False),
    Op.JNC: (True, False),
    Op.JN: (True, False),
    Op.HALT: (False, False),
    Op.OUT: (True, True),  # OUT value, #port
    Op.IN: (True, True),  # IN #port, dst
    Op.MARK: (True, False),
}

JUMPS = {Op.JMP, Op.JZ, Op.JNZ, Op.JC, Op.JNC, Op.JN}

# Modes that carry an extension word in the encoding.
_EXTENDED_MODES = {Mode.IMM, Mode.ABS, Mode.IDX}


@dataclass(frozen=True)
class Operand:
    """One operand: an addressing mode plus its register and/or value."""

    mode: Mode
    reg: int = 0
    value: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.reg < NUM_REGISTERS:
            raise ValueError(f"register out of range: r{self.reg}")
        if self.mode in (Mode.NONE, Mode.REG, Mode.IND) and self.value:
            raise ValueError(f"mode {self.mode.name} takes no value")

    @property
    def needs_extension(self) -> bool:
        """Whether the operand occupies an extension word when encoded."""
        return self.mode in _EXTENDED_MODES

    def render(self) -> str:
        """Assembly-syntax rendering of the operand."""
        if self.mode is Mode.NONE:
            return ""
        if self.mode is Mode.REG:
            return f"r{self.reg}"
        if self.mode is Mode.IMM:
            return f"#{self.value}"
        if self.mode is Mode.ABS:
            return f"&0x{self.value & WORD_MASK:04X}"
        if self.mode is Mode.IDX:
            return f"{self.value}(r{self.reg})"
        return f"@r{self.reg}"


NO_OPERAND = Operand(Mode.NONE)


def reg(n: int) -> Operand:
    """Register-direct operand ``Rn``."""
    return Operand(Mode.REG, reg=n)


def imm(value: int) -> Operand:
    """Immediate operand ``#value``."""
    return Operand(Mode.IMM, value=value & WORD_MASK)


def absolute(address: int) -> Operand:
    """Absolute-address operand ``&address``."""
    return Operand(Mode.ABS, value=address & WORD_MASK)


def indexed(offset: int, base_reg: int) -> Operand:
    """Indexed operand ``offset(Rn)``."""
    return Operand(Mode.IDX, reg=base_reg, value=offset & WORD_MASK)


def indirect(base_reg: int) -> Operand:
    """Register-indirect operand ``@Rn``."""
    return Operand(Mode.IND, reg=base_reg)


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction: opcode plus source and destination operands."""

    op: Op
    src: Operand = NO_OPERAND
    dst: Operand = NO_OPERAND

    def __post_init__(self) -> None:
        has_src, has_dst = OPERAND_SHAPE[self.op]
        if has_src != (self.src.mode is not Mode.NONE):
            raise ValueError(f"{self.op.name}: bad source operand shape")
        if has_dst != (self.dst.mode is not Mode.NONE):
            raise ValueError(f"{self.op.name}: bad destination operand shape")
        if has_dst and self.dst.mode is Mode.IMM and self.op is not Op.OUT:
            raise ValueError(f"{self.op.name}: destination cannot be immediate")

    # -- encoding ---------------------------------------------------------
    def encode(self) -> list[int]:
        """Encode to little-endian 16-bit words.

        Layout: ``word0 = opcode<<8 | src_mode<<4 | dst_mode``,
        ``word1 = src_reg<<8 | dst_reg``, then one extension word per
        extended operand (src first).
        """
        words = [
            ((int(self.op) & 0xFF) << 8)
            | ((int(self.src.mode) & 0xF) << 4)
            | (int(self.dst.mode) & 0xF),
            ((self.src.reg & 0xFF) << 8) | (self.dst.reg & 0xFF),
        ]
        if self.src.needs_extension:
            words.append(self.src.value & WORD_MASK)
        if self.dst.needs_extension:
            words.append(self.dst.value & WORD_MASK)
        return words

    @property
    def size_words(self) -> int:
        """Encoded size in 16-bit words."""
        return (
            2
            + (1 if self.src.needs_extension else 0)
            + (1 if self.dst.needs_extension else 0)
        )

    @property
    def size_bytes(self) -> int:
        """Encoded size in bytes."""
        return 2 * self.size_words

    def cycles(self) -> int:
        """Base cycle cost (operand memory-access costs are added by the CPU).

        1 cycle to execute, +1 per extension word fetched, +1 per
        memory-touching operand, +2 for stack-manipulating ops.
        """
        cost = 1
        for operand in (self.src, self.dst):
            if operand.needs_extension:
                cost += 1
            if operand.mode in (Mode.ABS, Mode.IDX, Mode.IND):
                cost += 1
        if self.op in (Op.PUSH, Op.POP, Op.CALL, Op.RET):
            cost += 2
        return cost

    def render(self) -> str:
        """Assembly-syntax rendering of the instruction."""
        parts = [o.render() for o in (self.src, self.dst) if o.mode is not Mode.NONE]
        if not parts:
            return self.op.name.lower()
        return f"{self.op.name.lower()} {', '.join(parts)}"


class DecodeError(Exception):
    """The word stream is not a valid instruction encoding."""


#: Opcode and addressing-mode field values that name a real encoding.
_OPCODES = frozenset(int(op) for op in Op)
_MODES = frozenset(int(mode) for mode in Mode)

# The process-wide decoded-instruction table.  ``decode`` is a pure
# function of an instruction's code words, so every CPU in the process
# shares one decoded form per encoding, keyed by content:
# ``(word0, word1, src_ext, dst_ext)``, where an absent extension word
# reads 0 (``word0`` says which ones exist, so the key is unambiguous).
# A content key cannot go stale: rewritten code is a different key.
# Only encodings that passed every validity check are stored, so a bad
# one raises afresh, naming its own address, on every decode.
_DECODED_LIMIT = 4096
_decoded: dict[tuple[int, int, int, int], tuple[Instruction, int, int, int]] = {}


def decode_entry(fetch, address: int) -> tuple[Instruction, int, int, int]:
    """Decode one instruction through the shared decoded-instruction table.

    Every word is fetched, in address order and after the checks on the
    words before it, whether or not the table already holds the
    encoding: ``fetch`` side effects and :class:`DecodeError` texts do
    not depend on what earlier decodes left in the table.  Returns
    ``(instruction, size_bytes, cycles, worst_cycles)``, the last two
    being ``instruction.cycles()`` and :func:`worst_case_cycles`.
    """
    word0 = fetch(address)
    opcode = (word0 >> 8) & 0xFF
    if opcode not in _OPCODES:
        raise DecodeError(f"invalid opcode 0x{opcode:02X} at 0x{address:04X}")
    src_mode = (word0 >> 4) & 0xF
    dst_mode = word0 & 0xF
    if src_mode not in _MODES or dst_mode not in _MODES:
        raise DecodeError(
            f"invalid addressing mode in word 0x{word0:04X} at 0x{address:04X}"
        )
    word1 = fetch(address + 2)
    src_reg = (word1 >> 8) & 0xFF
    dst_reg = word1 & 0xFF
    if src_reg >= NUM_REGISTERS or dst_reg >= NUM_REGISTERS:
        raise DecodeError(f"register number out of range at 0x{address:04X}")
    offset = address + 4
    src_value = dst_value = 0
    if src_mode in _EXTENDED_MODES:
        src_value = fetch(offset)
        offset += 2
    if dst_mode in _EXTENDED_MODES:
        dst_value = fetch(offset)
        offset += 2
    key = (word0, word1, src_value, dst_value)
    entry = _decoded.get(key)
    if entry is not None:
        return entry
    try:
        instruction = Instruction(
            op=Op(opcode),
            src=Operand(Mode(src_mode), reg=src_reg, value=src_value),
            dst=Operand(Mode(dst_mode), reg=dst_reg, value=dst_value),
        )
    except ValueError as exc:
        raise DecodeError(f"malformed instruction at 0x{address:04X}: {exc}") from exc
    entry = (
        instruction,
        offset - address,
        instruction.cycles(),
        worst_case_cycles(instruction),
    )
    if len(_decoded) >= _DECODED_LIMIT:
        _decoded.clear()
    _decoded[key] = entry
    return entry


def decode(fetch, address: int) -> tuple[Instruction, int]:
    """Decode one instruction.

    Parameters
    ----------
    fetch:
        Callable ``fetch(address) -> int`` returning the 16-bit word at
        a byte address.
    address:
        Byte address of the instruction's first word.

    Returns
    -------
    ``(instruction, size_bytes)``.
    """
    instruction, size, _, _ = decode_entry(fetch, address)
    return instruction, size


# -- worst-case cycle bounds -------------------------------------------------
#
# Memory regions charge at most this many cycles per 16-bit access (FRAM
# read/write cost 3, SRAM 1).  Only worst-case reasoning uses it — exact
# accounting always asks the touched region.
_MAX_ACCESS_CYCLES = 3

_RMW_OPS = frozenset(
    {
        Op.ADD,
        Op.SUB,
        Op.AND,
        Op.OR,
        Op.XOR,
        Op.INC,
        Op.DEC,
        Op.SHL,
        Op.SHR,
        Op.SWPB,
        Op.INV,
    }
)
_MEM_MODES = frozenset({Mode.ABS, Mode.IDX, Mode.IND})
_STACK_OPS = frozenset({Op.PUSH, Op.POP, Op.CALL, Op.RET})


def worst_case_cycles(ins: Instruction) -> int:
    """Upper bound on the cycles one execution of ``ins`` can spend.

    ``Instruction.cycles()`` is the base cost the CPU charges up front;
    memory-mode operands and stack traffic additionally charge the
    touched region's access cycles at execution time.  This bounds the
    total assuming every access hits the slowest region.  The bound
    feeds the block translation cache's energy guard, which is advisory
    only — an over-estimate merely costs a harmless deoptimization.
    """
    accesses = 0
    if ins.src.mode in _MEM_MODES:
        accesses += 1
    if ins.dst.mode in _MEM_MODES:
        # Read-modify-write destinations pay a read and a write.
        accesses += 2 if ins.op in _RMW_OPS else 1
    if ins.op in _STACK_OPS:
        accesses += 1
    return ins.cycles() + _MAX_ACCESS_CYCLES * accesses
