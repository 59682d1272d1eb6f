"""A two-pass assembler for the :mod:`repro.mcu.isa` instruction set.

Syntax (MSP430-flavoured)::

    ; comments run to end of line
            .org 0xA000          ; set location counter
    count:  .word 0              ; reserve/initialise a data word
            .equ LIMIT, 10       ; symbolic constant

    start:  mov #0, r4
    loop:   add #1, r4
            mark #1              ; EDB watchpoint marker
            cmp #LIMIT, r4
            jnz loop
            mov r4, &count
            halt

Operands: ``rN`` (register), ``#expr`` (immediate), ``&expr``
(absolute), ``expr(rN)`` (indexed), ``@rN`` (indirect).  Expressions are
integers (decimal, ``0x`` hex, ``0b`` binary), labels, or ``.equ``
constants.

:func:`assemble` returns a :class:`Program` with the encoded words, the
origin, the symbol table, and a map from byte address to source line —
which the debugger uses to print where a breakpoint hit.  Assembly is a
pure function of the source text, so :func:`assemble` memoises it and
every caller of the same source shares one read-only image.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.mcu.isa import (
    Instruction,
    Mode,
    NUM_REGISTERS,
    Op,
    OPERAND_SHAPE,
    Operand,
    WORD_MASK,
    decode,
)


class AssemblyError(Exception):
    """A syntax or semantic error in assembly source."""

    def __init__(self, message: str, line_no: int | None = None) -> None:
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)
        self.line_no = line_no


@dataclass(frozen=True)
class Program:
    """An assembled program image.

    Immutable, because :func:`assemble` hands the same image to every
    caller of the same source: ``words`` is a tuple and the two tables
    are read-only mappings.
    """

    origin: int
    words: tuple[int, ...]
    symbols: Mapping[str, int]
    line_map: Mapping[int, int]  # byte addr -> line no

    @property
    def size_bytes(self) -> int:
        """Image size in bytes."""
        return 2 * len(self.words)

    @property
    def entry(self) -> int:
        """Entry point: the ``start`` symbol if defined, else the origin."""
        return self.symbols.get("start", self.origin)

    def to_bytes(self) -> bytes:
        """Little-endian byte image suitable for loading into memory."""
        return self._image

    @functools.cached_property
    def _image(self) -> bytes:
        # Encoded once per image: a memoised program is flashed by
        # every leg that runs it.
        out = bytearray()
        for word in self.words:
            out.append(word & 0xFF)
            out.append((word >> 8) & 0xFF)
        return bytes(out)


_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_REG_RE = re.compile(r"^[rR](\d{1,2})$")
_IDX_RE = re.compile(r"^(.+)\(\s*[rR](\d{1,2})\s*\)$")

_ALIASES = {"jeq": Op.JZ, "jne": Op.JNZ, "br": Op.JMP}


def _parse_int(text: str) -> int | None:
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:].strip()
    try:
        if text.lower().startswith("0x"):
            return sign * int(text, 16)
        if text.lower().startswith("0b"):
            return sign * int(text, 2)
        return sign * int(text, 10)
    except ValueError:
        return None


@dataclass
class _Line:
    no: int
    label: str | None
    mnemonic: str | None
    operands: list[str]


def _tokenise(source: str) -> list[_Line]:
    lines: list[_Line] = []
    for no, raw in enumerate(source.splitlines(), start=1):
        text = raw.split(";", 1)[0].rstrip()
        if not text.strip():
            continue
        label = None
        body = text.strip()
        if ":" in body.split()[0]:
            label_part, body = body.split(":", 1)
            label = label_part.strip()
            if not _LABEL_RE.match(label):
                raise AssemblyError(f"bad label {label!r}", no)
            body = body.strip()
        if not body:
            lines.append(_Line(no, label, None, []))
            continue
        parts = body.split(None, 1)
        mnemonic = parts[0].lower()
        operands = (
            [p.strip() for p in parts[1].split(",")] if len(parts) > 1 else []
        )
        lines.append(_Line(no, label, mnemonic, operands))
    return lines


class _Assembler:
    def __init__(self, source: str, origin: int) -> None:
        self.lines = _tokenise(source)
        self.origin = origin
        self.symbols: dict[str, int] = {}

    # -- pass 1: lay out addresses, collect symbols -------------------------
    def _operand_size(self, text: str) -> int:
        """Extension words contributed by one operand (pass-1 estimate)."""
        text = text.strip()
        if _REG_RE.match(text) or text.startswith("@"):
            return 0
        return 1  # immediate, absolute, or indexed

    def _layout(self) -> None:
        lc = self.origin
        self.addresses: dict[int, int] = {}  # line index -> byte address
        for index, line in enumerate(self.lines):
            if line.mnemonic == ".equ":
                if len(line.operands) != 2:
                    raise AssemblyError(".equ needs NAME, VALUE", line.no)
                name = line.operands[0]
                value = _parse_int(line.operands[1])
                if not _LABEL_RE.match(name) or value is None:
                    raise AssemblyError("bad .equ directive", line.no)
                self._define(name, value & WORD_MASK, line.no)
                continue
            if line.mnemonic == ".org":
                if len(line.operands) != 1:
                    raise AssemblyError(".org needs one address", line.no)
                value = _parse_int(line.operands[0])
                if value is None or value % 2:
                    raise AssemblyError("bad .org address", line.no)
                lc = value
            if line.label:
                self._define(line.label, lc, line.no)
            if line.mnemonic is None or line.mnemonic == ".org":
                self.addresses[index] = lc
                continue
            self.addresses[index] = lc
            if line.mnemonic == ".word":
                lc += 2 * max(1, len(line.operands))
            elif line.mnemonic == ".space":
                count = _parse_int(line.operands[0]) if line.operands else None
                if count is None or count < 0 or count % 2:
                    raise AssemblyError(".space needs an even byte count", line.no)
                lc += count
            else:
                lc += self._instruction_size(line)

    def _define(self, name: str, value: int, line_no: int) -> None:
        if name in self.symbols:
            raise AssemblyError(f"symbol {name!r} redefined", line_no)
        self.symbols[name] = value

    def _instruction_size(self, line: _Line) -> int:
        op = self._opcode(line)
        has_src, has_dst = OPERAND_SHAPE[op]
        expected = int(has_src) + int(has_dst)
        if len(line.operands) != expected:
            raise AssemblyError(
                f"{op.name.lower()} expects {expected} operand(s), "
                f"got {len(line.operands)}",
                line.no,
            )
        extensions = sum(self._operand_size(text) for text in line.operands)
        return 2 * (2 + extensions)

    def _opcode(self, line: _Line) -> Op:
        assert line.mnemonic is not None
        if line.mnemonic in _ALIASES:
            return _ALIASES[line.mnemonic]
        try:
            return Op[line.mnemonic.upper()]
        except KeyError:
            raise AssemblyError(f"unknown mnemonic {line.mnemonic!r}", line.no) from None

    # -- pass 2: encode -------------------------------------------------------
    def _eval(self, text: str, line_no: int) -> int:
        value = _parse_int(text)
        if value is not None:
            return value & WORD_MASK
        if text in self.symbols:
            return self.symbols[text]
        raise AssemblyError(f"undefined symbol {text!r}", line_no)

    def _parse_operand(self, text: str, line_no: int) -> Operand:
        text = text.strip()
        match = _REG_RE.match(text)
        if match:
            n = int(match.group(1))
            if n >= NUM_REGISTERS:
                raise AssemblyError(f"no such register r{n}", line_no)
            return Operand(Mode.REG, reg=n)
        if text.startswith("#"):
            return Operand(Mode.IMM, value=self._eval(text[1:], line_no))
        if text.startswith("&"):
            return Operand(Mode.ABS, value=self._eval(text[1:], line_no))
        if text.startswith("@"):
            match = _REG_RE.match(text[1:])
            if not match:
                raise AssemblyError(f"bad indirect operand {text!r}", line_no)
            n = int(match.group(1))
            if n >= NUM_REGISTERS:
                raise AssemblyError(f"no such register r{n}", line_no)
            return Operand(Mode.IND, reg=n)
        match = _IDX_RE.match(text)
        if match:
            n = int(match.group(2))
            if n >= NUM_REGISTERS:
                raise AssemblyError(f"no such register r{n}", line_no)
            return Operand(
                Mode.IDX, reg=n, value=self._eval(match.group(1), line_no)
            )
        # A bare symbol/number is a jump/call convenience: immediate.
        return Operand(Mode.IMM, value=self._eval(text, line_no))

    def assemble(self) -> Program:
        self._layout()
        # The image spans from the lowest to the highest laid-out address.
        words: dict[int, int] = {}
        line_map: dict[int, int] = {}
        for index, line in enumerate(self.lines):
            if line.mnemonic in (None, ".equ", ".org"):
                continue
            address = self.addresses[index]
            if line.mnemonic == ".word":
                values = line.operands or ["0"]
                for text in values:
                    words[address] = self._eval(text, line.no)
                    address += 2
                continue
            if line.mnemonic == ".space":
                count = _parse_int(line.operands[0])
                assert count is not None
                for offset in range(0, count, 2):
                    words[address + offset] = 0
                continue
            op = self._opcode(line)
            has_src, has_dst = OPERAND_SHAPE[op]
            operands = [self._parse_operand(t, line.no) for t in line.operands]
            src = operands[0] if has_src else Operand(Mode.NONE)
            dst = operands[-1] if has_dst and operands else Operand(Mode.NONE)
            if has_dst and not has_src:
                dst = operands[0]
                src = Operand(Mode.NONE)
            try:
                instruction = Instruction(op=op, src=src, dst=dst)
            except ValueError as exc:
                raise AssemblyError(str(exc), line.no) from exc
            line_map[address] = line.no
            for word in instruction.encode():
                words[address] = word
                address += 2
        if not words:
            raise AssemblyError("program is empty")
        base = min(words)
        top = max(words) + 2
        image = tuple(words.get(addr, 0) for addr in range(base, top, 2))
        return Program(
            origin=base,
            words=image,
            symbols=MappingProxyType(dict(self.symbols)),
            line_map=MappingProxyType(line_map),
        )


def assemble(source: str, origin: int = 0xA000) -> Program:
    """Assemble MSP430-flavoured source text into a :class:`Program`.

    Memoised on ``(source, origin)``: repeated calls return the same
    immutable image.  A failed assembly is never cached, so bad source
    raises :class:`AssemblyError` on every call.
    """
    return _assemble_image(source, origin)


@functools.lru_cache(maxsize=64)
def _assemble_image(source: str, origin: int) -> Program:
    return _Assembler(source, origin).assemble()


def disassemble(
    program: Program, start: int | None = None
) -> list[tuple[int, str]]:
    """Best-effort linear disassembly: ``[(address, text), ...]``.

    Decoding begins at ``start`` (default: the program entry point, so
    data words placed before the code are skipped).  Data words
    interleaved *within* code will decode as garbage or raise; callers
    that mix them should slice by symbols first.
    """
    image = {program.origin + 2 * i: w for i, w in enumerate(program.words)}

    def fetch(address: int) -> int:
        return image.get(address, 0)

    out: list[tuple[int, str]] = []
    address = start if start is not None else program.entry
    end = program.origin + program.size_bytes
    while address < end:
        instruction, size = decode(fetch, address)
        out.append((address, instruction.render()))
        address += size
    return out
