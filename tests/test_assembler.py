"""Unit tests for the two-pass assembler."""

import pytest

from repro.mcu.assembler import AssemblyError, assemble, disassemble
from repro.mcu.isa import Mode, Op, decode


def _first_instruction(program):
    image = {program.origin + 2 * i: w for i, w in enumerate(program.words)}
    return decode(lambda a: image.get(a, 0), program.entry)[0]


class TestBasics:
    def test_single_instruction(self):
        program = assemble("mov #5, r4")
        ins = _first_instruction(program)
        assert ins.op is Op.MOV
        assert ins.src.value == 5
        assert ins.dst.reg == 4

    def test_default_origin(self):
        assert assemble("nop").origin == 0xA000

    def test_custom_origin_via_org(self):
        program = assemble("  .org 0xB000\n  nop")
        assert program.origin == 0xB000

    def test_entry_is_start_symbol(self):
        program = assemble("data: .word 7\nstart: nop")
        assert program.entry == program.symbols["start"]
        assert program.entry != program.origin

    def test_entry_defaults_to_origin(self):
        assert assemble("nop").entry == 0xA000

    def test_comments_and_blank_lines_ignored(self):
        program = assemble("; header\n\n   nop ; trailing\n")
        assert len(program.words) == 2

    def test_to_bytes_little_endian(self):
        program = assemble(".word 0x1234")
        assert program.to_bytes() == b"\x34\x12"


class TestSymbols:
    def test_label_resolves_forward(self):
        program = assemble("jmp end\nnop\nend: halt")
        ins = _first_instruction(program)
        assert ins.src.value == program.symbols["end"]

    def test_label_resolves_backward(self):
        program = assemble("loop: nop\njmp loop")
        assert "loop" in program.symbols

    def test_equ_constant(self):
        program = assemble(".equ LIMIT, 10\nmov #LIMIT, r4")
        assert _first_instruction(program).src.value == 10

    def test_duplicate_symbol_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("a: nop\na: nop")

    def test_undefined_symbol_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("jmp nowhere")

    def test_hex_and_binary_literals(self):
        program = assemble("mov #0x10, r4\nmov #0b101, r5")
        assert _first_instruction(program).src.value == 0x10

    def test_negative_immediate_wraps(self):
        program = assemble("mov #-1, r4")
        assert _first_instruction(program).src.value == 0xFFFF


class TestOperandSyntax:
    def test_absolute_with_symbol(self):
        program = assemble("v: .word 0\nstart: mov #1, &v")
        ins = _first_instruction(program)
        assert ins.dst.mode is Mode.ABS
        assert ins.dst.value == program.symbols["v"]

    def test_indexed(self):
        ins = _first_instruction(assemble("mov 4(r5), r6"))
        assert ins.src.mode is Mode.IDX
        assert ins.src.reg == 5
        assert ins.src.value == 4

    def test_indirect(self):
        ins = _first_instruction(assemble("mov @r7, r6"))
        assert ins.src.mode is Mode.IND
        assert ins.src.reg == 7

    def test_bad_register_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("mov r20, r1")

    def test_operand_count_checked(self):
        with pytest.raises(AssemblyError):
            assemble("mov r1")
        with pytest.raises(AssemblyError):
            assemble("nop r1")

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError):
            assemble("frobnicate r1")

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblyError) as excinfo:
            assemble("nop\nnop\nbogus r1")
        assert "line 3" in str(excinfo.value)

    def test_aliases(self):
        assert _first_instruction(assemble("jeq 0xA000")).op is Op.JZ
        assert _first_instruction(assemble("jne 0xA000")).op is Op.JNZ
        assert _first_instruction(assemble("br 0xA000")).op is Op.JMP


class TestDirectives:
    def test_word_reserves_and_initialises(self):
        program = assemble("a: .word 1, 2, 3\nstart: nop")
        base = program.symbols["a"]
        index = (base - program.origin) // 2
        assert program.words[index : index + 3] == (1, 2, 3)

    def test_space_reserves_zeroed_bytes(self):
        program = assemble("buf: .space 8\nstart: nop")
        assert program.symbols["start"] - program.symbols["buf"] == 8

    def test_space_must_be_even(self):
        with pytest.raises(AssemblyError):
            assemble(".space 3")

    def test_org_must_be_even(self):
        with pytest.raises(AssemblyError):
            assemble(".org 0xA001")

    def test_empty_program_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("; nothing here")

    def test_line_map_points_at_source(self):
        program = assemble("nop\nmov #1, r4")
        lines = sorted(program.line_map.values())
        assert lines == [1, 2]


class TestDisassembler:
    def test_code_only_roundtrip(self):
        source_ops = ["mov #5, r4", "add r4, r5", "push r5", "ret"]
        program = assemble("\n".join(source_ops))
        rendered = [text for _, text in disassemble(program)]
        assert rendered == source_ops

    def test_addresses_are_sequential(self):
        program = assemble("nop\nnop")
        addresses = [addr for addr, _ in disassemble(program)]
        assert addresses == [0xA000, 0xA004]
