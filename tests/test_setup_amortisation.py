"""Per-run setup is paid once per process, and only host work changes.

Two memos make a fuzz campaign's per-run ISA setup a one-time cost:

- :func:`repro.mcu.assembler.assemble` memoises on its source text and
  hands every caller the same immutable :class:`Program`;
- :func:`repro.mcu.isa.decode_entry` shares decoded instructions across
  every CPU in the process, keyed by the instruction's code words.

Both are keyed by content, so neither can go stale.  These tests pin
that: a rewritten instruction is decoded afresh under both dispatch
tiers, failures are never cached, instrumentation counters and fault
messages are the same cold or warm, the decode table stays bounded, and
a campaign's report bytes do not depend on whether the memos were warm.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.campaign.config import CampaignConfig
from repro.campaign.report import render_json
from repro.campaign.scheduler import run_campaign
from repro.mcu import assembler, isa
from repro.mcu.assembler import AssemblyError, assemble
from repro.mcu.cpu import Cpu, Halted
from repro.mcu.isa import DecodeError, decode
from repro.mcu.memory import make_msp430_memory_map

#: A small rfid_firmware fuzz campaign (the guided search at work).
FUZZ_KW = dict(
    app="rfid_firmware", runs=12, seed=5, iterations=8, duration=0.8,
    workers=1, max_ops=120, mode="fuzz", fuzz_rounds=4, shrink_limit=2,
)

#: Rewrites its own ``patch`` immediate (word 2 of the instruction)
#: from 1 to 2 after the first pass: r5 must read 2 on the second pass.
SELF_MODIFYING = """
start:  mov #patch, r6
        mov #0, r7
patch:  mov #1, r5
        add r5, r7
        mov #2, 4(r6)
        cmp #3, r7
        jnz patch
        halt
"""


@pytest.fixture
def cold_memos():
    """Empty both process-wide memos before the test."""
    assembler._assemble_image.cache_clear()
    isa._decoded.clear()


def _run(program, dispatch: str, max_steps: int = 1000) -> Cpu:
    memory = make_msp430_memory_map()
    memory.write_bytes(program.origin, program.to_bytes())
    cpu = Cpu(memory)
    cpu.reset(program.entry)
    advance = cpu.step if dispatch == "step" else cpu.step_block
    with pytest.raises(Halted):
        for _ in range(max_steps):
            advance()
    return cpu


class TestAssemblerMemo:
    def test_same_source_returns_the_same_frozen_image(self):
        program = assemble("start: mov #1, r4\nhalt")
        assert assemble("start: mov #1, r4\nhalt") is program
        assert isinstance(program.words, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.words = (0,)
        with pytest.raises(TypeError):
            program.symbols["start"] = 0
        with pytest.raises(TypeError):
            program.line_map[program.origin] = 0

    def test_bad_source_raises_on_every_call(self, cold_memos):
        for _ in range(3):
            with pytest.raises(AssemblyError, match="undefined symbol"):
                assemble("jmp nowhere")
        assert assembler._assemble_image.cache_info().currsize == 0

    def test_fuzz_campaign_assembles_each_source_once(self, cold_memos, monkeypatch):
        sources = collections.Counter()
        init = assembler._Assembler.__init__

        def counting_init(self, source, origin):
            sources[source] += 1
            init(self, source, origin)

        monkeypatch.setattr(assembler._Assembler, "__init__", counting_init)
        run_campaign(CampaignConfig(**FUZZ_KW))
        assert sources
        assert max(sources.values()) == 1


class TestDecodeTable:
    @pytest.mark.parametrize("dispatch", ["step", "step_block"])
    def test_self_modifying_store_is_decoded_afresh(self, dispatch):
        program = assemble(SELF_MODIFYING)
        # The first CPU warms the table with both encodings of ``patch``;
        # the second must still see the rewrite on its own memory.
        for _ in range(2):
            cpu = _run(program, dispatch)
            assert cpu.registers[5] == 2
            assert cpu.registers[7] == 3

    def test_decode_error_names_the_faulting_address(self, cold_memos):
        image = {0x10: 0xFF00, 0x20: 0xFF00, 0x30: 0x0000, 0x32: 0x1000}

        def fetch(address):
            return image.get(address, 0)

        for address in (0x10, 0x20):
            with pytest.raises(DecodeError, match=f"at 0x{address:04X}"):
                decode(fetch, address)
        # NOP with a register source: valid fields, malformed shape.
        image.update({0x40: 0x0010, 0x42: 0})
        for address in (0x30, 0x40):
            with pytest.raises(DecodeError, match=f"at 0x{address:04X}"):
                decode(fetch, address)
        assert not isa._decoded

    @pytest.mark.parametrize("dispatch", ["step", "step_block"])
    def test_read_counters_equal_cold_and_warm(self, dispatch, cold_memos):
        program = assemble(SELF_MODIFYING)

        def reads(cpu):
            return {region.name: region.reads for region in cpu.memory.regions}

        cold = reads(_run(program, dispatch))
        assert isa._decoded
        assert reads(_run(program, dispatch)) == cold

    def test_table_stays_within_its_bound(self, cold_memos):
        for value in range(isa._DECODED_LIMIT + 100):
            words = {0: 0x0121, 2: 0x0004, 4: value}
            decode(words.__getitem__, 0)
            assert len(isa._decoded) <= isa._DECODED_LIMIT


def test_report_bytes_equal_cold_process_and_warm_process():
    config = CampaignConfig(**FUZZ_KW)
    warm = [render_json(run_campaign(config)) for _ in range(2)]
    assert warm[0] == warm[1]
    src = str(Path(repro.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from repro.campaign.config import CampaignConfig\n"
        "from repro.campaign.report import render_json\n"
        "from repro.campaign.scheduler import run_campaign\n"
        f"sys.stdout.write(render_json(run_campaign(CampaignConfig(**{FUZZ_KW!r}))))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    cold = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    ).stdout
    assert cold == warm[0]
