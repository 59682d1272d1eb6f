"""ISA-level RFID command-dispatch firmware: the fuzzing target.

A scaled-down cousin of :class:`~repro.apps.rfid_firmware.RfidFirmwareApp`
that runs on the instruction-level core instead of the high-level API:
a command loop reads one stimulus byte per iteration from an input port
(the demodulated reader frame stream) and dispatches on its top two
bits into four handlers — checksum mixing, a paired-counter update,
a small state machine, and a busy "backscatter" burn.  All persistent
state lives in FRAM words, so restart-from-entry recovery is the
program's only checkpointing — exactly the naive idiom the paper's
intermittence bugs live in.

Why this shape: the campaign fuzzer searches over *both* fault
schedules and stimulus bytes.  With the default all-zeros stimulus only
the checksum handler ever runs; discovering the paired-counter handler
(bytes ``0x40..0x7F``) — and then landing two reboots inside its
vulnerable window — requires coverage-guided input mutation, which is
what the acceptance test demonstrates.  The naive build increments the
counters in separate read-modify-write sequences with a burn window in
between (each window hit leaves ``a`` permanently one ahead); the
protected build derives both counters idempotently from a commit word
written *after* both stores, so re-execution can never drift ``a``
more than one ahead of ``b``.

Each boot is :func:`~repro.apps.isa_app.run_to_halt`, which goes through
:meth:`Cpu.step_block`, so translated-block coverage (and its
single-step fallback) drives the fuzzer's signatures.
"""

from __future__ import annotations

from repro.apps.isa_app import run_to_halt
from repro.mcu.assembler import Program, assemble
from repro.mcu.coverage import CoverageRecorder
from repro.mcu.hlapi import DeviceAPI, ProgramComplete

#: Port the firmware reads stimulus (demodulated frame) bytes from.
STIM_PORT = 0x20

#: Busy-loop passes inside the paired-counter vulnerability window.
PAIR_WINDOW = 16

_COMMON = """
; RFID dispatch core — persistent state is FRAM-resident .words.
        .org 0xA000
cnt_a:  .word 0          ; paired counters: invariant 0 <= a-b <= 1
cnt_b:  .word 0
crc:    .word 0          ; checksum/state-machine accumulator
prog:   .word 0          ; completed command count (the loop variable)
pair:   .word 0          ; protected build's commit word
start:  mov &prog, r4
        cmp #{target}, r4
        jc  done         ; r4 >= target: all commands processed
        in  #{port}, r5  ; next stimulus byte (host-side cursor)
        mov r5, r6
        and #0xC0, r6    ; dispatch on the top two bits
        cmp #0x40, r6
        jnc h_csum       ; 0x00..0x3F
        cmp #0x80, r6
        jnc h_pair       ; 0x40..0x7F
        cmp #0xC0, r6
        jnc h_state      ; 0x80..0xBF
h_burn: mov r5, r8       ; 0xC0..0xFF: backscatter burn, length from byte
        and #0x1F, r8
        inc r8
burn1:  dec r8
        jnz burn1
        jmp next
h_csum: mov &crc, r9     ; checksum mix
        add r5, r9
        swpb r9
        xor r5, r9
        mov r9, &crc
        jmp next
h_state:
        mov r5, r6       ; three-way state machine on the low bits
        and #0x07, r6
        jz  st_a
        cmp #4, r6
        jnc st_b
st_c:   mov &crc, r9
        xor r5, r9
        swpb r9
        mov r9, &crc
        jmp next
st_a:   mov &crc, r9
        inc r9
        mov r9, &crc
        jmp next
st_b:   mov &crc, r9
        add r5, r9
        shl r9
        mov r9, &crc
        jmp next
{pair_handler}
next:   mov &prog, r4
        inc r4
        mov r4, &prog
        jmp start
done:   halt
"""

#: The bug: ``a`` and ``b`` advance in separate read-modify-write
#: sequences with a burn window between them, and each loads its *own*
#: stale value — a reboot inside the window loses ``b``'s update for
#: good.  One hit is a legal transient; two hits break the invariant.
_PAIR_NAIVE = """
h_pair: mov &cnt_a, r7
        inc r7
        mov r7, &cnt_a   ; a = a + 1
        mov #{window}, r8
pw1:    dec r8           ; --- the vulnerable window ---
        jnz pw1
        mov &cnt_b, r7
        inc r7
        mov r7, &cnt_b   ; b = b + 1 (lost if a reboot hit the window)
        jmp next
"""

#: The fix: both counters are derived from the committed ``pair`` word
#: and the commit lands *after* both stores, so partial re-execution
#: rewrites the same values (idempotent) and drift never exceeds one.
_PAIR_PROTECTED = """
h_pair: mov &pair, r7
        inc r7
        mov r7, &cnt_a   ; a = pair + 1
        mov #{window}, r8
pw1:    dec r8
        jnz pw1
        mov r7, &cnt_b   ; b = pair + 1 (idempotent on re-execution)
        mov r7, &pair    ; commit point
        jmp next
"""


def build_rfid_program(protect: bool, target: int) -> Program:
    """Assemble the dispatch core for ``target`` command iterations."""
    if target < 1:
        raise ValueError(f"target must be >= 1 (got {target})")
    handler = _PAIR_PROTECTED if protect else _PAIR_NAIVE
    source = _COMMON.format(
        target=target,
        port=f"0x{STIM_PORT:02X}",
        pair_handler=handler.format(window=PAIR_WINDOW),
    )
    return assemble(source)


class RfidIsaFirmware:
    """The assembled dispatch core plus its host-side stimulus feed.

    The stimulus is a byte string fed one byte per ``IN`` through
    :data:`STIM_PORT`; the cursor wraps, so the feed never runs dry,
    and it does *not* rewind on reboot (the reader keeps transmitting
    whether or not the tag browned out — which is also what makes a
    re-executed iteration see the next frame, not the same one).

    ``stim_pos`` is a plain scalar attribute on purpose: the campaign's
    snapshot/fork machinery captures scalar program attributes, so
    forked legs resume the feed from the exact byte the prefix stopped
    at.
    """

    name = "rfid-isa-firmware"

    #: ``main`` is :func:`run_to_halt` and the host state is scalar, so
    #: calling ``main`` on a device restored between two ``step_block``
    #: calls continues that boot exactly (see the executor's
    #: ``run(mid_boot=True)``).
    mid_boot_resumable = True

    def __init__(self, protect: bool, iterations: int, stimulus: bytes) -> None:
        if not stimulus:
            raise ValueError("stimulus must be at least one byte")
        self.protect = bool(protect)
        self.iterations = int(iterations)
        self.stimulus = bytes(stimulus)
        self.stim_pos = 0
        self._program = build_rfid_program(self.protect, self.iterations)

    @property
    def symbols(self) -> dict:
        return self._program.symbols

    def _next_stimulus_byte(self) -> int:
        byte = self.stimulus[self.stim_pos % len(self.stimulus)]
        self.stim_pos += 1
        return byte

    def flash(self, api: DeviceAPI) -> None:
        """Load the image, attach coverage, and wire the stimulus port."""
        device = api.device
        cpu = device.cpu
        if cpu.coverage is None:
            cpu.coverage = CoverageRecorder()
        cpu.coverage.clear()
        device.load_program(self._program)
        cpu.ports_in[STIM_PORT] = self._next_stimulus_byte
        self.stim_pos = 0

    def main(self, api: DeviceAPI) -> None:
        """One powered boot: block-dispatch until HALT or brown-out."""
        run_to_halt(api.device.cpu)
        raise ProgramComplete(api.device.memory.read_u16(self.symbols["prog"]))
