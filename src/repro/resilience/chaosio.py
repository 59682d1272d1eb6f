"""Host-fault injectors for artifacts: journals and snapshots.

Two kinds of damage, matching the two ways a host artifact rots:

- **At-rest damage** to a file that already exists —
  :func:`tear_file` (the torn tail of a host killed mid-write) and
  :func:`flip_bit` (a failing disk, a concurrent writer).  The
  journal-aware wrappers :func:`tear_journal` / :func:`corrupt_journal`
  aim inside the *body* so the damage exercises quarantine-and-resume
  rather than the (fatal, and separately tested) header mismatch.
- **In-flight damage** while the artifact is being produced —
  :class:`ChaosJournalWriter` makes the journal's backing file start
  refusing writes after N lines, tearing the line it dies inside
  (disk-full semantics), and :func:`chaos_capture` wraps
  :func:`repro.snapshot.capture` so every Nth snapshot rots in memory
  after its checksum is taken.

All randomness comes from ``random.Random`` instances the caller seeds
via :func:`repro.sim.rng.derive_seed` (usually through a
:class:`~repro.resilience.plan.HostFaultPlan`), so every injected fault
is replayable from the master seed.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Callable

from repro.campaign.config import CampaignConfig
from repro.campaign.journal import JournalWriter, frame_line
from repro.resilience.plan import HostFaultPlan
from repro.sim.rng import derive_seed
from repro.snapshot import DeviceSnapshot, capture


def _resolve_offset(size: int, at: int | float, lo: int = 0) -> int:
    """Turn an absolute or fractional position into a byte offset."""
    if isinstance(at, float):
        offset = lo + int((size - lo) * at)
    else:
        offset = at
    return max(lo, min(size - 1, offset)) if size else 0


def tear_file(path: str | Path, at: int | float) -> int:
    """Truncate ``path`` at ``at`` (byte offset, or fraction of size).

    Returns the offset torn at.  This is the exact on-disk signature of
    a process killed inside a buffered write: everything before the
    offset intact, everything after gone, the final line unterminated.
    """
    path = Path(path)
    size = path.stat().st_size
    offset = _resolve_offset(size, at)
    with path.open("r+b") as fh:
        fh.truncate(offset)
    return offset


def flip_bit(path: str | Path, at: int | float, bit: int = 0) -> int:
    """Flip one bit of ``path`` in place; returns the byte offset.

    ``at`` is a byte offset or a fraction of the file size; ``bit``
    selects the bit within that byte.
    """
    path = Path(path)
    size = path.stat().st_size
    if size == 0:
        raise ValueError(f"cannot flip a bit in empty file {path}")
    offset = _resolve_offset(size, at)
    with path.open("r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ (1 << (bit & 7))]))
    return offset


def _body_start(path: Path) -> int:
    """Byte offset of the first journal body line (past the header)."""
    with path.open("rb") as fh:
        header = fh.readline()
    return len(header)


def tear_journal(path: str | Path, frac: float) -> int:
    """Tear a journal within its *body* (the header stays intact).

    ``frac`` positions the tear within the body region.  A torn header
    is a different (fatal, and separately tested) failure —
    :class:`~repro.campaign.journal.JournalMismatch` — so chaos tears
    aim where quarantine-and-resume is the contract.
    """
    path = Path(path)
    lo = _body_start(path)
    size = path.stat().st_size
    if size <= lo:
        return size  # header-only journal: nothing to tear
    offset = _resolve_offset(size, frac, lo=lo + 1)
    with path.open("r+b") as fh:
        fh.truncate(offset)
    return offset


def corrupt_journal(path: str | Path, frac: float, bit: int = 0) -> int | None:
    """Flip one body bit of a journal; returns the offset (None if empty)."""
    path = Path(path)
    lo = _body_start(path)
    size = path.stat().st_size
    if size <= lo:
        return None
    offset = _resolve_offset(size, frac, lo=lo)
    return flip_bit(path, offset, bit)


class ChaosJournalWriter(JournalWriter):
    """A journal writer whose disk fills up mid-campaign.

    After ``fail_after`` successfully written lines (the header counts
    as the first), the next write tears mid-line — a prefix of the
    frame lands on disk — and raises ``OSError`` with disk-full
    semantics.  :meth:`JournalWriter.chunk_done` downgrades that to a
    :class:`~repro.campaign.errors.CampaignWarning` and the campaign
    continues in memory; a later ``--resume`` newline-terminates the
    torn debris, quarantines it, and re-executes the lost runs.
    """

    def __init__(
        self,
        path: str | Path,
        config: CampaignConfig,
        fail_after: int,
        *,
        tear_frac: float = 0.5,
        fresh: bool = True,
        fsync: bool = False,
    ) -> None:
        if fail_after < 1:
            raise ValueError("fail_after must be >= 1 (the header must land)")
        self.fail_after = fail_after
        self.tear_frac = tear_frac
        self.lines_written = 0
        super().__init__(path, config, fresh, fsync=fsync)

    @classmethod
    def from_plan(
        cls,
        path: str | Path,
        config: CampaignConfig,
        plan: HostFaultPlan,
        *,
        fresh: bool = True,
        fsync: bool = False,
    ) -> "ChaosJournalWriter | JournalWriter":
        """The plan's journal writer: chaotic iff ``journal_enospc`` drew."""
        if plan.journal_fail_after is None:
            return JournalWriter(path, config, fresh, fsync=fsync)
        return cls(
            path,
            config,
            plan.journal_fail_after,
            fresh=fresh,
            fsync=fsync,
        )

    def _write_line(self, payload: dict) -> None:
        if self.lines_written >= self.fail_after:
            frame = frame_line(payload)
            keep = max(1, int(len(frame) * self.tear_frac))
            self._file.write(frame[:keep])
            self._file.flush()
            raise OSError(28, "No space left on device (injected)")
        super()._write_line(payload)
        self.lines_written += 1


def corrupt_snapshot(snap: DeviceSnapshot, rng: random.Random) -> dict:
    """Flip one memory-page bit of a captured snapshot, in place.

    Models post-capture rot (a host memory error, a torn spill).  The
    flip lands *after* the capture-time checksum was taken, so a
    subsequent :func:`repro.snapshot.restore` must refuse with
    :class:`~repro.snapshot.SnapshotIntegrityError`.  Returns where the
    flip landed (for assertions and logs).
    """
    names = [
        name
        for name in sorted(snap.memory_pages)
        if any(len(page) for page in snap.memory_pages[name])
    ]
    if not names:
        raise ValueError("snapshot has no memory pages to corrupt")
    name = rng.choice(names)
    pages = list(snap.memory_pages[name])
    index = rng.choice([i for i, page in enumerate(pages) if len(page)])
    page = bytearray(pages[index])
    offset = rng.randrange(len(page))
    bit = rng.randrange(8)
    page[offset] ^= 1 << bit
    pages[index] = bytes(page)
    snap.memory_pages = {**snap.memory_pages, name: tuple(pages)}
    return {"region": name, "page": index, "offset": offset, "bit": bit}


def chaos_capture(
    plan: HostFaultPlan,
    base_capture: Callable = capture,
) -> Callable:
    """A drop-in for :func:`repro.snapshot.capture` that rots snapshots.

    Every ``plan.snapshot_period``-th capture is corrupted (via
    :func:`corrupt_snapshot`, seeded from the plan) after its checksum
    is taken.  With the ``snapshot_corrupt`` axis disabled this is a
    transparent pass-through.  Intended for monkeypatching the capture
    paths of the lane leader (``repro.campaign.forking``) and the warm
    device pool (``repro.snapshot``, which the runner calls through the
    module) in the chaos suite; the restore-time checksum plus the
    from-reset fallbacks must keep the campaign report byte-identical
    regardless.
    """
    rng = random.Random(derive_seed(plan.seed, "snapshot-rot"))
    state = {"captures": 0}

    def wrapped(device, tracker=None):
        snap = base_capture(device, tracker)
        state["captures"] += 1
        if (
            plan.snapshot_period
            and state["captures"] % plan.snapshot_period == 0
        ):
            corrupt_snapshot(snap, rng)
        return snap

    return wrapped
