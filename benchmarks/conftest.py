"""Benchmark-suite helpers.

Every benchmark regenerates one of the paper's tables or figures from a
fresh simulation, asserts the qualitative *shape* the paper reports
(who wins, by roughly what factor, where the crossover falls), and
emits the same rows/series the paper prints.

Output goes both to stdout and to ``benchmarks/out/<name>.txt`` so the
rendered tables survive pytest's output capturing.
"""

from __future__ import annotations

import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


class _RunOnce:
    """The ``benchmark.pedantic`` call shape, without timing: one call."""

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))


@pytest.fixture
def benchmark() -> _RunOnce:
    """Runs each figure's workload exactly once (no plugin needed)."""
    return _RunOnce()


def report(name: str, lines: list[str]) -> str:
    """Print a rendered table/series and persist it under out/."""
    text = "\n".join(lines)
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    return text


def fmt_row(columns: list[object], widths: list[int]) -> str:
    """Fixed-width table row."""
    cells = []
    for value, width in zip(columns, widths):
        text = f"{value:.3f}" if isinstance(value, float) else str(value)
        cells.append(text.rjust(width))
    return "  ".join(cells)
