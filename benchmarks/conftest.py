"""Shared fixtures of the pytest benches (the paper's tables and figures are
``benchmarks/paper.py``, a plain script).

Each bench writes its rows to ``benchmarks/results/`` so the artifacts
survive pytest's stdout capture — a smoke run (``REPRO_BENCH_SMOKE=1``) to
the gitignored ``benchmarks/results/smoke/``, so it never rewrites a
committed result — and registers a single ``benchmark.pedantic`` round (one
measured round each keeps the suite fast while still producing timing
data).  This file is also the parent conftest of ``benchmarks/e2e/tests``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def results_dir() -> Path:
    smoke = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
    path = RESULTS_DIR / "smoke" if smoke else RESULTS_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture
def write_result(results_dir):
    """Callable: write_result(name, text) -> path; also echoes to stdout."""

    def _write(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text)
        print(f"\n=== {name} ===\n{text}")
        return path

    return _write


def fmt_table(headers: list[str], rows: list[list]) -> str:
    """Plain-text table formatting shared by all benches."""
    cols = [len(h) for h in headers]
    str_rows = []
    for row in rows:
        srow = [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row]
        str_rows.append(srow)
        cols = [max(c, len(s)) for c, s in zip(cols, srow)]
    lines = ["  ".join(h.ljust(c) for h, c in zip(headers, cols))]
    lines.append("  ".join("-" * c for c in cols))
    for srow in str_rows:
        lines.append("  ".join(s.ljust(c) for s, c in zip(srow, cols)))
    return "\n".join(lines) + "\n"
