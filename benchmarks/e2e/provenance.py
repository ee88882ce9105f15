"""Where a number came from: commit, host, library versions, backend, pins."""

from __future__ import annotations

import multiprocessing
import os
import platform
import subprocess
from pathlib import Path

from benchmarks.e2e import SCHEMA_VERSION

ROOT = Path(__file__).resolve().parents[2]
#: One compute thread per process: the main loop and the serve worker are
#: the only two runnable threads, one per core of the 2-core box.
THREAD_PINS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    """Call before numpy is imported (BLAS reads these at load time)."""
    for name in THREAD_PINS:
        os.environ[name] = "1"


#: The CPUs this process may use, read before any pinning.  Left to itself
#: the kernel wakes the serve worker on the core the main loop is running on
#: in about half the runs (the other core idle), and the step then takes
#: 20-25% more wall time than in the other half; with the main loop on the
#: first CPU and the workers on the rest, wall and CPU seconds of a step
#: agree within 1%.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin_main() -> None:
    """This process onto the first CPU (a single-CPU host is left alone)."""
    if len(CPUS) >= 2:
        os.sched_setaffinity(0, CPUS[:1])


def pin_workers() -> None:
    """Every live ``multiprocessing`` child (the serve workers, which start
    with this process's affinity) onto the CPUs the main loop is not on."""
    if len(CPUS) >= 2:
        for child in multiprocessing.active_children():
            os.sched_setaffinity(child.pid, CPUS[1:])


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None     # recorded as absent, not an error (numba today)


def provenance(seed: int) -> dict:
    from repro.accel.backends import get_backend

    backend = get_backend()
    status = _git("status", "--porcelain")
    return {
        "schema": SCHEMA_VERSION,
        "git_commit": _git("rev-parse", "HEAD"),    # None outside a git checkout
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": _version("numba"),
        "backend": backend.name,
        "numba_jitted": backend.name == "numba" or bool(getattr(backend, "jitted", False)),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "cpu_pins": {"main": CPUS[:1], "workers": CPUS[1:]} if len(CPUS) >= 2 else None,
        "seed": seed,
    }
