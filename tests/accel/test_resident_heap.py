"""The resident heap: ``ForceEngine`` fixes glibc's trim and mmap thresholds
once per process, so a step's transients stop being faulted in every pass."""

import logging
import os
import platform
import subprocess
import sys
import types

import pytest

from repro.accel import ForceEngine, engine as engine_module
from repro.core.integrator import IntegratorConfig

_GLIBC = platform.libc_ver()[0] == "glibc"

#: Three fresh density + hydro passes (each after a drift signal, so each
#: builds its grid and candidate list again) on a gas disk of 2,016 gas;
#: prints the minor page faults of the third.  At glibc's dynamic
#: thresholds that pass took ~2,600 faults (glibc 2.36, x86-64); at fixed
#: ones, none.
_FAULT_PROBE = """
import resource
from repro.accel import ForceEngine
from repro.core.integrator import IntegratorConfig
from repro.ic.galaxy import MW_SPEC, make_mw_model

ps = make_mw_model(2100, seed=1, spec=MW_SPEC.scaled(0.01), count_fractions=(0.02, 0.02, 0.96))
engine = ForceEngine(IntegratorConfig(self_gravity=False))
for _ in range(3):
    engine.notify_positions_changed()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    engine.hydro(ps, "1st")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""


@pytest.mark.skipif(not _GLIBC, reason="the thresholds are glibc's")
def test_a_warm_sph_pass_takes_no_page_faults():
    """In a fresh process, the third SPH pass on a gas disk reuses the heap
    the first two grew: under 100 minor faults, not thousands."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    out = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert int(out.stdout) < 100


def _libc(mallopt):
    """A stand-in C library whose ``mallopt`` is ``mallopt``."""
    return lambda name: types.SimpleNamespace(mallopt=mallopt)


@pytest.mark.skipif(not _GLIBC, reason="the thresholds are glibc's")
def test_the_thresholds_are_fixed_once_per_process(monkeypatch):
    """Every engine construction asks, the first call decides: ``mallopt``
    runs once for each threshold."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(engine_module, "_heap_fixed", None)
    monkeypatch.setattr(engine_module.ctypes, "CDLL", _libc(mallopt))
    ForceEngine(IntegratorConfig())
    ForceEngine(IntegratorConfig())
    assert engine_module._keep_heap_resident() is True
    assert calls == [(-1, 256 << 20), (-3, 256 << 20)]


@pytest.mark.parametrize("libc, refused", [(("", ""), False), (("glibc", "2.36"), True)])
def test_off_glibc_or_refused_nothing_changes_and_a_debug_line_says_so_once(
    monkeypatch, caplog, libc, refused
):
    monkeypatch.setattr(engine_module, "_heap_fixed", None)
    monkeypatch.setattr(engine_module.platform, "libc_ver", lambda: libc)
    monkeypatch.setattr(engine_module.ctypes, "CDLL", _libc(lambda param, value: 0))
    with caplog.at_level(logging.DEBUG, logger="repro.accel"):
        for _ in range(3):
            assert engine_module._keep_heap_resident() is False
    lines = [r.getMessage() for r in caplog.records if "heap thresholds" in r.getMessage()]
    assert len(lines) == 1 and ("mallopt refused" in lines[0]) == refused
