"""The compiled SPH pair loops: the same bits as the numpy reference on every
output of all four kernels, and the loader that builds, caches and falls
back."""

from __future__ import annotations

import contextlib
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.backends import compiled, get_backend
from repro.sph.density import compute_density
from repro.sph.eos import pressure, sound_speed_from_density
from repro.sph.forces import compute_hydro_forces
from repro.sph.kernels import DEFAULT_KERNEL, WendlandC2
from repro.sph.neighbors import NeighborGrid, half_pairs_from_gather

SRC = Path(compiled.__file__).resolve().parents[3]

needs_cc = pytest.mark.skipif(shutil.which(compiled.COMPILER) is None, reason="no C compiler")


@contextlib.contextmanager
def numpy_loops():
    """The numpy reference in place of the loaded library, for the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiled, "_loaded", None)
        yield


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit: ``np.array_equal``, the dtype and every byte (a
    -0.0 for a 0.0 counts as a difference)."""
    return (
        np.array_equal(a, b) and a.dtype == b.dtype and a.shape == b.shape
        and a.tobytes() == b.tobytes()
    )


@st.composite
def clouds(draw):
    """What one draw of the property runs: a cloud with coincident points,
    a full list (edited by ``move_points`` or not) or a reach list, with or
    without the Balsara switch."""
    return {
        "n": draw(st.integers(2, 160)),
        "seed": draw(st.integers(0, 2**31)),
        "coincident": draw(st.integers(0, 6)),
        "reach": draw(st.booleans()),
        "moved": draw(st.integers(0, 5)),
        "balsara": draw(st.booleans()),
        "cold": draw(st.booleans()),
    }


def _kernel_outputs(case: dict) -> list[np.ndarray]:
    """Every output of the four kernels on one drawn case, in order."""
    rng = np.random.default_rng(case["seed"])
    n, bk, kernel = case["n"], get_backend("numpy"), DEFAULT_KERNEL
    pos = rng.uniform(0.0, 1.0, (n, 3))
    k = min(case["coincident"], n // 2)
    pos[:k] = pos[n - k:]                               # r = 0 between distinct points
    vel = rng.normal(0.0, 1.0, (n, 3))
    mass = rng.uniform(0.5, 1.5, n)
    u = np.zeros(n) if case["cold"] else rng.uniform(0.5, 2.0, n)
    cell = 0.35
    grid = NeighborGrid.build(pos, cell)
    h = rng.uniform(0.1, 1.0, n) * cell
    grid.cover(np.minimum(1.5 * h, cell) if case["reach"] else None)
    if case["moved"] and not grid.has_reach_list:       # only a full list is edited
        rows = rng.choice(n, size=min(case["moved"], n), replace=False)
        assert grid.move_points(rows, rng.uniform(0.0, 1.0, (len(rows), 3)))
    pos = grid.pos.copy()
    out = []

    # The weight sweep: cold, then only the targets whose h changed.
    gather = bk.density_gather(grid, pos, kernel)
    out.append(gather.weight_sum(h))
    h2 = np.where(rng.random(n) < 0.4, h * 0.9, h)
    out.append(gather.weight_sum(h2))
    # The finalize: sums and the gather list.
    dens, drho_dh, counts, pairs = gather.finalize(h2, mass)
    out += [dens, drho_dh, counts, *pairs]

    dens_safe = np.maximum(dens, 1e-300)
    pres = pressure(dens, u)
    csnd = sound_speed_from_density(dens, pres)
    omega = rng.uniform(0.8, 1.2, n)
    # The velocity estimators over the gather list, and over an empty one.
    divv, curlv = bk.velocity_estimators(pairs, pos, vel, mass, h2, dens_safe, kernel)
    empty = tuple(a[:0] for a in pairs)
    out += [divv, curlv, *bk.velocity_estimators(empty, pos, vel, mass, h2, dens_safe, kernel)]
    # The half-pair force, with and without the switch, and on no pairs.
    half = half_pairs_from_gather(pairs, h2)
    switch = {"divv": divv, "curlv": curlv} if case["balsara"] else {}
    for p in (half, empty):
        f = compute_hydro_forces(
            pos, vel, mass, h2, dens, pres, csnd, omega=omega, pairs=p, backend=bk, **switch
        )
        out += [f.acc, f.du_dt, f.v_signal]
    return out


@needs_cc
@given(clouds())
@settings(max_examples=60, deadline=None)
def test_compiled_loops_give_the_numpy_bits_on_every_output(case):
    assert compiled.sph_loops() is not None, "cc is on PATH but the loops did not load"
    got = _kernel_outputs(case)
    with numpy_loops():
        want = _kernel_outputs(case)
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert _same(a, b), f"output {k} differs"


@needs_cc
def test_a_whole_density_and_force_pass_is_the_same_with_and_without_the_loops():
    rng = np.random.default_rng(7)
    n = 600
    pos = rng.uniform(0.0, 1.0, (n, 3))
    vel = rng.normal(0.0, 1.0, (n, 3))
    mass = rng.uniform(0.5, 1.5, n)
    u = rng.uniform(0.5, 2.0, n)

    def run():
        d = compute_density(pos, vel, mass, u, np.full(n, 0.2), n_ngb=40)
        f = compute_hydro_forces(pos, vel, mass, d.h, d.dens, d.pres, d.csnd,
                                 omega=d.omega, divv=d.divv, curlv=d.curlv)
        return [d.h, d.dens, d.omega, d.divv, d.curlv, d.n_neighbors, *d.pairs,
                f.acc, f.du_dt, f.v_signal]

    got = run()
    with numpy_loops():
        want = run()
    assert all(_same(a, b) for a, b in zip(got, want))


def test_only_the_cubic_spline_is_compiled():
    assert compiled.sph_loops(WendlandC2()) is None


# ------------------------------------------------------------------- loader
def test_without_a_compiler_numpy_runs_and_one_warning_is_logged(monkeypatch, caplog):
    monkeypatch.setattr(compiled, "COMPILER", "no-such-c-compiler")
    monkeypatch.setattr(compiled, "_loaded", compiled._UNTRIED)
    rng = np.random.default_rng(1)
    pos = rng.uniform(0.0, 1.0, (120, 3))
    with caplog.at_level(logging.WARNING, logger="repro.accel"):
        for _ in range(2):
            d = compute_density(pos, np.zeros((120, 3)), np.ones(120), np.ones(120),
                                np.full(120, 0.3), n_ngb=20)
    assert compiled.sph_loops() is None
    assert np.isfinite(d.dens).all()
    warned = [r for r in caplog.records if r.name == "repro.accel"]
    assert len(warned) == 1 and "numpy" in warned[0].getMessage()
    assert "\n" not in warned[0].getMessage()


_LOAD_SCRIPT = """
import json, sys
from repro.accel.backends import compiled
built = []
real = compiled.build
def build(cc, path):
    built.append(str(path))
    if sys.argv[1] == "forbid":
        raise AssertionError("compiled again")
    real(cc, path)
compiled.build = build
loops = compiled.load()
print(json.dumps({"path": loops and loops.path, "built": built}))
"""


def _load_in_a_fresh_process(cache: Path, mode: str) -> dict:
    env = {**os.environ, "XDG_CACHE_HOME": str(cache), "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _LOAD_SCRIPT, mode], env=env,
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@needs_cc
def test_a_fresh_process_reuses_the_cache_and_rebuilds_a_truncated_library(tmp_path):
    first = _load_in_a_fresh_process(tmp_path, "build")
    assert first["path"] and first["built"] == [first["path"]]
    assert Path(first["path"]).parent == tmp_path / "repro"

    again = _load_in_a_fresh_process(tmp_path, "forbid")
    assert again == {"path": first["path"], "built": []}

    library = Path(first["path"])
    whole = library.read_bytes()
    library.write_bytes(whole[: len(whole) // 2])
    rebuilt = _load_in_a_fresh_process(tmp_path, "build")
    assert rebuilt == first
    assert library.stat().st_size == len(whole)
    assert [p.name for p in library.parent.iterdir()] == [library.name]   # no temporaries


@needs_cc
def test_an_unwritable_cache_builds_in_a_private_directory(monkeypatch, tmp_path):
    blocked = tmp_path / "file"
    blocked.write_text("")                  # a file where the cache directory would be
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    loops = compiled.load()
    assert loops is not None
    assert not Path(loops.path).exists()    # loaded, then its directory removed
    out = np.zeros(2)
    loops.sph_profile_sum(2, np.arange(2), np.zeros(2), None, None, np.ones(2), out)
    assert out.tolist() == [1.0, 1.0]


@needs_cc
@pytest.mark.parametrize("bad", ["dtype", "strided"])
def test_a_wrong_dtype_or_a_strided_array_raises_type_error(bad):
    loops = compiled.sph_loops()
    assert loops is not None
    i = np.arange(4)
    r = np.zeros(4)
    if bad == "dtype":
        i = i.astype(np.int32)
    else:
        r = np.zeros(8)[::2]
    with pytest.raises(TypeError):
        loops.sph_profile_sum(4, i, r, None, None, np.ones(4), np.zeros(4))


@needs_cc
@pytest.mark.parametrize("loaded", [True, False], ids=["compiled", "numpy"])
def test_a_pair_end_outside_the_particles_raises_on_both_paths(loaded):
    rng = np.random.default_rng(3)
    n = 50
    pos, vel = rng.uniform(0.0, 1.0, (n, 3)), rng.normal(0.0, 1.0, (n, 3))
    ones = np.ones(n)
    pairs = (np.array([0, 1, n]), np.array([1, 2, 3]), np.full(3, 0.1))
    with contextlib.ExitStack() as stack:
        if not loaded:
            stack.enter_context(numpy_loops())
        with pytest.raises(IndexError):
            get_backend("numpy").velocity_estimators(
                pairs, pos, vel, ones, ones, ones, DEFAULT_KERNEL)
        with pytest.raises(IndexError):
            compute_hydro_forces(pos, vel, ones, ones, ones, ones, ones, pairs=pairs)
