"""The caller-owned gravity tile workspace: bit-identity and no allocation.

``grav_tile(workspace=ws)`` writes the tile temporaries into the caller's
arena with the same ufuncs in the same order as the allocating tile, so the
two must agree bit for bit.  Against the trailing-axis reference below (the
``(targets, sources, 3)`` tile as it was before the coordinate planes) the
contract is an accuracy bound: 1e-13 relative in float64, 5e-6 of the
largest acceleration in mixed precision — and, against an extended-precision
direct sum, an error no worse than 1.5x the reference tile's.
"""

import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import ForceEngine
from repro.accel.backends import numpy_backend
from repro.accel.backends.base import TileWorkspace
from repro.accel.backends.numpy_backend import NumpyBackend
from repro.core.integrator import IntegratorConfig
from repro.fdps.distributed import DistributedGravity
from repro.fdps.particles import ParticleSet
from repro.util.constants import GRAV_CONST
from tests.conftest import plummer_positions


def _blocked(pairs):
    """Shrink the tile's pair block so small tiles span several blocks
    (``None`` keeps the module's block)."""
    return mock.patch.object(numpy_backend, "_TILE_PAIRS", pairs or numpy_backend._TILE_PAIRS)


def _tile(rng, n_t, n_s, coincident):
    tp = rng.normal(size=(n_t, 3)) * 20.0
    sp = rng.normal(size=(n_s, 3)) * 20.0
    if coincident:
        # Sources that sit exactly on targets: the pairs exclude_self masks.
        m = min(n_t, n_s)
        sp[:m] = tp[:m]
    te = rng.uniform(0.0, 2.0, n_t)
    se = rng.uniform(0.0, 2.0, n_s)
    if coincident:
        te[0] = se[0] = 0.0          # unsoftened coincident pair: r2 + soft2 = 0
    return tp, te, sp, rng.uniform(0.5, 2.0, n_s), se


def _trailing_axis_tile_reference(tp, te, sp, sm, se, exclude_self=False, mixed=False,
                                  g=GRAV_CONST):
    """The tile before the coordinate planes: (targets, sources, 3)
    temporaries allocated per 4,096-source chunk and reduced with ``einsum``,
    in float32 about the target centroid when ``mixed``, accumulated in
    float64 either way."""
    tp, sp = np.asarray(tp, dtype=np.float64), np.asarray(sp, dtype=np.float64)
    if mixed:
        origin = tp.mean(axis=0)
        tp, sp = tp - origin, sp - origin
        real, tiny = np.float32, np.float32(1e-30)
    else:
        real, tiny = np.float64, np.float64(1e-300)
    tp, sp = tp.astype(real), sp.astype(real)
    te, sm, se = (np.asarray(a, dtype=real) for a in (te, sm, se))
    acc = np.zeros((len(tp), 3))
    for s0 in range(0, len(sp), 4096):
        s = slice(s0, s0 + 4096)
        d = tp[:, None, :] - sp[None, s, :]
        r2 = np.einsum("ijk,ijk->ij", d, d)
        w = sm[None, s] / np.maximum((r2 + (te[:, None] ** 2 + se[None, s] ** 2)) ** real(1.5), tiny)
        if exclude_self:
            w = np.where(r2 <= 0.0, real(0.0), w)
        acc -= g * np.einsum("ij,ijk->ik", w, d).astype(np.float64)
    return acc


#: Bounds against the reference tile: relative per component in float64, of
#: the tile's largest |acc| component in mixed precision.
F64_RTOL = 1e-13
MIXED_OF_MAX = 5e-6


def _assert_within_tile_bounds(got, want, mixed):
    scale = np.abs(want).max()
    if mixed:
        assert np.abs(got - want).max() <= MIXED_OF_MAX * scale
    else:
        # Components that cancel to ~0 are bounded by the tile's scale.
        np.testing.assert_allclose(got, want, rtol=F64_RTOL, atol=F64_RTOL * scale)


@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 90)), min_size=1, max_size=5
    ),
    mixed=st.booleans(),
    exclude_self=st.booleans(),
    pairs=st.sampled_from([None, 7, 32, 7 * 9]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_workspace_tile_is_bit_identical(shapes, mixed, exclude_self, pairs, seed):
    rng = np.random.default_rng(seed)
    bk = NumpyBackend()
    ws = TileWorkspace()
    for n_t, n_s in shapes:       # one workspace across tiles of changing shape
        args = _tile(rng, n_t, n_s, coincident=exclude_self)
        kw = {"exclude_self": exclude_self, "mixed": mixed}
        ws._arena[:] = 0xFF       # whatever the last tile left must not leak (NaN bits)
        with _blocked(pairs):
            got = bk.grav_tile(*args, workspace=ws, **kw)
            assert np.array_equal(got, bk.grav_tile(*args, **kw))
        _assert_within_tile_bounds(got, _trailing_axis_tile_reference(*args, **kw), mixed)
        assert np.isfinite(got).all()
        assert got.shape == (n_t, 3) and got.flags.c_contiguous
        assert not np.shares_memory(got, ws._arena)


def _direct_sum(tp, te, sp, sm, se, exclude_self):
    """Pairwise sum in extended precision, one target at a time (no tile, no
    chunks): the reference both tiles' rounding is measured against."""
    ext = np.longdouble
    tp, te, sp, sm, se = (np.asarray(a, dtype=ext) for a in (tp, te, sp, sm, se))
    acc = np.zeros((len(tp), 3))
    for t in range(len(tp)):
        d = tp[t] - sp
        r2 = (d * d).sum(axis=1)
        w = sm / np.maximum((r2 + te[t] ** 2 + se**2) ** ext(1.5), ext(1e-300))
        if exclude_self:
            w[r2 <= 0.0] = 0.0
        acc[t] = -GRAV_CONST * (w[:, None] * d).sum(axis=0)
    return acc


@pytest.mark.parametrize("mixed", [False, True], ids=["float64", "mixed"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tile_error_against_direct_sum_no_worse_than_frozen(seed, mixed):
    """The accuracy gate: planes change rounding, not accuracy.  The numpy
    tile and the trailing-axis reference are measured against the same
    direct sum."""
    rng = np.random.default_rng(seed)
    args = _tile(rng, 64, 700, coincident=True)
    want = _direct_sum(*args, exclude_self=True)
    scale = np.abs(want).max()
    err = {
        name: np.abs(tile(*args, exclude_self=True, mixed=mixed) - want).max() / scale
        for name, tile in (("numpy", NumpyBackend().grav_tile),
                           ("reference", _trailing_axis_tile_reference))
    }
    # In float64 both sit at a few ulp of the sum, where a ratio is noise.
    floor = 0.0 if mixed else 1e-14
    assert err["numpy"] <= max(1.5 * err["reference"], floor)


def _one_shot_tile(tp, te, sp, sm, se, exclude_self, mixed):
    """The tile without pair blocks: every target reduced over its whole
    source row in one pass (rows in batches only to bound this test's
    memory; a target's sum does not depend on the batch)."""
    tp, sp = np.asarray(tp, dtype=np.float64), np.asarray(sp, dtype=np.float64)
    if mixed:
        origin = tp.mean(axis=0)
        tp, sp = tp - origin, sp - origin
        real, tiny = np.float32, np.float32(1e-30)
    else:
        real, tiny = np.float64, np.float64(1e-300)
    t_xyz, s_xyz = tp.T.astype(real), sp.T.astype(real)
    sm, te2, se2 = sm.astype(real), te.astype(real) ** 2, se.astype(real) ** 2
    acc = np.zeros((3, len(tp)))
    for t0 in range(0, len(tp), 128):
        rows = slice(t0, t0 + 128)
        d = [t_k[rows, None] - s_k[None, :] for t_k, s_k in zip(t_xyz, s_xyz)]
        r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
        w = r2 + (te2[rows, None] + se2[None, :])
        w = sm[None, :] / np.maximum(w * np.sqrt(w), tiny)
        if exclude_self:
            w[r2 <= 0.0] = 0.0
        for acc_k, d_k in zip(acc, d):
            acc_k[rows] -= GRAV_CONST * np.einsum("ij,ij->i", w, d_k)
    return acc.T


#: The block's side: tiles straddle it on each axis by one either way.
_B = int(np.sqrt(numpy_backend._TILE_PAIRS))
_EDGE_SHAPES = [
    *((n_t, n_s) for n_t in (1, _B - 1, _B, _B + 1) for n_s in (_B - 1, _B, _B + 1)),
    (_B + 1, 4 * _B + 3),          # several source blocks, two target blocks
    (1370, 2600),                  # the LET import tile of a two-rank run
]


@pytest.mark.parametrize("mixed", [False, True], ids=["float64", "mixed"])
def test_blocked_tile_matches_one_shot_tile(mixed):
    """Blocking regroups the sums, nothing else: every shape straddling a
    block edge agrees with the unblocked tile within the module's bounds,
    with and without a workspace bit for bit, and the workspace never holds
    more than one block."""
    rng = np.random.default_rng(11)
    bk, ws = NumpyBackend(), TileWorkspace()
    for n_t, n_s in _EDGE_SHAPES:
        args = _tile(rng, n_t, n_s, coincident=True)
        got = bk.grav_tile(*args, exclude_self=True, mixed=mixed, workspace=ws)
        assert np.array_equal(got, bk.grav_tile(*args, exclude_self=True, mixed=mixed))
        _assert_within_tile_bounds(got, _one_shot_tile(*args, True, mixed), mixed)
        assert np.isfinite(got).all()
        assert ws.nbytes <= 5 * numpy_backend._TILE_PAIRS * 8 + numpy_backend._TILE_PAIRS


@pytest.mark.parametrize("mixed", [False, True], ids=["float64", "mixed"])
@pytest.mark.parametrize("axis", ["targets", "sources"])
def test_exclude_self_masks_across_a_block_edge(axis, mixed):
    """Coincident pairs just before and just after a block edge — one of
    them unsoftened, whose weight is 0/0 unless masked — are masked in
    whichever block they land, exactly as in the one-shot tile."""
    rng = np.random.default_rng(5)
    n_t, n_s = (_B + 1, _B) if axis == "targets" else (_B, _B + 1)
    tp, te, sp, sm, se = _tile(rng, n_t, n_s, coincident=False)
    t_edges, s_edges = numpy_backend.pair_blocks(n_t, n_s)
    edges = t_edges if axis == "targets" else s_edges
    assert len(edges) > 2                   # the tile really is cut on that axis
    cut = edges[1]
    for k in (cut - 1, cut):                # both sides of the edge
        t, s = (k, k % n_s) if axis == "targets" else (k % n_t, k)
        sp[s] = tp[t]
    t, s = (cut, cut % n_s) if axis == "targets" else (cut % n_t, cut)
    te[t] = se[s] = 0.0                     # the unsoftened coincident pair
    args = (tp, te, sp, sm, se)
    got = NumpyBackend().grav_tile(*args, exclude_self=True, mixed=mixed)
    assert np.isfinite(got).all()
    _assert_within_tile_bounds(got, _one_shot_tile(*args, True, mixed), mixed)


def test_workspace_grows_to_the_largest_tile_only():
    ws = TileWorkspace()
    ws.planes(10, 20, np.float64)
    assert ws.nbytes == 10 * 20 * (5 * 8 + 1)
    arena = ws._arena
    d, r2, w, mask = ws.planes(5, 8, np.float32)     # smaller: same arena, no growth
    assert ws._arena is arena
    assert d.shape == (3, 5, 8) and r2.shape == w.shape == mask.shape == (5, 8)   # dx, dy, dz planes
    assert d.dtype == r2.dtype == w.dtype == np.float32 and mask.dtype == np.bool_
    assert all(a.flags.c_contiguous for a in (d, r2, w, mask))
    assert not any(
        np.shares_memory(a, b) for a, b in [(d, r2), (d, w), (d, mask), (r2, w), (r2, mask), (w, mask)]
    )


_RELEASE_PROBE = """
import resource
import numpy as np
from repro.accel.backends.base import TileWorkspace

def resident_mb():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize() / 2**20

def one_run(tiles):
    ws = TileWorkspace()
    for n_sources in tiles:
        for plane in ws.planes(256, n_sources, np.float32):   # mixed precision
            plane.fill(0)

one_run([16])
base = resident_mb()
one_run([3963])              # 20.3 MiB arena, then released
one_run([3000, 4000])        # the next run grows through a smaller tile first
print(resident_mb() - base)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
def test_released_workspace_leaves_nothing_resident():
    """Run after run in one process (the benchmark's three realisations): a
    dropped or outgrown arena goes back to the system whatever the runs
    before it allocated.  As a ``malloc`` block the second run's first arena
    came from the heap and stayed resident beside the one that outgrew it
    (+15 MB here; ~+17 MB ``peak_rss_mb`` on ``halo_gravity`` for the
    seeds whose later realisation met the larger tile)."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    out = subprocess.run(
        [sys.executable, "-c", _RELEASE_PROBE], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert float(out.stdout) < 4.0


def _halo(n, seed=4):
    rng = np.random.default_rng(seed)
    return ParticleSet.from_arrays(
        pos=plummer_positions(n, a=80.0, rng=rng),
        mass=rng.uniform(0.5, 2.0, n),
        pid=np.arange(n),
        eps=np.full(n, 1.0),
    )


def test_second_gravity_pass_allocates_no_tile():
    """At an unchanged N the tree pass reuses the engine's workspace: no
    tile-sized block is allocated (a block is 1.4 MB here)."""
    ps = _halo(1500)
    engine = ForceEngine(IntegratorConfig(direct_gravity_below=0))
    first = engine.gravity(ps, "warm").copy()
    assert engine._tile_workspace.nbytes > 2**20      # one 1.4 MB float32 block
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        second = engine.gravity(ps, "again")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 2**20
    assert np.array_equal(first, second)


def test_engine_and_driver_forces_unchanged_by_their_workspaces():
    """The owners' workspaces change where temporaries live, not a bit of
    the result: same forces as the allocate-per-tile pass."""
    from repro.gravity.treegrav import tree_accel

    ps = _halo(900)
    cfg = IntegratorConfig(direct_gravity_below=0)
    plain = tree_accel(
        ps.pos, ps.mass, ps.eps, theta=cfg.theta, n_g=cfg.n_g,
        leaf_size=cfg.leaf_size, mixed_precision=cfg.mixed_precision,
    ).acc
    assert np.array_equal(ForceEngine(cfg).gravity(ps, "x"), plain)

    driver = DistributedGravity(n_ranks=2, theta=0.4, n_g=64)
    decomp, locals_ = driver.scatter(ps)
    with_ws = driver.forces(locals_, decomp)
    driver._tile_workspace = None          # tree_accel(workspace=None): an arena per pass
    for index in driver.indices:
        index.invalidate_all()
    without = driver.forces(locals_, decomp)
    for a, b in zip(with_ws, without):
        assert np.array_equal(a, b)
