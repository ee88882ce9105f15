"""The caller-owned gravity tile workspace: bit-identity and no allocation.

``grav_tile(workspace=ws)`` writes the tile temporaries into the caller's
arena with the same ufuncs in the same order as the allocating tile, so the
two must agree bit for bit — against ``workspace=None`` and against the
frozen ``seed`` expressions (the tile as it was before the workspace
existed) at an equal chunk size.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import ForceEngine
from repro.accel.backends.base import TileWorkspace
from repro.accel.backends.numpy_backend import NumpyBackend, SeedBackend
from repro.core.integrator import IntegratorConfig
from repro.fdps.distributed import DistributedGravity
from repro.fdps.particles import ParticleSet
from tests.conftest import plummer_positions


class _Chunked:
    """Force the source-axis chunk so small tiles span several chunks."""

    def __init__(self, chunk):
        self.chunk = chunk

    def _chunk_for(self, n_targets):
        return self.chunk or super()._chunk_for(n_targets)


class _ChunkedNumpy(_Chunked, NumpyBackend):
    pass


class _ChunkedSeed(_Chunked, SeedBackend):
    pass


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


@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 90)), min_size=1, max_size=5
    ),
    mixed=st.booleans(),
    exclude_self=st.booleans(),
    chunk=st.sampled_from([None, 7, 32]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_workspace_tile_is_bit_identical(shapes, mixed, exclude_self, chunk, seed):
    rng = np.random.default_rng(seed)
    bk, frozen = _ChunkedNumpy(chunk), _ChunkedSeed(chunk)
    ws = TileWorkspace()
    for n_t, n_s in shapes:       # one workspace across tiles of changing shape
        args = _tile(rng, n_t, n_s, coincident=exclude_self)
        kw = {"exclude_self": exclude_self, "mixed": mixed}
        ws._arena[:] = 0xFF       # whatever the last tile left must not leak (NaN bits)
        got = bk.grav_tile(*args, workspace=ws, **kw)
        assert np.array_equal(got, bk.grav_tile(*args, **kw))
        assert np.array_equal(got, frozen.grav_tile(*args, **kw))
        assert np.isfinite(got).all()
        assert not np.shares_memory(got, ws._arena)


def test_workspace_grows_to_the_largest_tile_only():
    ws = TileWorkspace()
    ws.planes(10, 20, np.float64)
    assert ws.nbytes == 10 * 20 * (5 * 8 + 1)
    arena = ws._arena
    d, r2, w, mask = ws.planes(5, 8, np.float32)     # smaller: same arena, no growth
    assert ws._arena is arena
    assert d.shape == (5, 8, 3) and r2.shape == w.shape == mask.shape == (5, 8)
    assert d.dtype == r2.dtype == w.dtype == np.float32 and mask.dtype == np.bool_
    assert all(a.flags.c_contiguous for a in (d, r2, w, mask))
    assert not any(
        np.shares_memory(a, b) for a, b in [(d, r2), (d, w), (d, mask), (r2, w), (r2, mask), (w, mask)]
    )


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
    tile-sized block is allocated (the tiles here are ~3 MB each)."""
    ps = _halo(1500)
    engine = ForceEngine(IntegratorConfig(direct_gravity_below=0))
    first = engine.gravity(ps, "warm").copy()
    assert engine._tile_workspace.nbytes > 2**21
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
    driver._tile_workspace = None          # tree_accel(workspace=None): per-tile arenas
    for index in driver.indices:
        index.invalidate_all()
    without = driver.forces(locals_, decomp)
    for a, b in zip(with_ws, without):
        assert np.array_equal(a, b)
