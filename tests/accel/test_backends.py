"""Backend registry + cross-backend kernel parity.

The two backends must agree: ``pikg`` reproduces the ``numpy`` reference
physics to 1e-10 relative tolerance (its generated scalar loops reassociate
sums).  Without numba its kernels run as plain Python — the same generated
source the CI leg that installs numba jits, under ``REPRO_BACKEND=pikg``.
The ``numpy`` kernels' own references (the trailing-axis tile, the
full-stencil candidates, the masked finalize, the row-gather force kernel)
live beside their tests in ``tests/accel`` and ``tests/sph``.
"""

import numpy as np
import pytest

from repro.accel.backends import BACKENDS, get_backend
from repro.accel.engine import ForceEngine
from repro.core.integrator import IntegratorConfig
from repro.core.runner import CoupledRunner
from repro.fdps.distributed import DistributedGravity
from repro.fdps.particles import ParticleSet, ParticleType
from repro.gravity.kernels import accel_between, accel_direct
from repro.gravity.treegrav import tree_accel
from repro.serve import SurrogateServer
from repro.sn.turbulence import make_turbulent_box
from repro.sph.density import compute_density
from repro.sph.forces import compute_hydro_forces
from repro.surrogate.model import SedovBlastOracle, SNSurrogate
from tests.conftest import pairs_by_key, plummer_positions

RTOL = 1e-10


#: The backend checked against the numpy reference.
PIKG = [pytest.param(get_backend("pikg"), id="pikg")]


@pytest.fixture
def cluster():
    rng = np.random.default_rng(7)
    n = 150
    pos = rng.random((n, 3)) * 4.0
    vel = rng.normal(size=(n, 3)) * 0.2
    mass = rng.uniform(0.3, 0.7, n)
    u = rng.uniform(0.5, 2.0, n)
    h0 = np.full(n, 0.9)
    return pos, vel, mass, u, h0


# ------------------------------------------------------------------- registry
def test_registry_contents():
    assert sorted(BACKENDS) == ["numpy", "pikg"]
    for name in BACKENDS:
        assert get_backend(name).name == name
        assert get_backend(name.upper()) is get_backend(name)       # one instance


def test_get_backend_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert get_backend().name == "numpy"
    monkeypatch.setenv("REPRO_BACKEND", "pikg")
    assert get_backend().name == "pikg"
    # Explicit name beats the environment; instances pass through.
    assert get_backend("numpy").name == "numpy"
    bk = get_backend("pikg")
    assert get_backend(bk) is bk
    with pytest.raises(ValueError, match=r"\['numpy', 'pikg'\]"):
        get_backend("no-such-backend")


def test_backend_selection_reaches_engine():
    ps = make_turbulent_box(n_per_side=5, side=10.0, mean_density=0.05,
                            temperature=100.0, mach=1.0, seed=3)
    cfg = IntegratorConfig(backend="pikg", enable_star_formation=False,
                           n_pool=2, latency_steps=2)
    server = SurrogateServer(
        surrogate=SNSurrogate(oracle=SedovBlastOracle(t_after=0.01), n_grid=4, side=10.0)
    )
    sim = CoupledRunner(ps, server, n_ranks=1, config=cfg)
    assert sim.engine.backend.name == "pikg"


# ------------------------------------------------------------ gravity parity
def test_pikg_coincident_unsoftened_pair_is_finite():
    """The DSL kernel has no coincident-pair mask; the backend must fall
    back to the reference whenever zero softening could make r2 = 0."""
    tp = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    sp = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    zeros = np.zeros(2)
    ref = accel_between(tp, zeros, sp, np.ones(2), zeros, backend="numpy")
    out = accel_between(tp, zeros, sp, np.ones(2), zeros, backend="pikg")
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, ref, rtol=RTOL)


@pytest.mark.parametrize("bk", PIKG)
def test_gravity_direct_parity(bk, cluster):
    pos, _, mass, _, _ = cluster
    eps = np.full(len(pos), 0.05)
    ref = accel_direct(pos, mass, eps, backend="numpy")
    alt = accel_direct(pos, mass, eps, backend=bk)
    np.testing.assert_allclose(alt, ref, rtol=RTOL, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("bk", PIKG)
def test_gravity_mixed_parity(bk, cluster):
    pos, _, mass, _, _ = cluster
    eps = np.full(len(pos), 0.05)
    targets = pos[:40]
    ref = accel_between(targets, eps[:40], pos, mass, eps, exclude_self=True,
                        backend="numpy")
    mixed = accel_between(targets, eps[:40], pos, mass, eps, exclude_self=True,
                          backend=bk)
    # mixed=False here checks the tile; the float32 variant gets a loose
    # bound of its own (different backends round differently inside f32).
    np.testing.assert_allclose(mixed, ref, rtol=RTOL, atol=1e-12 * np.abs(ref).max())
    from repro.gravity.kernels import accel_between_mixed

    ref32 = accel_between_mixed(targets, eps[:40], pos, mass, eps,
                                exclude_self=True, backend="numpy")
    alt32 = accel_between_mixed(targets, eps[:40], pos, mass, eps,
                                exclude_self=True, backend=bk)
    scale = np.abs(ref32).max()
    np.testing.assert_allclose(alt32, ref32, rtol=5e-5, atol=5e-5 * scale)


@pytest.mark.parametrize("bk", PIKG)
def test_tree_walk_parity(bk):
    rng = np.random.default_rng(11)
    n = 600
    pos = plummer_positions(n, a=20.0, rng=rng)
    mass = rng.uniform(0.5, 2.0, n)
    eps = np.full(n, 0.4)
    ref = tree_accel(pos, mass, eps, theta=0.4, backend="numpy").acc
    alt = tree_accel(pos, mass, eps, theta=0.4, backend=bk).acc
    np.testing.assert_allclose(alt, ref, rtol=RTOL, atol=1e-12 * np.abs(ref).max())


# ------------------------------------------------------------ density parity
@pytest.mark.parametrize("bk", PIKG)
def test_density_parity(bk, cluster):
    pos, vel, mass, u, h0 = cluster
    ref = compute_density(pos, vel, mass, u, h0, n_ngb=24, backend="numpy")
    alt = compute_density(pos, vel, mass, u, h0, n_ngb=24, backend=bk)
    assert alt.iterations == ref.iterations
    for field in ("h", "dens", "omega", "divv", "curlv", "pres", "csnd"):
        a, b = getattr(alt, field), getattr(ref, field)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12 * np.abs(b).max())
    np.testing.assert_array_equal(alt.n_neighbors, ref.n_neighbors)


# -------------------------------------------------------------- hydro parity
@pytest.mark.parametrize("bk", PIKG)
def test_hydro_force_parity(bk, cluster):
    pos, vel, mass, u, h0 = cluster
    ref_d = compute_density(pos, vel, mass, u, h0, n_ngb=24, backend="numpy")
    kwargs = dict(omega=ref_d.omega, divv=ref_d.divv, curlv=ref_d.curlv)
    ref = compute_hydro_forces(pos, vel, mass, ref_d.h, ref_d.dens, ref_d.pres,
                               ref_d.csnd, grid=ref_d.grid, backend="numpy", **kwargs)
    alt = compute_hydro_forces(pos, vel, mass, ref_d.h, ref_d.dens, ref_d.pres,
                               ref_d.csnd, grid=ref_d.grid, backend=bk, **kwargs)
    assert alt.n_pairs == ref.n_pairs
    scale = np.abs(ref.acc).max()
    np.testing.assert_allclose(alt.acc, ref.acc, rtol=RTOL, atol=1e-11 * scale)
    np.testing.assert_allclose(alt.du_dt, ref.du_dt, rtol=RTOL,
                               atol=1e-11 * np.abs(ref.du_dt).max())
    np.testing.assert_allclose(alt.v_signal, ref.v_signal, rtol=RTOL)


@pytest.mark.parametrize("backend", [pytest.param(get_backend("numpy"), id="numpy"), *PIKG])
def test_engine_force_pairs_are_the_searched_ones(backend, cluster):
    """``ForceEngine.hydro`` derives its half pairs from the gather list
    instead of searching: the same unordered pairs, each once with i < j,
    with bit-equal separations, as the search of
    ``compute_hydro_forces(grid=)`` on ``numpy`` — whichever backend made
    the gather list."""
    pos, vel, mass, u, h0 = cluster
    n = len(pos)
    ps = ParticleSet.from_arrays(pos=pos, vel=vel, mass=mass, u=u, h=h0,
                                 pid=np.arange(n),
                                 ptype=np.full(n, int(ParticleType.GAS)))
    cfg = IntegratorConfig(backend=backend, n_ngb=24)
    engine = ForceEngine(cfg)
    engine.hydro(ps, "1st")
    got = pairs_by_key(engine._hydro_cache.force_pairs)
    d = engine._hydro_cache.density
    searched = compute_hydro_forces(pos, vel, mass, d.h, d.dens, d.pres, d.csnd,
                                    grid=d.grid, backend="numpy").pairs
    assert np.all(got[0] < got[1])
    for a, b in zip(got, pairs_by_key(searched)):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------- integrator-level parity
@pytest.mark.parametrize("bk", PIKG)
def test_whole_step_parity_with_fast_path(bk):
    """Two full surrogate-leapfrog steps, including the step-7 cached-pair
    fast path, agree across backends (f64 kernels, no mixed precision)."""

    def run(backend):
        ps = make_turbulent_box(n_per_side=7, side=12.0, mean_density=0.05,
                                temperature=300.0, mach=1.5, seed=5)
        cfg = IntegratorConfig(
            backend=backend, mixed_precision=False, enable_star_formation=False,
            direct_gravity_below=100, leaf_size=8, n_g=64,
            n_pool=2, latency_steps=2,
        )
        server = SurrogateServer(
            surrogate=SNSurrogate(oracle=SedovBlastOracle(t_after=0.01),
                                  n_grid=4, side=12.0)
        )
        sim = CoupledRunner(ps, server, n_ranks=1, config=cfg)
        sim.run(2)
        assert sim.engine.fast_path_available
        return sim.ps

    ref = run("numpy")
    alt = run(bk)
    np.testing.assert_allclose(alt.pos, ref.pos, rtol=1e-9,
                               atol=1e-9 * np.abs(ref.pos).max())
    np.testing.assert_allclose(alt.vel, ref.vel, rtol=1e-8,
                               atol=1e-9 * np.abs(ref.vel).max())
    np.testing.assert_allclose(alt.u, ref.u, rtol=1e-8)
    np.testing.assert_allclose(alt.dens, ref.dens, rtol=1e-8)


# ------------------------------------------------------ distributed parity
@pytest.mark.parametrize("bk", PIKG)
def test_distributed_local_tree_parity(bk):
    """The multi-rank path (cached local trees + LET imports as direct
    sources) hits identical kernels on every backend."""
    rng = np.random.default_rng(31)
    n = 400
    pos = plummer_positions(n, a=25.0, rng=rng)
    ps = ParticleSet.from_arrays(
        pos=pos,
        mass=rng.uniform(0.5, 2.0, n),
        eps=np.full(n, 0.5),
        pid=np.arange(n),
    )
    ref = DistributedGravity(n_ranks=4, theta=0.4, backend="numpy").global_accel(ps.copy())
    alt = DistributedGravity(n_ranks=4, theta=0.4, backend=bk).global_accel(ps.copy())
    np.testing.assert_allclose(alt, ref, rtol=RTOL, atol=1e-12 * np.abs(ref).max())
