"""Density pass: lattice density, h convergence, companion fields."""

import numpy as np
import pytest

from scipy.spatial import cKDTree

from repro.sph.density import (
    _velocity_estimators,
    compute_density,
    kernel_size_from_neighbors,
)
from repro.sph.kernels import DEFAULT_KERNEL, WendlandC2
from repro.util.constants import GAMMA


def _lattice(npts=10, side=1.0, jitter=0.0, seed=0):
    rng = np.random.default_rng(seed)
    g = (np.arange(npts) + 0.5) / npts * side
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    pos = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    if jitter:
        pos += rng.normal(0, jitter * side / npts, pos.shape)
    return pos


def test_uniform_lattice_density():
    pos = _lattice(10, side=1.0)
    n = len(pos)
    mass = np.full(n, 1.0 / n)  # total mass 1 in unit volume -> rho = 1
    vel = np.zeros((n, 3))
    u = np.ones(n)
    res = compute_density(pos, vel, mass, u, np.full(n, 0.25), n_ngb=40)
    core = np.all((pos > 0.25) & (pos < 0.75), axis=1)  # avoid edge deficit
    assert np.median(res.dens[core]) == pytest.approx(1.0, rel=0.05)


def test_h_converges_to_target_neighbor_count():
    pos = _lattice(12, side=1.0, jitter=0.2)
    n = len(pos)
    res = compute_density(
        pos, np.zeros((n, 3)), np.ones(n), np.ones(n),
        np.full(n, 0.3), n_ngb=50, tol=0.2,
    )
    core = np.all((pos > 0.25) & (pos < 0.75), axis=1)
    counts = res.n_neighbors[core]
    assert np.median(counts) == pytest.approx(50, rel=0.25)


def test_good_initial_guess_converges_in_two_sweeps():
    # The paper's Sec. 5.2.5 claim: with a proper guess the kernel-size
    # iteration needs ~2 sweeps.
    pos = _lattice(10, side=1.0, jitter=0.1)
    n = len(pos)
    first = compute_density(
        pos, np.zeros((n, 3)), np.ones(n), np.ones(n), np.full(n, 0.2),
        n_ngb=40, tol=0.12,
    )
    again = compute_density(
        pos, np.zeros((n, 3)), np.ones(n), np.ones(n), first.h,
        n_ngb=40, tol=0.12,
    )
    assert again.iterations <= 2


def test_omega_near_unity_for_uniform():
    pos = _lattice(10)
    n = len(pos)
    res = compute_density(
        pos, np.zeros((n, 3)), np.ones(n), np.ones(n), np.full(n, 0.25), n_ngb=40
    )
    core = np.all((pos > 0.25) & (pos < 0.75), axis=1)
    assert np.median(np.abs(res.omega[core] - 1.0)) < 0.2


def test_divergence_of_hubble_flow():
    # v = H x has div v = 3H and zero curl.
    pos = _lattice(12, jitter=0.05)
    n = len(pos)
    hubble = 2.5
    vel = hubble * (pos - 0.5)
    res = compute_density(
        pos, vel, np.ones(n), np.ones(n), np.full(n, 0.25), n_ngb=60
    )
    core = np.all((pos > 0.3) & (pos < 0.7), axis=1)
    assert np.median(res.divv[core]) == pytest.approx(3 * hubble, rel=0.15)
    assert np.median(res.curlv[core]) < 0.3 * 3 * hubble


def test_curl_of_rigid_rotation():
    # v = omega x r: curl = 2 omega, div = 0.
    pos = _lattice(12, jitter=0.05)
    n = len(pos)
    om = 3.0
    rel = pos - 0.5
    vel = np.column_stack([-om * rel[:, 1], om * rel[:, 0], np.zeros(n)])
    res = compute_density(
        pos, vel, np.ones(n), np.ones(n), np.full(n, 0.25), n_ngb=60
    )
    core = np.all((pos > 0.3) & (pos < 0.7), axis=1)
    assert np.median(res.curlv[core]) == pytest.approx(2 * om, rel=0.15)
    assert np.abs(np.median(res.divv[core])) < 0.3 * om


def test_pressure_and_sound_speed():
    pos = _lattice(8)
    n = len(pos)
    u = np.full(n, 4.0)
    res = compute_density(
        pos, np.zeros((n, 3)), np.ones(n), u, np.full(n, 0.3), n_ngb=40
    )
    assert np.allclose(res.pres, (GAMMA - 1) * res.dens * u)
    assert np.allclose(res.csnd, np.sqrt(GAMMA * res.pres / res.dens))


def test_density_positive_everywhere():
    rng = np.random.default_rng(3)
    pos = rng.uniform(0, 1, (400, 3))
    n = len(pos)
    res = compute_density(
        pos, np.zeros((n, 3)), np.ones(n), np.ones(n), np.full(n, 0.25), n_ngb=33
    )
    assert np.all(res.dens > 0)
    assert np.all(np.isfinite(res.omega))


def test_wendland_kernel_option():
    pos = _lattice(8)
    n = len(pos)
    res = compute_density(
        pos, np.zeros((n, 3)), np.full(n, 1.0 / n), np.ones(n),
        np.full(n, 0.35), n_ngb=55, kernel=WendlandC2(),
    )
    core = np.all((pos > 0.25) & (pos < 0.75), axis=1)
    assert np.median(res.dens[core]) == pytest.approx(1.0, rel=0.1)


def test_mass_weighting():
    # Doubling every mass doubles the density.
    pos = _lattice(8, jitter=0.1)
    n = len(pos)
    r1 = compute_density(
        pos, np.zeros((n, 3)), np.ones(n), np.ones(n), np.full(n, 0.3), n_ngb=40
    )
    r2 = compute_density(
        pos, np.zeros((n, 3)), 2 * np.ones(n), np.ones(n), np.full(n, 0.3), n_ngb=40
    )
    assert np.allclose(r2.dens, 2 * r1.dens)


def test_unconverged_particles_are_reported():
    """``iterations == max_iter`` alone cannot tell a solve that converged on
    its last sweep from one that ran out of sweeps; ``n_unconverged`` can."""
    pos = _lattice(8, side=1.0, jitter=0.2, seed=3)
    n = len(pos)
    args = (pos, np.zeros((n, 3)), np.ones(n), np.ones(n), np.full(n, 0.9))
    cut_short = compute_density(*args, n_ngb=32, max_iter=2)
    assert cut_short.iterations == 2 and cut_short.n_unconverged > 0
    full = compute_density(*args, n_ngb=32, max_iter=30)
    assert full.n_unconverged == 0 and full.iterations < 30
    # Exactly as many sweeps as it takes: converged *on* the last one.
    on_the_cap = compute_density(*args, n_ngb=32, max_iter=full.iterations)
    assert on_the_cap.iterations == full.iterations and on_the_cap.n_unconverged == 0


def test_kernel_size_from_neighbors_solves_the_smoothed_count():
    """The bisected h has the smoothed neighbor number of the h solve —
    also on a sheet, where the multiplicative fixed point converges slowly."""
    rng = np.random.default_rng(11)
    blob = rng.normal(0.0, 1.0, (400, 3))
    sheet = np.column_stack([rng.uniform(-3, 3, (300, 2)), rng.normal(4.0, 0.02, 300)])
    pos = np.concatenate([blob, sheet])
    n_ngb = 32
    dist, _ = cKDTree(pos).query(pos, k=2 * n_ngb + 1)
    h = kernel_size_from_neighbors(dist, n_ngb)
    solved = np.isfinite(h)
    assert solved.mean() > 0.95
    assert np.all(h[solved] <= dist[solved, -1])
    r = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)[solved]
    hs = h[solved]
    n_smooth = 4.0 * np.pi / 3.0 * hs**3 * DEFAULT_KERNEL.value(r, hs[:, None]).sum(axis=1)
    assert np.allclose(n_smooth, n_ngb, rtol=0.01)
    # ... so the h solve accepts it on its first sweep.
    m = len(pos)
    seeded = np.where(solved, h, dist[:, -1])
    res = compute_density(pos, np.zeros((m, 3)), np.ones(m), np.ones(m), seeded, n_ngb=n_ngb)
    assert np.array_equal(res.h[solved], hs)


def test_kernel_size_from_neighbors_flags_rows_it_cannot_bracket():
    # Three neighbors can never hold 32: the answer lies beyond the last one.
    dist = np.array([[0.0, 1.0, 2.0], [0.0, 0.5, 0.7]])
    assert np.all(np.isinf(kernel_size_from_neighbors(dist, 32)))


@pytest.mark.parametrize("max_iter", [1, 2, 10])
def test_gather_list_is_complete_at_the_returned_h(max_iter):
    """A solve cut short returns an h one update past the last sweep, which
    may have outgrown the grid the sweeps ran on (here h grows x1.5 per
    update from a cell of 1): the final sums still see every neighbor."""
    pos = np.random.default_rng(5).uniform(0.0, 8.0, (400, 3))
    n = len(pos)
    res = compute_density(
        pos, np.zeros((n, 3)), np.ones(n), np.ones(n), np.ones(n),
        n_ngb=32, max_iter=max_iter,
    )
    assert res.grid.covers(float(res.h.max()))
    brute = cKDTree(pos).query_ball_point(pos, res.h * (1 - 1e-12), return_length=True)
    assert np.array_equal(res.n_neighbors, brute)
    assert np.array_equal(np.bincount(res.pairs[0], minlength=n), brute)
    if max_iter == 2:
        assert res.n_unconverged > 0 and res.h.max() > 1.5   # past the first cell


def _velocity_estimators_reference(pairs, pos, vel, mass, h, dens_safe, kernel):
    """(divv, curlv) through (n_pairs, 3) row gathers, ``einsum`` and
    ``np.cross`` — what the coordinate-plane estimators replaced."""
    i, j, r = pairs
    n = len(dens_safe)
    gf = kernel.grad_factor(r, h[i])
    dvec = pos[i] - pos[j]
    vvec = vel[i] - vel[j]
    vdotr = np.einsum("ij,ij->i", vvec, dvec)
    divv = -np.bincount(i, weights=mass[j] * vdotr * gf, minlength=n) / dens_safe
    cross = np.cross(vvec, dvec)
    cx = np.bincount(i, weights=mass[j] * cross[:, 0] * gf, minlength=n)
    cy = np.bincount(i, weights=mass[j] * cross[:, 1] * gf, minlength=n)
    cz = np.bincount(i, weights=mass[j] * cross[:, 2] * gf, minlength=n)
    return divv, np.sqrt(cx**2 + cy**2 + cz**2) / dens_safe


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_velocity_estimators_match_the_row_gather_reference(seed):
    rng = np.random.default_rng(seed)
    n = 250
    pos = rng.uniform(0.0, 1.0, (n, 3)) * rng.uniform(0.3, 3.0, 3)
    vel = rng.normal(0.0, 2.0, (n, 3))
    mass = rng.uniform(0.5, 1.5, n)
    res = compute_density(pos, vel, mass, np.ones(n), np.full(n, 0.3), n_ngb=30)
    dens_safe = np.maximum(res.dens, 1e-300)
    args = (res.pairs, pos, vel, mass, res.h, dens_safe, DEFAULT_KERNEL)
    divv, curlv = _velocity_estimators(*args)
    divv_ref, curlv_ref = _velocity_estimators_reference(*args)
    assert np.array_equal(divv, res.divv) and np.array_equal(curlv, res.curlv)
    for got, want in ((divv, divv_ref), (curlv, curlv_ref)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
