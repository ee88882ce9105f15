"""Density pass: lattice density, h convergence, companion fields."""

import contextlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.spatial import cKDTree

from repro.accel.backends import get_backend
from repro.accel.backends.numpy_backend import _NumpyDensityGather
from repro.accel.backends.pikg_backend import _PikgDensityGather
from repro.sph.density import compute_density, kernel_size_guess
from repro.sph.kernels import DEFAULT_KERNEL, WendlandC2
from repro.sph import neighbors
from repro.sph.neighbors import NeighborGrid
from repro.util.constants import GAMMA
from tests.conftest import pairs_by_key
from tests.sph.test_neighbors import _stencil_pairs_reference


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


# ------------------------------------------------- the bracketed h update
def _unit(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _uniform(rng, n):
    return rng.uniform(0.0, 10.0, (n, 3))


def _shell(rng, n):
    """A blast shell: N ~ h^2, where the fixed point contracts at 1/3 at best."""
    return 5.0 * _unit(rng, n) * (1.0 + 0.002 * rng.normal(size=(n, 1)))


def _sheet(rng, n):
    return np.column_stack([rng.uniform(0.0, 10.0, (n, 2)), rng.normal(0.0, 0.01, n)])


def _interface(rng, n):
    """Two densities, 8:1, meeting at x = 5."""
    dense = rng.uniform(0.0, 5.0, (8 * n // 9, 3))
    thin = rng.uniform(0.0, 5.0, (n - len(dense), 3))
    thin[:, 0] += 5.0
    return np.concatenate([dense, thin])


def _flung(rng, n):
    """One particle three (typical) cells out in the vacuum beside a box."""
    pos = _uniform(rng, n)
    pos[0] = [10.0 + 3.0 * 2.2, 5.0, 5.0]
    return pos


def _stacked(rng, n):
    """Pairs of coincident points (two stacked hold 21 of the 32 wanted)."""
    pos = _uniform(rng, n)
    pos[0], pos[10], pos[20] = pos[3], pos[12], pos[21]
    return pos


_SHAPES = {f.__name__[1:]: f for f in (_uniform, _shell, _sheet, _interface, _flung, _stacked)}
_N_NGB, _TOL = 32, 0.05
_solved: dict[tuple[str, int], np.ndarray] = {}


def _solved_h(shape: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``shape`` and their kernel sizes solved to 0.2%."""
    pos = _SHAPES[shape](np.random.default_rng(seed), 600)
    if (shape, seed) not in _solved:
        n = len(pos)
        _solved[shape, seed] = compute_density(
            pos, np.zeros((n, 3)), np.ones(n), np.ones(n), np.ones(n),
            n_ngb=_N_NGB, tol=0.002, max_iter=60,
        ).h
    return pos, _solved[shape, seed]


@contextlib.contextmanager
def _recorded_sweeps():
    """Every ``weight_sum`` call of the density gather — numpy's, or the
    generated kernel's where ``$REPRO_BACKEND`` selects ``pikg`` — as
    (h, N(h))."""
    log: list[tuple[np.ndarray, np.ndarray]] = []
    gathers = (_NumpyDensityGather, _PikgDensityGather)
    inner = [cls.__dict__["weight_sum"] for cls in gathers]

    def spying(weight_sum):
        def spy(self, h):
            wsum = weight_sum(self, h)
            log.append((h.copy(), 4.0 * np.pi / 3.0 * h**3 * wsum))
            return wsum
        return spy

    for cls, weight_sum in zip(gathers, inner):
        cls.weight_sum = spying(weight_sum)
    try:
        yield log
    finally:
        for cls, weight_sum in zip(gathers, inner):
            cls.weight_sum = weight_sum


def _assert_every_sweep_inside_its_bracket(log, n_ngb):
    """Each h a sweep evaluates lies strictly between the largest earlier h
    with too few neighbors and the smallest with too many."""
    lo = np.zeros(len(log[0][0]))
    hi = np.full(len(lo), np.inf)
    h_before = None
    for h, n_smooth in log:
        moved = np.ones(len(h), bool) if h_before is None else h != h_before
        assert np.all(h[moved] > lo[moved]) and np.all(h[moved] < hi[moved])
        lo = np.where(n_smooth < n_ngb, np.maximum(lo, h), lo)
        hi = np.where(n_smooth > n_ngb, np.minimum(hi, h), hi)
        h_before = h


@given(
    shape=st.sampled_from(sorted(_SHAPES)),
    seed=st.integers(0, 3),
    off=st.sampled_from([1 / 4, 1 / 2, 1 / 1.3, 1.0, 1.3, 2.0, 4.0, "each its own"]),
    guess_seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_solver_converges_on_shapes_that_break_a_fixed_point(shape, seed, off, guess_seed):
    """Uniform box, blast shell (N ~ h^2), sheet, 8:1 density interface, a
    particle flung three cells into vacuum, stacked points — with the guess
    off by up to 4x either way, uniformly or particle by particle: the solve
    ends with every particle inside ``tol``, every evaluated ``h`` inside its
    bracket, in a bounded number of sweeps and grid builds."""
    pos, h_true = _solved_h(shape, seed)
    n = len(pos)
    if off == "each its own":
        factor = 4.0 ** np.random.default_rng(guess_seed).uniform(-1.0, 1.0, n)
    else:
        factor = np.full(n, off)
    guess = h_true * factor
    with _recorded_sweeps() as sweeps:
        d = compute_density(
            pos, np.zeros((n, 3)), np.ones(n), np.ones(n), guess, n_ngb=_N_NGB, tol=_TOL
        )
    assert d.n_unconverged == 0 and d.worst_bracket is None
    assert d.iterations == len(sweeps)
    _assert_every_sweep_inside_its_bracket(sweeps, _N_NGB)
    h_last, n_last = sweeps[-1]
    assert np.array_equal(h_last, d.h)                      # returned h was evaluated
    assert np.all(np.abs(n_last - _N_NGB) <= _TOL * _N_NGB)
    # Shrinking is free (2x off: 6 sweeps); growing is paced by the grid: a
    # coarser one only for a particle known to need it, as wide as it asks
    # for and at most 1.5 cells — so the builds follow the growth, with one
    # to spare for a first ask that fell short.
    growth = max(float(d.h.max() / guess.max()), 1.0)
    assert d.grid_builds <= 2 + math.ceil(math.log(growth, 1.5))
    if factor.max() <= 2.0 and factor.min() >= 0.5:
        assert d.iterations <= 6
    assert d.iterations <= 8 + (factor.min() < 0.5)


def test_rootless_particle_is_reported_not_shrunk_to_nothing():
    """Five coincident points hold 53 smoothed neighbors at any h > 0: the
    32 asked for have no root.  The solve leaves them where it found them,
    says so, and converges everyone else."""
    rng = np.random.default_rng(4)
    pos = rng.uniform(0.0, 10.0, (500, 3))
    pos[:5] = [20.0, 20.0, 20.0]                            # alone, far outside
    n = len(pos)
    guess = np.full(n, 2.0)
    d = compute_density(pos, np.zeros((n, 3)), np.ones(n), np.ones(n), guess, n_ngb=_N_NGB)
    assert d.n_unconverged == 5 and d.iterations < 10
    assert np.array_equal(d.h[:5], guess[:5])
    assert d.worst_bracket is not None and d.worst_bracket[0] < 5
    again = compute_density(pos, np.zeros((n, 3)), np.ones(n), np.ones(n), d.h, n_ngb=_N_NGB)
    assert np.array_equal(again.h, d.h) and again.iterations <= 3


def sparse_disk_gas(seed: int, keep: float = 0.95):
    """The gas of the ``gas_disk`` workload's mini galaxy with the ``keep`` of
    it that has the nearest 32nd neighbour — at 0.95 a sparse tail is left
    (the benchmark keeps 0.9 to avoid it)."""
    from repro.ic.galaxy import MW_SPEC, make_mw_model

    gas = make_mw_model(
        2500, seed=seed, spec=MW_SPEC.scaled(0.01), count_fractions=(0.02, 0.02, 0.96)
    ).gas()
    to_32nd = cKDTree(gas.pos).query(gas.pos, k=33)[0][:, -1]
    return gas.select(np.sort(np.argsort(to_32nd, kind="stable")[: round(keep * len(gas))]))


@pytest.mark.parametrize("seed", [8, 11, 15])
def test_sparse_disk_tail_converges_without_regridding(seed):
    """The gas disk with 95% of its gas kept — a sparse tail the fixed point
    oscillated on across the cell boundary (10 sweeps, up to 6 grids, one
    particle unconverged on every pass at these seeds): three sweeps, one
    grid, from the kernel sizes of the pass before."""
    gas = sparse_disk_gas(seed)
    pos, n = gas.pos, len(gas)
    args = (pos, np.zeros((n, 3)), gas.mass, np.ones(n))
    cold = compute_density(*args, gas.h, n_ngb=64)
    assert cold.n_unconverged == 0
    rng = np.random.default_rng(seed)
    for _ in range(3):                                      # passes of a run
        pos += 0.002 * cold.h[:, None] * rng.normal(size=pos.shape)
        warm = compute_density(*args, cold.h, n_ngb=64)
        assert warm.iterations <= 3 and warm.n_unconverged == 0 and warm.grid_builds == 1
        cold = warm


@pytest.mark.parametrize("seed", [3, 21])
def test_cold_start_from_the_ic_kernel_sizes_runs_on_a_reach_list(seed):
    """The ``gas_disk``-sized IC seeds its gas ``h`` from the particles: the
    first solve from it runs on reach lists of at most 0.6 M candidate pairs
    in at most 6 sweeps (one size for every particle, 1,448 pc against a
    converged median of ~445, took 6 sweeps on full lists of 1.1-2.4 M)."""
    from repro.ic.galaxy import MW_SPEC, make_mw_model

    gas = make_mw_model(
        2500, seed=seed, spec=MW_SPEC.scaled(0.01), count_fractions=(0.02, 0.02, 0.96)
    ).gas()
    n = len(gas)
    d = compute_density(gas.pos, np.zeros((n, 3)), gas.mass, np.ones(n), gas.h, n_ngb=32)
    assert d.reach_list and d.n_unconverged == 0
    assert d.candidate_pairs <= 600_000 and d.iterations <= 6


def test_kernel_size_guess_is_the_distance_to_the_n_ngb_th_neighbour():
    """Against a brute-force sort, and on a cubic lattice (spacing 2) where
    an interior point's 6th, 18th and 26th neighbours sit at 2, 2 sqrt 2
    and 2 sqrt 3."""
    rng = np.random.default_rng(4)
    pos = rng.uniform(0.0, 10.0, (200, 3))
    dist = np.sort(np.linalg.norm(pos[:, None] - pos[None], axis=2), axis=1)
    assert np.allclose(kernel_size_guess(pos, 32), dist[:, 32], rtol=1e-12)
    lattice = _lattice(npts=5, side=10.0)
    centre = np.flatnonzero(np.all(np.isclose(lattice, 5.0), axis=1))
    for n_ngb, want in ((6, 2.0), (18, 2.0 * np.sqrt(2.0)), (26, 2.0 * np.sqrt(3.0))):
        assert kernel_size_guess(lattice, n_ngb)[centre] == pytest.approx(want, rel=1e-12)


def test_kernel_size_guess_with_few_or_coincident_points_is_positive():
    """Fewer points than ``n_ngb + 1``: the distance to the farthest one.
    A point coincident with ``n_ngb`` others (or alone) gets the set's
    largest guess, or 1 when every guess is 0 — never 0."""
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
    assert np.allclose(kernel_size_guess(pos, 32), [4.0, 5.0, 5.0])
    pile = np.vstack([np.zeros((40, 3)), [[2.0, 0.0, 0.0]]])
    assert np.array_equal(kernel_size_guess(pile, 32), np.full(41, 2.0))
    for pos in (np.zeros((1, 3)), np.zeros((40, 3))):
        assert np.array_equal(kernel_size_guess(pos, 32), np.ones(len(pos)))
    assert kernel_size_guess(np.zeros((0, 3)), 32).shape == (0,)


@pytest.mark.parametrize("start", ["cold", "widening"])
def test_one_candidate_list_is_alive_at_a_time(monkeypatch, start):
    """Every regrid and every widening drops the previous list — from the
    grid and from the gather state — before the next one is generated: a
    cold solve (``h`` from 0.3x the converged) regrids, a warm one with 5%
    of its particles at half their ``h`` widens the reach list.  Both end
    with the ``h`` and gather list of the same solve over full lists, bit
    for bit."""
    gas = sparse_disk_gas(8, keep=0.9)
    n = len(gas)
    args = (gas.pos, np.zeros((n, 3)), gas.mass, np.ones(n))
    warm = compute_density(*args, gas.h, n_ngb=64)
    rng = np.random.default_rng(8)
    guess = 0.3 * warm.h if start == "cold" else warm.h * np.where(rng.random(n) < 0.05, 0.5, 1.0)
    with monkeypatch.context() as full_lists:
        full_lists.setattr(neighbors, "_MAX_REACH_SHARE", -1.0)
        same = compute_density(*args, guess, n_ngb=64)
    assert not same.reach_list and same.candidate_widenings == 0
    real = NeighborGrid._half_stencil_pairs
    made = []

    def spy(grid, reach):
        assert all(ref() is None for ref in made)      # the previous list is gone
        pairs = real(grid, reach)
        made.append(weakref.ref(pairs[0]))
        return pairs

    monkeypatch.setattr(NeighborGrid, "_half_stencil_pairs", spy)
    d = compute_density(*args, guess, n_ngb=64)
    assert d.reach_list and d.n_unconverged == 0
    if start == "cold":
        assert d.grid_builds == d.candidate_generations == len(made) >= 3
    else:
        assert (d.grid_builds, d.candidate_generations, d.candidate_widenings) == (1, 1, 1)
        assert len(made) == 2
    for field in ("h", "dens", "omega", "divv"):
        assert np.array_equal(getattr(d, field), getattr(same, field))
    for got, want in zip(d.pairs, same.pairs):
        assert np.array_equal(got, want)
    assert d.iterations == same.iterations


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
    divv, curlv = get_backend("numpy").velocity_estimators(*args)
    divv_ref, curlv_ref = _velocity_estimators_reference(*args)
    assert np.array_equal(divv, res.divv) and np.array_equal(curlv, res.curlv)
    for got, want in ((divv, divv_ref), (curlv, curlv_ref)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _finalize_reference(pairs, h, mass, kernel):
    """(dens, drho_dh, counts, gather pairs) from the candidates ``pairs`` cut
    at ``r < h_i`` by a boolean mask, with ``kernel.value`` and
    ``kernel.dvalue_dh`` per pair — what the normalized-profile finalize
    replaced."""
    i, j, r = pairs
    n = len(h)
    keep = r < h[i]
    ii, jj, rr = i[keep], j[keep], r[keep]
    dens = np.bincount(ii, weights=mass[jj] * kernel.value(rr, h[ii]), minlength=n)
    drho_dh = np.bincount(ii, weights=mass[jj] * kernel.dvalue_dh(rr, h[ii]), minlength=n)
    return dens, drho_dh, np.bincount(ii, minlength=n), (ii, jj, rr)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gather_finalize_matches_the_masked_kernel_value_reference(seed):
    """The numpy gather (profile sums over the compacted candidates,
    normalized once per target) against ``kernel.value`` per pair over the
    full stencil: the same gather pairs by key, r to 2 ulp, counts exact,
    sums to 1e-12; a sweep's weight sum is the reference density of unit
    masses."""
    rng = np.random.default_rng(seed)
    n = 250
    pos = rng.uniform(0.0, 1.0, (n, 3)) * rng.uniform(0.3, 3.0, 3)
    mass = rng.uniform(0.5, 1.5, n)
    h = rng.uniform(0.15, 0.4, n)
    grid = NeighborGrid.build(pos, float(h.max()))
    gather = _NumpyDensityGather(grid, pos, DEFAULT_KERNEL)
    full = _stencil_pairs_reference(grid)
    dens, drho_dh, counts, pairs = gather.finalize(h, mass)
    dens_ref, drho_dh_ref, counts_ref, pairs_ref = _finalize_reference(
        full, h, mass, DEFAULT_KERNEL
    )
    (i, j, r), (i_ref, j_ref, r_ref) = pairs_by_key(pairs), pairs_by_key(pairs_ref)
    assert np.array_equal(i, i_ref) and np.array_equal(j, j_ref)
    assert np.all(np.abs(r - r_ref) <= 2 * np.spacing(r_ref))
    assert np.array_equal(counts, counts_ref)
    wsum_ref = _finalize_reference(full, h, np.ones(n), DEFAULT_KERNEL)[0]
    for got, want in ((dens, dens_ref), (drho_dh, drho_dh_ref), (gather.weight_sum(h), wsum_ref)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
