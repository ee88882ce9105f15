"""Hydro forces: conservation laws, shock heating, signal velocity."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.backends import get_backend
from repro.sph.density import compute_density
from repro.sph.forces import compute_hydro_forces
from repro.sph.kernels import DEFAULT_KERNEL
from tests.conftest import pairs_by_key
from tests.sph.test_neighbors import _stencil_pairs_reference


def _prepared_state(pos, vel, mass, u, h0=0.3, n_ngb=40):
    res = compute_density(pos, vel, mass, u, np.full(len(pos), h0), n_ngb=n_ngb)
    return res


def _random_cloud(n=300, seed=0, vscale=1.0):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 1, (n, 3))
    vel = rng.normal(0, vscale, (n, 3))
    mass = rng.uniform(0.5, 1.5, n)
    u = rng.uniform(0.5, 2.0, n)
    return pos, vel, mass, u


def test_momentum_conservation_exact():
    pos, vel, mass, u = _random_cloud(seed=1)
    d = _prepared_state(pos, vel, mass, u)
    f = compute_hydro_forces(
        pos, vel, mass, d.h, d.dens, d.pres, d.csnd,
        omega=d.omega, divv=d.divv, curlv=d.curlv,
    )
    ptot = (mass[:, None] * f.acc).sum(axis=0)
    scale = np.abs(mass[:, None] * f.acc).sum()
    assert np.all(np.abs(ptot) < 1e-10 * scale)


def test_total_energy_conservation_exact():
    # d/dt (sum m u + sum 1/2 m v^2) = sum m du/dt + sum m v.a = 0
    # holds pairwise for this formulation, including viscosity.
    pos, vel, mass, u = _random_cloud(seed=2, vscale=3.0)
    d = _prepared_state(pos, vel, mass, u)
    f = compute_hydro_forces(
        pos, vel, mass, d.h, d.dens, d.pres, d.csnd,
        omega=d.omega, divv=d.divv, curlv=d.curlv,
    )
    de_thermal = np.sum(mass * f.du_dt)
    de_kinetic = np.sum(mass * np.einsum("ij,ij->i", vel, f.acc))
    scale = np.abs(mass * f.du_dt).sum() + np.abs(
        mass * np.einsum("ij,ij->i", vel, f.acc)
    ).sum()
    assert abs(de_thermal + de_kinetic) < 1e-10 * scale


def test_uniform_lattice_nearly_zero_force():
    npts = 10
    g = (np.arange(npts) + 0.5) / npts
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    pos = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    n = len(pos)
    vel = np.zeros((n, 3))
    mass = np.ones(n)
    u = np.ones(n)
    d = _prepared_state(pos, vel, mass, u)
    f = compute_hydro_forces(pos, vel, mass, d.h, d.dens, d.pres, d.csnd, omega=d.omega)
    core = np.all((pos > 0.3) & (pos < 0.7), axis=1)
    edge = ~np.all((pos > 0.1) & (pos < 0.9), axis=1)
    fmag = np.linalg.norm(f.acc, axis=1)
    # Interior forces must be far below the boundary forces (SPH carries an
    # irreducible E0 discretization error, so "zero" means "edge-dominated").
    assert np.median(fmag[core]) < 0.25 * np.median(fmag[edge])
    # And the residual interior force is well below the gradient scale P/(rho h).
    scale = np.median(d.pres / (d.dens * d.h))
    assert np.median(fmag[core]) < 0.2 * scale


def test_pressure_gradient_pushes_outward():
    # Hot center, cold surroundings: central particles must accelerate away.
    rng = np.random.default_rng(4)
    pos = rng.uniform(-1, 1, (600, 3))
    n = len(pos)
    r = np.linalg.norm(pos, axis=1)
    u = np.where(r < 0.4, 50.0, 1.0)
    mass = np.ones(n)
    vel = np.zeros((n, 3))
    d = _prepared_state(pos, vel, mass, u, h0=0.4, n_ngb=50)
    f = compute_hydro_forces(pos, vel, mass, d.h, d.dens, d.pres, d.csnd, omega=d.omega)
    shell = (r > 0.3) & (r < 0.6)
    radial = np.einsum("ij,ij->i", f.acc[shell], pos[shell]) / r[shell]
    assert np.median(radial) > 0.0


def test_viscosity_heats_approaching_flows():
    # Two streams colliding: viscous du/dt > 0 in the interaction zone.
    rng = np.random.default_rng(5)
    pos = rng.uniform(0, 1, (500, 3))
    vel = np.where(pos[:, :1] < 0.5, 4.0, -4.0) * np.array([[1.0, 0.0, 0.0]])
    mass = np.ones(500)
    u = np.full(500, 0.1)
    d = _prepared_state(pos, vel, mass, u, h0=0.25, n_ngb=40)
    f = compute_hydro_forces(
        pos, vel, mass, d.h, d.dens, d.pres, d.csnd,
        omega=d.omega, divv=d.divv, curlv=d.curlv,
    )
    zone = np.abs(pos[:, 0] - 0.5) < 0.15
    assert np.median(f.du_dt[zone]) > 0.0


def test_no_viscosity_for_receding_flows():
    rng = np.random.default_rng(6)
    pos = rng.uniform(0, 1, (400, 3))
    # Pure expansion away from the plane x=0.5; pairs recede -> mu = 0.
    vel = np.sign(pos[:, :1] - 0.5) * 4.0 * np.array([[1.0, 0.0, 0.0]])
    mass = np.ones(400)
    u = np.full(400, 1e-8)  # negligible pressure
    d = _prepared_state(pos, vel, mass, u, h0=0.25, n_ngb=40)
    f_lo = compute_hydro_forces(
        pos, vel, mass, d.h, d.dens, d.pres, d.csnd, alpha_visc=0.0, beta_visc=0.0
    )
    f_hi = compute_hydro_forces(
        pos, vel, mass, d.h, d.dens, d.pres, d.csnd, alpha_visc=1.0, beta_visc=2.0
    )
    assert np.allclose(f_lo.acc, f_hi.acc)


def test_signal_velocity_exceeds_sound_speed():
    pos, vel, mass, u = _random_cloud(seed=7, vscale=5.0)
    d = _prepared_state(pos, vel, mass, u)
    f = compute_hydro_forces(pos, vel, mass, d.h, d.dens, d.pres, d.csnd)
    assert np.all(f.v_signal >= d.csnd - 1e-12)


def test_empty_neighborhood_is_handled():
    # Two particles far apart: no pairs, zero forces.
    pos = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
    f = compute_hydro_forces(
        pos, np.zeros((2, 3)), np.ones(2), np.array([0.5, 0.5]),
        np.ones(2), np.ones(2), np.ones(2),
    )
    assert np.allclose(f.acc, 0.0)
    assert f.n_pairs == 0


def _cold_forces(vel):
    """Forces on 300 random gas particles with ``u = 0`` (the
    ``ParticleSet.from_arrays`` default), at the velocities ``vel``."""
    rng = np.random.default_rng(11)
    n = len(vel)
    pos = rng.uniform(0.0, 1.0, (n, 3))
    mass = np.ones(n)
    d = _prepared_state(pos, vel, mass, np.zeros(n), h0=0.2, n_ngb=32)
    assert np.all(d.csnd == 0.0)
    return pos, compute_hydro_forces(
        pos, vel, mass, d.h, d.dens, d.pres, d.csnd,
        omega=d.omega, divv=d.divv, curlv=d.curlv,
    )


def test_cold_gas_at_rest_feels_no_force():
    # divv = curlv = csnd = 0: the Balsara limiter was 0/0 and every pair NaN.
    _, f = _cold_forces(np.zeros((300, 3)))
    assert np.all(f.acc == 0.0) and np.all(f.du_dt == 0.0)
    assert np.all(f.v_signal == 0.0)


def test_a_cold_converging_pair_among_gas_at_rest_gets_finite_forces():
    vel = np.zeros((300, 3))
    pos, _ = _cold_forces(vel)
    a, b = 0, int(np.argsort(np.linalg.norm(pos - pos[0], axis=1))[1])   # nearest neighbors
    vel[a], vel[b] = pos[b] - pos[a], pos[a] - pos[b]                    # approaching
    _, f = _cold_forces(vel)
    assert np.isfinite(f.acc).all() and np.isfinite(f.du_dt).all()
    assert f.du_dt[a] > 0.0 and f.du_dt[b] > 0.0          # viscous heating, switch on
    assert np.any(f.acc[a] != 0.0)
    # Every particle has unit mass: the accelerations sum to zero.
    assert np.all(np.abs(f.acc.sum(axis=0)) < 1e-12 * np.abs(f.acc).sum())


@given(st.integers(30, 120), st.integers(0, 30))
@settings(max_examples=10, deadline=None)
def test_conservation_property(n, seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 1, (n, 3))
    vel = rng.normal(0, 2, (n, 3))
    mass = rng.uniform(0.5, 2.0, n)
    u = rng.uniform(0.1, 3.0, n)
    d = compute_density(pos, vel, mass, u, np.full(n, 0.4), n_ngb=min(32, n // 2))
    f = compute_hydro_forces(
        pos, vel, mass, d.h, d.dens, d.pres, d.csnd,
        omega=d.omega, divv=d.divv, curlv=d.curlv,
    )
    ptot = (mass[:, None] * f.acc).sum(axis=0)
    pscale = np.abs(mass[:, None] * f.acc).sum() + 1e-300
    assert np.all(np.abs(ptot) < 1e-9 * pscale)
    de = np.sum(mass * f.du_dt) + np.sum(mass * np.einsum("ij,ij->i", vel, f.acc))
    escale = np.abs(mass * f.du_dt).sum() + 1e-300
    assert abs(de) < 1e-8 * max(escale, 1.0)


def _hydro_force_reference(pos, vel, mass, h, dens, pres, csnd, omega, balsara,
                           alpha_visc, beta_visc, kernel, pairs):
    """(acc, du_dt, v_signal) on the half pairs ``pairs`` through (n_pairs, 3)
    row gathers, ``einsum`` and ``np.add.at``, every per-particle term formed
    once per pair end — the kernel the coordinate-plane one replaced."""
    i, j, r = pairs
    n = len(pos)
    dens_safe = np.maximum(dens, 1e-300)
    dvec = pos[i] - pos[j]
    vvec = vel[i] - vel[j]
    vdotr = np.einsum("ij,ij->i", vvec, dvec)
    gf_i = kernel.grad_factor(r, h[i])
    gf_j = kernel.grad_factor(r, h[j])
    gf_bar = 0.5 * (gf_i + gf_j)
    h_bar = 0.5 * (h[i] + h[j])
    rho_bar = 0.5 * (dens_safe[i] + dens_safe[j])
    c_bar = 0.5 * (csnd[i] + csnd[j])
    mu = np.where(vdotr < 0.0, h_bar * vdotr / (r**2 + 0.01 * h_bar**2), 0.0)
    fb = 0.5 * (balsara[i] + balsara[j]) if balsara is not None else 1.0
    visc = fb * (-alpha_visc * c_bar * mu + beta_visc * mu**2) / rho_bar
    p_i = pres[i] / (omega[i] * dens_safe[i] ** 2)
    p_j = pres[j] / (omega[j] * dens_safe[j] ** 2)
    scal = p_i * gf_i + p_j * gf_j + visc * gf_bar
    acc = np.zeros((n, 3))
    for ax in range(3):
        np.add.at(acc[:, ax], i, -mass[j] * scal * dvec[:, ax])
        np.add.at(acc[:, ax], j, mass[i] * scal * dvec[:, ax])
    du_visc = 0.5 * visc * vdotr * gf_bar
    du_dt = np.bincount(i, weights=mass[j] * (p_i * vdotr * gf_i + du_visc), minlength=n)
    du_dt += np.bincount(j, weights=mass[i] * (p_j * vdotr * gf_j + du_visc), minlength=n)
    w_rel = np.where(r > 0, vdotr / np.maximum(r, 1e-300), 0.0)
    vsig_pair = csnd[i] + csnd[j] - 3.0 * np.minimum(w_rel, 0.0)
    v_signal = csnd.copy()
    np.maximum.at(v_signal, i, vsig_pair)
    np.maximum.at(v_signal, j, vsig_pair)
    return acc, du_dt, v_signal


@given(st.integers(40, 200), st.integers(0, 1000), st.booleans())
@settings(max_examples=15, deadline=None)
def test_plane_force_kernel_matches_the_frozen_row_gather_kernel(n, seed, balsara):
    """The ``numpy`` kernel (coordinate planes, per-particle terms) against
    the row-gather reference on one pair list: sums to 1e-12; the signal
    velocity — a max over pairs, no sum — to 1e-13 (``einsum`` adds the
    three products of v.r as (x + z) + y on AVX builds, the planes in x, y,
    z order: equal only where the pair recedes); the plane kernel's total
    momentum at rounding."""
    pos, vel, mass, u = _random_cloud(n=n, seed=seed, vscale=2.0)
    d = _prepared_state(pos, vel, mass, u, h0=0.4, n_ngb=min(30, n - 1))
    limiter = np.random.default_rng(seed).uniform(0.0, 1.0, n) if balsara else None
    args = (pos, vel, mass, d.h, d.dens, d.pres, d.csnd, d.omega, limiter, 1.0, 2.0,
            DEFAULT_KERNEL)
    pairs = compute_hydro_forces(pos, vel, mass, d.h, d.dens, d.pres, d.csnd, grid=d.grid).pairs
    got = get_backend("numpy").hydro_force_pairs(*args, pairs=pairs)
    want = _hydro_force_reference(*args, pairs)
    for a, b in zip(got[:2], want[:2]):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
    np.testing.assert_allclose(got[2], want[2], rtol=1e-13)
    momentum = (mass[:, None] * got[0]).sum(axis=0)
    assert np.all(np.abs(momentum) <= 1e-13 * np.abs(mass[:, None] * got[0]).sum())


def test_searched_force_pass_matches_the_row_gather_reference():
    """``compute_hydro_forces(grid=)`` searches the compacted candidates: the
    half pairs the full-stencil reference finds, by key, with r to 2 ulp;
    every sum to 1e-12 of the row-gather kernel on them; and the bincount
    scatter is the ``np.add.at`` scatter bit for bit on equal inputs."""
    rng = np.random.default_rng(7)
    n = 150
    pos = rng.random((n, 3)) * 4.0
    vel = rng.normal(size=(n, 3)) * 0.2
    mass = rng.uniform(0.3, 0.7, n)
    d = compute_density(pos, vel, mass, rng.uniform(0.5, 2.0, n), np.full(n, 0.9), n_ngb=24)
    f = compute_hydro_forces(pos, vel, mass, d.h, d.dens, d.pres, d.csnd, omega=d.omega,
                             grid=d.grid)
    i, j, r = _stencil_pairs_reference(d.grid)
    keep = (r < np.maximum(d.h[i], d.h[j])) & (i < j)
    (gi, gj, gr), (i, j, r) = pairs_by_key(f.pairs), pairs_by_key((i[keep], j[keep], r[keep]))
    np.testing.assert_array_equal(gi, i)
    np.testing.assert_array_equal(gj, j)
    assert np.all(np.abs(gr - r) <= 2 * np.spacing(r))
    want = _hydro_force_reference(pos, vel, mass, d.h, d.dens, d.pres, d.csnd, d.omega, None,
                                  1.0, 2.0, DEFAULT_KERNEL, f.pairs)
    for got, ref, rtol in zip((f.acc, f.du_dt, f.v_signal), want, (1e-12, 1e-12, 1e-13)):
        np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol * np.abs(ref).max())

    i, j, _ = f.pairs
    w_i, w_j, dvec = rng.normal(size=len(i)), rng.normal(size=len(i)), pos[i] - pos[j]
    add_at = np.zeros((n, 3))
    for ax in range(3):
        np.add.at(add_at[:, ax], i, w_i * dvec[:, ax])
        np.add.at(add_at[:, ax], j, w_j * dvec[:, ax])
    planes = tuple(np.ascontiguousarray(dvec.T))
    np.testing.assert_array_equal(
        get_backend("numpy")._scatter_add_pairs(n, i, j, w_i, w_j, planes), add_at
    )
