"""ForceEngine: half-pair force parity, fast-path exactness, build budgets."""

import numpy as np

from repro.accel import ForceEngine
from repro.core.integrator import IntegratorConfig
from repro.core.runner import CoupledRunner
from repro.fdps.particles import ParticleType
from repro.serve import SurrogateServer
from repro.sph.density import compute_density
from repro.sph.forces import compute_hydro_forces
from repro.sph.kernels import DEFAULT_KERNEL
from repro.sn.turbulence import make_turbulent_box
from repro.surrogate.model import SedovBlastOracle, SNSurrogate
from repro.surrogate.voxelize import extract_region


def _ordered_pair_reference(pos, vel, mass, h, dens, pres, csnd, omega, divv, curlv,
                            alpha_visc=1.0, beta_visc=2.0):
    """The seed's ordered-pair hydro force loop, on a brute-force pair list."""
    kernel = DEFAULT_KERNEL
    n = len(pos)
    dmat = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    keep = dmat < np.maximum(h[:, None], h[None, :])
    np.fill_diagonal(keep, False)
    i, j = np.nonzero(keep)
    r = dmat[i, j]
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
    mu = h_bar * vdotr / (r**2 + 0.01 * h_bar**2)
    mu = np.where(vdotr < 0.0, mu, 0.0)
    f_i = np.abs(divv) / (np.abs(divv) + curlv + 1e-4 * csnd / np.maximum(h, 1e-300))
    balsara = 0.5 * (f_i[i] + f_i[j])
    visc = balsara * (-alpha_visc * c_bar * mu + beta_visc * mu**2) / rho_bar
    p_term_i = pres[i] / (omega[i] * dens_safe[i] ** 2)
    p_term_j = pres[j] / (omega[j] * dens_safe[j] ** 2)
    scal = mass[j] * (p_term_i * gf_i + p_term_j * gf_j + visc * gf_bar)
    acc = np.zeros((n, 3))
    for ax in range(3):
        np.add.at(acc[:, ax], i, -scal * dvec[:, ax])
    du_dt = np.bincount(
        i, weights=p_term_i * mass[j] * vdotr * gf_i + 0.5 * visc * mass[j] * vdotr * gf_bar,
        minlength=n,
    )
    w_rel = np.where(r > 0, vdotr / np.maximum(r, 1e-300), 0.0)
    vsig = csnd.copy()
    np.maximum.at(vsig, i, csnd[i] + csnd[j] - 3.0 * np.minimum(w_rel, 0.0))
    return acc, du_dt, vsig


def test_half_pair_forces_match_ordered_reference(rng):
    n = 200
    pos = rng.uniform(0, 1, (n, 3))
    vel = rng.normal(0, 2, (n, 3))
    mass = rng.uniform(0.5, 1.5, n)
    u = rng.uniform(0.5, 2.0, n)
    d = compute_density(pos, vel, mass, u, np.full(n, 0.3), n_ngb=40)
    f = compute_hydro_forces(
        pos, vel, mass, d.h, d.dens, d.pres, d.csnd,
        omega=d.omega, divv=d.divv, curlv=d.curlv,
    )
    acc_ref, du_ref, vsig_ref = _ordered_pair_reference(
        pos, vel, mass, d.h, d.dens, d.pres, d.csnd, d.omega, d.divv, d.curlv
    )
    scale = np.abs(acc_ref).max()
    assert np.allclose(f.acc, acc_ref, atol=1e-10 * scale, rtol=1e-10)
    assert np.allclose(f.du_dt, du_ref, atol=1e-10 * max(np.abs(du_ref).max(), 1.0))
    assert np.allclose(f.v_signal, vsig_ref)


def _gas_box(seed=0, n_per_side=8):
    return make_turbulent_box(n_per_side=n_per_side, side=60.0, mean_density=0.05,
                              temperature=100.0, mach=2.0, seed=seed)


def test_fast_path_matches_cold_recompute(rng):
    """step(7) contract: after u and v changed at fixed positions, the cached
    pair lists give the same answer as a from-scratch hydro pass."""
    ps = _gas_box(seed=4)
    cfg = IntegratorConfig(self_gravity=False)
    engine = ForceEngine(cfg)
    engine.hydro(ps, "1st")
    # Cooling-like u change and kick-like velocity change, positions fixed.
    ps.u[:] = np.maximum(ps.u * rng.uniform(0.5, 1.5, len(ps)), 1e-12)
    ps.vel += rng.normal(0, 0.1, ps.vel.shape)
    fast = engine.refresh_hydro(ps, "2nd")
    assert fast is not None
    acc_f, du_f, vsig_f = (a.copy() for a in fast)
    pres_f, csnd_f = ps.pres.copy(), ps.csnd.copy()
    divv_f, curlv_f = ps.divv.copy(), ps.curlv.copy()

    cold_engine = ForceEngine(cfg)
    acc_c, du_c, vsig_c = cold_engine.hydro(ps, "1st")
    scale = max(np.abs(acc_c).max(), 1e-300)
    assert np.allclose(acc_f, acc_c, atol=1e-10 * scale, rtol=1e-10)
    assert np.allclose(du_f, du_c, atol=1e-10 * max(np.abs(du_c).max(), 1.0))
    assert np.allclose(vsig_f, vsig_c, rtol=1e-12)
    assert np.allclose(pres_f, ps.pres) and np.allclose(csnd_f, ps.csnd)
    assert np.allclose(divv_f, ps.divv) and np.allclose(curlv_f, ps.curlv)


def test_fast_path_unavailable_after_position_change():
    ps = _gas_box(seed=5)
    engine = ForceEngine(IntegratorConfig(self_gravity=False))
    engine.hydro(ps, "1st")
    assert engine.fast_path_available
    ps.pos += 0.01
    engine.notify_positions_changed()
    assert not engine.fast_path_available
    assert engine.refresh_hydro(ps, "2nd") is None


def test_fast_path_unavailable_after_membership_change():
    ps = _gas_box(seed=6)
    engine = ForceEngine(IntegratorConfig(self_gravity=False))
    engine.hydro(ps, "1st")
    engine.notify_membership_changed()
    assert engine.refresh_hydro(ps, "2nd") is None


def test_extract_region_via_index_matches_scan():
    ps = _gas_box(seed=7)
    engine = ForceEngine(IntegratorConfig(self_gravity=False))
    engine.hydro(ps, "1st")
    center = np.array([5.0, -3.0, 2.0])
    r_idx, idx = extract_region(ps, center, 30.0, index=engine.index)
    r_ref, idx_ref = extract_region(ps, center, 30.0)
    assert np.array_equal(idx, idx_ref)
    assert np.array_equal(r_idx.pid, r_ref.pid)


def _steady_integrator(n_per_side=8, **cfg_kw):
    ps = _gas_box(seed=8, n_per_side=n_per_side)
    cfg = IntegratorConfig(
        enable_cooling=True, enable_star_formation=False, n_pool=5,
        latency_steps=5, **cfg_kw
    )
    surr = SNSurrogate(oracle=SedovBlastOracle(t_after=0.01), n_grid=8, side=60.0)
    return CoupledRunner(ps, SurrogateServer(surrogate=surr), n_ranks=1, config=cfg)


def test_steady_step_build_budget():
    """Acceptance instrumentation: in steady state (no SNe, no star
    formation) each step performs exactly one grid build and at most one
    tree build, and the h solve of step (7) is skipped entirely."""
    sim = _steady_integrator(self_gravity=True, direct_gravity_below=0)
    sim.run(2)  # warm up (step 0 pays the extra startup force pass)
    stats = sim.engine.index.stats
    g0, t0 = stats.grid_builds, stats.tree_builds
    sim.run(4)
    assert stats.grid_builds - g0 == 4      # one per step: the density solve
    assert stats.tree_builds - t0 <= 4      # at most one per step
    assert sim.engine.fast_path_available


def test_surrogate_step_physics_unchanged_by_engine():
    """The engine refactor must not change the integrated physics: energies
    stay finite and gas stays the same set."""
    sim = _steady_integrator(self_gravity=False)
    n_gas = int(sim.ps.where_type(ParticleType.GAS).sum())
    sim.run(5)
    d = sim.diagnostics()
    assert d["n_gas"] == n_gas
    assert np.isfinite(d["kinetic_energy"]) and np.isfinite(d["thermal_energy"])


def test_work_weights_surcharge_gas():
    sim = _steady_integrator(self_gravity=False)
    w = sim.engine.work_weights(sim.ps)
    gas = sim.ps.where_type(ParticleType.GAS)
    assert np.all(w[gas] > 1.0)
    assert np.all(w[~gas] == 1.0) or not (~gas).any()
    # The surcharge is the Table-3-anchored hydro/gravity work ratio.
    from repro.perf.costmodel import hydro_gravity_work_ratio

    assert np.allclose(w[gas], 1.0 + hydro_gravity_work_ratio())


def test_unconverged_kernel_sizes_are_logged_and_counted(monkeypatch, caplog):
    """A solve that runs out of sweeps is visible: a warning on the
    ``repro.accel`` logger and a running count on the engine."""
    import functools
    import logging

    from repro.accel import engine as engine_mod

    ps = make_turbulent_box(n_per_side=8, side=60.0, seed=2)
    ps.h[:] *= 3.0                                    # a poor guess ...
    monkeypatch.setattr(                              # ... and one sweep to fix it
        engine_mod, "compute_density", functools.partial(compute_density, max_iter=1)
    )
    engine = ForceEngine(IntegratorConfig())
    with caplog.at_level(logging.WARNING, logger="repro.accel"):
        engine.hydro(ps, "1st")
    assert engine.n_unconverged > 0
    assert f"{engine.n_unconverged} of {len(ps)} gas particles" in caplog.text

    monkeypatch.undo()
    caplog.clear()
    healthy = ForceEngine(IntegratorConfig())
    with caplog.at_level(logging.WARNING, logger="repro.accel"):
        healthy.hydro(ps, "1st")
    assert healthy.n_unconverged == 0 and not caplog.records
