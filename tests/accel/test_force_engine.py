"""ForceEngine: half-pair force parity, fast-path exactness, build budgets."""

import numpy as np
import pytest

from repro import GalaxySimulation
from repro.accel import ForceEngine
from repro.core.integrator import IntegratorConfig
from repro.core.runner import CoupledRunner
from repro.fdps.particles import ParticleSet, ParticleType
from repro.serve import SurrogateServer
from repro.sph.density import compute_density
from repro.sph.forces import compute_hydro_forces
from repro.sph.kernels import DEFAULT_KERNEL
from repro.sn.turbulence import make_turbulent_box
from repro.surrogate.model import SedovBlastOracle, SNSurrogate
from repro.surrogate.voxelize import extract_region
from tests.conftest import pairs_by_key


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
    h_before = ps.h.copy()
    ps.h[:] *= 3.0                                    # a poor guess ...
    monkeypatch.setattr(                              # ... and one sweep to fix it
        engine_mod, "compute_density", functools.partial(compute_density, max_iter=1)
    )
    engine = ForceEngine(IntegratorConfig())
    with caplog.at_level(logging.WARNING, logger="repro.accel"):
        engine.hydro(ps, "1st")
    assert engine.n_unconverged > 0
    assert f"{engine.n_unconverged} of {len(ps)} gas particles" in caplog.text
    # ... with what the solve knew about the worst of them: every guess was
    # too large, so its one sample is the upper end and no lower end exists.
    d = engine._hydro_cache.density
    k, lo, hi, cell = d.worst_bracket
    assert (lo, hi, cell) == (0.0, 3.0 * h_before[k], d.grid.cell)
    assert f"particle {k}, has its root in (lo=0, hi={hi:.6g})" in caplog.text
    assert f"cell {cell:.6g}" in caplog.text

    monkeypatch.undo()
    caplog.clear()
    healthy = ForceEngine(IntegratorConfig())
    with caplog.at_level(logging.WARNING, logger="repro.accel"):
        healthy.hydro(ps, "1st")
    assert healthy.n_unconverged == 0 and not caplog.records


# ------------------------------------------------- passes that share one grid
def _stars_then_gas(seed: int) -> ParticleSet:
    """Five stars *ahead of* a gas box: global rows differ from gas rows, so
    every index <-> grid mapping goes through the scope."""
    box = _gas_box(seed=seed)
    rng = np.random.default_rng(seed)
    stars = ParticleSet.from_arrays(
        pos=rng.uniform(-20.0, 20.0, (5, 3)), mass=np.full(5, 10.0),
        pid=np.arange(len(box), len(box) + 5),
        ptype=np.full(5, int(ParticleType.STAR)), eps=np.full(5, 1.0),
    )
    return stars.append(box)


def test_second_pass_at_unchanged_positions_reuses_the_grid():
    """``compute_density`` asks for its grid under the gas scope, so a second
    full pass without a notification finds the first one's (it used to ask
    with no scope and rebuild every time)."""
    ps = _stars_then_gas(seed=9)
    engine = ForceEngine(IntegratorConfig(self_gravity=False))
    first = [a.copy() for a in engine.hydro(ps, "1st")]
    stats = engine.index.stats
    builds, reuses = stats.grid_builds, stats.grid_reuses
    second = engine.hydro(ps, "2nd")
    assert stats.grid_builds == builds and stats.grid_reuses > reuses
    for a, b in zip(first, second):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(a).max())
    # Box queries still report global rows through that scope.
    center = np.array([5.0, -3.0, 2.0])
    _, idx = extract_region(ps, center, 30.0, index=engine.index)
    assert np.array_equal(idx, extract_region(ps, center, 30.0)[1])


def _replace_a_region(ps: ParticleSet, seed: int) -> np.ndarray:
    """What ``receive_sne`` does to the state: the gas of a central sphere
    swept into a shell, hotter, with an ``h`` no larger than the rest's."""
    gas = ps.where_type(ParticleType.GAS)
    rows = np.flatnonzero(gas & (np.linalg.norm(ps.pos, axis=1) < 14.0))
    assert 0.02 * len(ps) < rows.size < 0.2 * len(ps)
    stayed = gas.copy()
    stayed[rows] = False
    shell = np.random.default_rng(seed).normal(size=(rows.size, 3))
    ps.pos[rows] = 12.0 * shell / np.linalg.norm(shell, axis=1, keepdims=True)
    ps.u[rows] *= 50.0
    ps.h[rows] = np.minimum(ps.h[rows], ps.h[stayed].max())
    return rows


@pytest.mark.parametrize(
    "backend, released",
    [
        pytest.param("numpy", False, id="numpy"),
        pytest.param("pikg", False, id="pikg"),
        pytest.param("numpy", True, id="numpy-released"),
    ],
)
def test_step7_pass_on_the_repaired_grid_matches_a_cold_pass(backend, released, caplog):
    """After ``notify_rows_moved`` the full pass runs on the edited grid of
    the pass before and finds what a fresh engine finds: gather set,
    ``n_neighbors`` and sweep count exact, every sum to 1e-12.  With its
    candidate list released first, the edit falls back to a rebuild and
    says why — same answer, one more grid."""
    import logging

    cfg = IntegratorConfig(self_gravity=False, backend=backend)
    ps = _stars_then_gas(seed=10)
    engine = ForceEngine(cfg)
    engine.hydro(ps, "1st")
    if released:
        engine.index.release_pairs()
    rows = _replace_a_region(ps, seed=10)
    rows = np.concatenate([rows, rows[:3]])         # two regions naming one pid
    with caplog.at_level(logging.INFO, logger="repro.accel"):
        engine.notify_rows_moved(ps, rows)
    assert ("no candidate list (released)" in caplog.text) == released
    assert not engine.fast_path_available and engine.refresh_hydro(ps, "2nd") is None
    repaired = not released
    stats = engine.index.stats
    assert stats.grid_repairs == int(repaired) and engine.index.has_grid == repaired

    cold_ps = ps.copy()
    builds = stats.grid_builds
    got = [a.copy() for a in engine.hydro(ps, "2nd")]
    assert stats.grid_builds - builds == (0 if repaired else 1)
    cold = ForceEngine(cfg)
    want = cold.hydro(cold_ps, "2nd")

    d_got, d_want = engine._hydro_cache.density, cold._hydro_cache.density
    for a, b in zip(pairs_by_key(d_got.pairs), pairs_by_key(d_want.pairs)):
        assert np.array_equal(a, b)
    assert np.array_equal(d_got.n_neighbors, d_want.n_neighbors)
    assert d_got.iterations == d_want.iterations
    for a, b in zip(
        (ps.h, ps.dens, *got[:2]), (cold_ps.h, cold_ps.dens, *want[:2])
    ):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


def test_candidate_generations_are_counted_and_the_list_gauged():
    """A pass counts the candidate lists it generates (one per grid it
    builds) and their pairs, and gauges the i/j/r bytes of the list it ran
    on; a pass that reuses the cached list or runs on the repaired one
    generates none."""
    from repro.obs.trace import Tracer
    from repro.util.timers import TimerRegistry

    tr = Tracer(run_id="candidates")
    engine = ForceEngine(IntegratorConfig(self_gravity=False), timers=TimerRegistry(tracer=tr))
    stats = engine.index.stats
    ps = _stars_then_gas(seed=12)

    def ran_on() -> int:
        """Pairs of the list the last pass ran on; the gauge is its bytes."""
        n_pairs = len(engine.index._grid.compact_self_pairs()[0])
        assert tr.gauges["accel.candidate_bytes"] == 3 * 8 * n_pairs
        return n_pairs

    engine.hydro(ps, "1st")
    assert tr.counters["accel.candidate_generations"] == stats.grid_builds >= 1
    assert tr.counters["accel.candidate_pairs"] >= ran_on() > 0
    counts = dict(tr.counters)
    engine.hydro(ps, "2nd")                                   # the cached list
    engine.notify_rows_moved(ps, _replace_a_region(ps, seed=12))
    engine.hydro(ps, "2nd")                                   # the repaired list
    assert stats.grid_repairs == 1
    for name in ("accel.candidate_generations", "accel.candidate_pairs"):
        assert tr.counters[name] == counts[name]
    ran_on()
    engine.notify_positions_changed()
    builds = stats.grid_builds
    engine.hydro(ps, "1st")                                   # a fresh list
    assert tr.counters["accel.candidate_generations"] - counts["accel.candidate_generations"] \
        == stats.grid_builds - builds >= 1
    assert tr.counters["accel.candidate_pairs"] - counts["accel.candidate_pairs"] >= ran_on()


def test_edit_that_cannot_be_exact_invalidates_and_says_so_once(caplog):
    """Rows outside the gas scope, a changed particle count, a position that
    is not finite: full invalidation each time, one log line per cause
    however often it recurs."""
    import logging

    ps = _stars_then_gas(seed=11)
    engine = ForceEngine(IntegratorConfig(self_gravity=False))
    gas_row = int(np.flatnonzero(ps.where_type(ParticleType.GAS))[7])

    def edit(ps_now, rows) -> None:
        engine.notify_rows_moved(ps_now, np.asarray(rows))
        assert not engine.index.has_grid and not engine.fast_path_available

    with caplog.at_level(logging.INFO, logger="repro.accel"):
        for _ in range(3):
            engine.hydro(ps, "1st")
            edit(ps, [0])                            # a star: not in the scope
            engine.hydro(ps, "1st")
            edit(ps.select(np.arange(len(ps) - 1)), [gas_row])
            engine.hydro(ps, "1st")
            home = ps.pos[gas_row].copy()
            ps.pos[gas_row] = np.nan                 # nowhere: cannot be binned
            edit(ps, [gas_row])
            ps.pos[gas_row] = home
        engine.notify_rows_moved(ps, np.array([gas_row]))    # nothing cached at all
    causes = [r.getMessage() for r in caplog.records if "instead of repaired" in r.getMessage()]
    assert len(causes) == 4 and len(set(causes)) == 4
    assert engine.index.stats.grid_repairs == 0


def test_candidate_lists_end_with_step7_on_both_branches():
    """The compact list lives from the first pass to the end of step (7) —
    cached-pairs refresh or full pass alike — and not into the next step."""
    from tests.core.test_sn_reinsertion import DT, LATENCY, _storm

    sim = GalaxySimulation(
        _storm(6), dt=DT, latency_steps=LATENCY, n_pool=4, surrogate_grid=8,
        config=IntegratorConfig(enable_star_formation=False),
    )
    with sim:
        engine = sim.integrator.engine
        fallbacks = 0
        for _ in range(6):
            repairs = engine.index.stats.grid_repairs
            sim.run(1)
            assert engine.index.has_grid and not engine.index._grid.has_compact_pairs
            # A step that repaired took the full-pass branch of step (7).
            fallbacks += engine.index.stats.grid_repairs - repairs
        assert 0 < fallbacks < 6


def test_conventional_integrator_releases_after_its_only_pass():
    from repro.core.conventional import ConventionalIntegrator

    integ = ConventionalIntegrator(_gas_box(seed=12), enable_star_formation=False)
    integ.compute_forces("1st")
    assert integ.engine.index.has_grid and not integ.engine.index._grid.has_compact_pairs
