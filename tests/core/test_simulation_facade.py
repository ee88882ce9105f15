"""GalaxySimulation facade: configuration paths, SFR, domain decomposition."""

import dataclasses

import numpy as np
import pytest

from repro.core.integrator import IntegratorConfig
from repro.core.simulation import GalaxySimulation
from repro.sn.turbulence import make_turbulent_box
from repro.surrogate.model import SedovBlastOracle, SNSurrogate
from repro.util.constants import temperature_to_internal_energy


def _small_box(seed=0):
    return make_turbulent_box(n_per_side=7, side=30.0, mean_density=0.1,
                              temperature=500.0, mach=1.0, seed=seed)


def _fast_cfg(**kw):
    kw.setdefault("enable_cooling", False)
    kw.setdefault("enable_star_formation", False)
    kw.setdefault("self_gravity", False)
    return IntegratorConfig(**kw)


def test_latency_defaults_to_n_pool():
    sim = GalaxySimulation(_small_box(), dt=1e-3, n_pool=7,
                           config=_fast_cfg(), surrogate_grid=8)
    assert sim.pool.latency_steps == 7
    assert sim.pool.n_pool == 7


def test_config_values_are_used_and_keywords_win():
    # dt / n_pool / seed left out take the config's values ...
    cfg = _fast_cfg(dt=1e-3, n_pool=4, seed=9)
    sim = GalaxySimulation(_small_box(), config=cfg, surrogate_grid=8)
    used = sim.integrator.cfg
    assert (used.dt, used.n_pool, used.latency_steps, used.seed) == (1e-3, 4, 4, 9)
    assert (sim.pool.n_pool, sim.pool.latency_steps, sim.pool.seed) == (4, 4, 9)
    sim.run(1)
    assert sim.time == pytest.approx(1e-3)
    # ... and a keyword given wins over the config, which stays untouched.
    sim = GalaxySimulation(_small_box(), dt=2e-3, n_pool=3, seed=1, config=cfg,
                           surrogate_grid=8)
    used = sim.integrator.cfg
    assert (used.dt, used.n_pool, used.latency_steps, used.seed) == (2e-3, 3, 3, 1)
    assert (cfg.dt, cfg.n_pool, cfg.seed) == (1e-3, 4, 9)


def test_custom_latency():
    sim = GalaxySimulation(_small_box(), dt=1e-3, n_pool=4, latency_steps=9,
                           config=_fast_cfg(), surrogate_grid=8)
    assert sim.pool.latency_steps == 9


def test_custom_surrogate_is_used():
    surr = SNSurrogate(oracle=SedovBlastOracle(t_after=0.05), n_grid=8, side=30.0)
    sim = GalaxySimulation(_small_box(), dt=1e-3, surrogate=surr,
                           config=_fast_cfg())
    assert sim.server.local_surrogate is surr


def test_default_oracle_horizon_matches_latency():
    # 50 steps x 2e-3 Myr = 0.1 Myr: the paper's prediction horizon.
    sim = GalaxySimulation(_small_box(), dt=2e-3, n_pool=50,
                           config=_fast_cfg(), surrogate_grid=8)
    assert sim.server.local_surrogate.oracle.t_after == pytest.approx(0.1)


def test_run_until():
    sim = GalaxySimulation(_small_box(), dt=1e-3, n_pool=3,
                           config=_fast_cfg(), surrogate_grid=8)
    sim.run_until(0.0035)
    assert sim.step_count == 4
    assert sim.time == pytest.approx(0.004)


def test_run_until_counts_steps_from_the_call(tmp_path):
    # max_steps bounds the steps of this call, not the run's step count: a
    # run restored at step 3 still takes 2 steps under max_steps=2.
    with GalaxySimulation(_small_box(), dt=1e-3, n_pool=3,
                          config=_fast_cfg(), surrogate_grid=8) as sim:
        sim.run(3)
        path = sim.save(tmp_path / "ck")
    with GalaxySimulation.restore(path) as restored:
        assert restored.step_count == 3
        assert restored.run_until(1.0, max_steps=2) == 2
        assert restored.step_count == 5
        assert restored.time == pytest.approx(0.005)


def test_sfr_window():
    sim = GalaxySimulation(_small_box(), dt=1e-3, n_pool=3,
                           config=_fast_cfg(), surrogate_grid=8)
    sim.integrator.sf_history = [(0.001, 5.0), (0.002, 3.0)]
    sim.integrator.time = 0.0025
    assert sim.star_formation_rate(window=1.0) == pytest.approx(8.0)
    # A window ending before the events sees nothing.
    sim.integrator.time = 10.0
    assert sim.star_formation_rate(window=1.0) == 0.0


def test_caller_config_is_not_mutated():
    # One config object reused for two runs: neither run writes to it, and
    # each keeps its own dt / seed / pool sizing.
    cfg = _fast_cfg()
    before = dataclasses.asdict(cfg)
    a = GalaxySimulation(_small_box(), dt=1e-3, n_pool=3, seed=1, config=cfg,
                         surrogate_grid=8)
    b = GalaxySimulation(_small_box(), dt=4e-3, n_pool=6, latency_steps=2,
                         seed=2, config=cfg, surrogate_grid=8)
    assert dataclasses.asdict(cfg) == before
    ca, cb = a.integrator.cfg, b.integrator.cfg
    assert (ca.dt, ca.seed, ca.n_pool, ca.latency_steps) == (1e-3, 1, 3, 3)
    assert (cb.dt, cb.seed, cb.n_pool, cb.latency_steps) == (4e-3, 2, 6, 2)
    assert ca.self_gravity is False and cb.self_gravity is False


def test_domain_decomposition_follows_n_ranks():
    sim = GalaxySimulation(_small_box(), dt=1e-3, n_pool=3, config=_fast_cfg(),
                           surrogate_grid=8, n_ranks=4)
    sim.run(1)
    assert sim.pool is sim.integrator.pool      # one pool client for the four ranks
    assert sim.pool.pool_rank_base == 4
    assert sim.integrator.decomp.n_domains == 4
    assert sum(sim.diagnostics()["rank_counts"]) == len(sim.ps)
    assert "Exchange_Particle" in sim.integrator.driver.timers[0].totals()


def test_star_formation_inside_full_loop():
    # Dense cold gas + aggressive efficiency: stars must appear within a
    # couple of steps of the full scheme and be recorded in diagnostics.
    from repro.physics.star_formation import StarFormationModel

    box = _small_box(seed=3)
    box.u[:] = temperature_to_internal_energy(30.0)
    box.divv[:] = -1.0
    cfg = _fast_cfg(enable_star_formation=True)
    # The hydro pass recomputes the true SPH density (~0.09 M_sun/pc^3 for
    # this box), so the threshold must sit below it.
    sf = StarFormationModel(density_threshold=0.01, temperature_threshold=500.0,
                            efficiency=1e9, require_converging=False)
    sim = GalaxySimulation(box, dt=1e-3, n_pool=3, config=cfg,
                           surrogate_grid=8, star_formation=sf)
    sim.run(2)
    d = sim.diagnostics()
    assert d["n_stars"] > 0
    assert d["n_sf_events"] > 0
    assert sim.star_formation_rate(window=1.0) > 0.0
    # New stars carry unique fresh pids.
    assert len(np.unique(sim.ps.pid)) == len(sim.ps)


def test_cooling_inside_full_loop():
    box = _small_box(seed=4)
    hot = temperature_to_internal_energy(1.0e6)
    box.u[:] = hot
    cfg = _fast_cfg(enable_cooling=True)
    sim = GalaxySimulation(box, dt=1e-3, n_pool=3, config=cfg, surrogate_grid=8)
    sim.run(2)
    assert sim.ps.u.mean() < hot  # radiative losses happened
    assert "Feedback_and_Cooling" in sim.timing_breakdown()


def test_gas_cfl_diagnostic():
    box = _small_box(seed=5)
    sim = GalaxySimulation(box, dt=1e-3, n_pool=3, config=_fast_cfg(),
                           surrogate_grid=8)
    sim.run(1)
    dt_cfl = sim.integrator.gas_cfl_timestep()
    assert 0 < dt_cfl < np.inf
