"""Surrogate particles re-enter the density solve with a fitting ``h``.

A pool node guesses ``h`` from its predicted density field; taken as is
(it used to come back at the 60 pc region side) it coarsens the neighbor
grid of the post-SN density pass for every gas particle and sends the h
solve to its iteration cap.  ``CoupledRunner.receive_sne`` re-derives ``h``
against the merged set instead: the post-SN pass keeps the grid of the pass
before it and converges with sweeps to spare.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import GalaxySimulation
from repro.accel import engine as engine_mod
from repro.core.integrator import IntegratorConfig
from repro.fdps.particles import ParticleSet, ParticleType
from repro.sn.turbulence import make_turbulent_box
from repro.sph.density import compute_density

DT = 2e-3
LATENCY = 2
MAX_ITER = inspect.signature(compute_density).parameters["max_iter"].default


def _storm(n_stars: int, seed: int = 5) -> ParticleSet:
    """A turbulent box with one SN progenitor per step planted inside it
    (the shape of the e2e ``sn_storm`` workload, smaller)."""
    box = make_turbulent_box(n_per_side=10, side=150.0, seed=seed)
    rng = np.random.default_rng(seed)
    stars = ParticleSet.from_arrays(
        pos=rng.uniform(-45.0, 45.0, (n_stars, 3)),
        mass=np.full(n_stars, 10.0),
        pid=np.arange(len(box), len(box) + n_stars),
        ptype=np.full(n_stars, int(ParticleType.STAR)),
        eps=np.full(n_stars, 1.0),
    )
    stars.tsn[:] = (np.arange(n_stars) + 0.5) * DT
    return box.append(stars)


@pytest.fixture
def density_passes(monkeypatch):
    """Every ``compute_density`` call of the force engine, as
    (grid cell, sweeps, n_unconverged)."""
    passes: list[tuple[float, int, int]] = []

    def spy(*args, **kwargs):
        d = compute_density(*args, **kwargs)
        passes.append((d.grid.cell, d.iterations, d.n_unconverged))
        return d

    monkeypatch.setattr(engine_mod, "compute_density", spy)
    return passes


def test_post_sn_density_pass_keeps_the_grid_and_converges(density_passes):
    n_steps = 8
    sim = GalaxySimulation(
        _storm(n_steps), dt=DT, latency_steps=LATENCY, n_pool=4, surrogate_grid=8,
        config=IntegratorConfig(enable_star_formation=False, direct_gravity_below=0),
    )
    with sim:
        sim.run(LATENCY)
        sn_steps = 0
        for _ in range(n_steps - LATENCY):
            done = len(density_passes)
            before = sim.ps.pos.copy()
            sim.run(1)
            if len(density_passes) - done < 2:
                continue                  # no prediction landed on this step
            sn_steps += 1
            (cell_pre, _, _), (cell_post, sweeps_post, _) = density_passes[done:]
            # (d) same binning as the pass before the replacement ...
            assert cell_post == pytest.approx(cell_pre, rel=1e-12)
            # ... and the solve is nowhere near its cap.
            assert sweeps_post <= MAX_ITER - 2
            assert not np.array_equal(before, sim.ps.pos)
        assert sn_steps >= 4
        assert all(n_unconverged == 0 for _, _, n_unconverged in density_passes)
        assert sim.integrator.engine.n_unconverged == 0
        assert sim.diagnostics()["n_sn_events"] == n_steps


def test_reseeded_kernel_sizes_fit_the_merged_set():
    """Around a re-inserted region every touched particle holds ``n_ngb``
    smoothed neighbors, and nothing exceeds the h of the gas that stayed."""
    ps = make_turbulent_box(n_per_side=10, side=150.0, seed=1)
    sim = GalaxySimulation(
        ps, dt=DT, config=IntegratorConfig(enable_star_formation=False)
    )
    with sim:
        sim.run(1)                                       # converged h everywhere
        runner, ps = sim.integrator, sim.ps
        rows = np.flatnonzero(np.all(np.abs(ps.pos) < 30.0, axis=1))
        stayed = np.setdiff1d(np.arange(len(ps)), rows)
        h_cap = ps.h[stayed].max()
        vacated = ps.pos[rows]
        # A blast: the region's gas swept into a thin shell, h overestimated.
        rng = np.random.default_rng(0)
        shell = rng.normal(size=(rows.size, 3))
        ps.pos[rows] = 25.0 * shell / np.linalg.norm(shell, axis=1, keepdims=True)
        ps.h[rows] = 60.0
        runner._reseed_kernel_sizes(rows, vacated)
        assert ps.h.max() == h_cap
        assert np.all(ps.h[rows] < 60.0) and np.all(ps.h > 0.0)
        d = compute_density(ps.pos, ps.vel, ps.mass, ps.u, ps.h, n_ngb=runner.cfg.n_ngb)
        assert d.iterations <= 3 and d.n_unconverged == 0


def test_reseed_with_no_gas_left_to_bound_it():
    """Every gas particle replaced: the region side is the bound, and a gas
    count below ``n_ngb`` still gets a finite positive ``h``."""
    rng = np.random.default_rng(2)
    n = 12
    ps = ParticleSet.from_arrays(
        pos=rng.uniform(-20.0, 20.0, (n, 3)), mass=np.ones(n), pid=np.arange(n),
        ptype=np.full(n, int(ParticleType.GAS)), eps=np.full(n, 1.0),
    )
    ps.h[:] = 500.0
    ps.u[:] = 10.0
    sim = GalaxySimulation(ps, dt=DT, config=IntegratorConfig(enable_star_formation=False))
    with sim:
        runner = sim.integrator
        runner._reseed_kernel_sizes(np.arange(n), runner.ps.pos.copy())
        h = runner.ps.h
        assert np.all(np.isfinite(h)) and np.all(h > 0.0)
        assert h.max() <= runner.cfg.region_side


def test_local_edit_ends_where_the_blanket_invalidation_ends(monkeypatch):
    """Step (7) on the repaired grid finds the same pairs as on a rebuilt one
    and sums them in another order: 12 storm steps end within 1e-12 of the
    run that invalidates everything on every replacement."""
    from repro.accel import ForceEngine

    def run() -> tuple[np.ndarray, dict]:
        sim = GalaxySimulation(
            _storm(12), dt=DT, latency_steps=LATENCY, n_pool=4, surrogate_grid=8,
            config=IntegratorConfig(enable_star_formation=False, direct_gravity_below=0),
        )
        with sim:
            sim.run(12)
            return sim.ps.pack(), sim.integrator.engine.index.stats.as_dict()

    edited, stats = run()
    monkeypatch.setattr(
        ForceEngine, "notify_rows_moved", lambda self, ps, rows: self.notify_positions_changed()
    )
    rebuilt, stats_rebuilt = run()
    assert stats["grid_repairs"] >= 8 and stats_rebuilt["grid_repairs"] == 0
    assert stats["grid_builds"] <= stats_rebuilt["grid_builds"] - 8
    finite = np.isfinite(rebuilt)                       # tsn is inf off the stars
    assert np.array_equal(edited[~finite], rebuilt[~finite])
    a, b = np.where(finite, edited, 0.0), np.where(finite, rebuilt, 0.0)
    # Relative to the value, or to its packed column's largest near a zero.
    assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(b), np.abs(b).max(axis=0)))
