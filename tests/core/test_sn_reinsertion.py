"""Surrogate particles re-enter the density solve with a fitting ``h``.

A pool node guesses ``h`` from its predicted density field; taken as is
(it used to come back at the 60 pc region side) it coarsens the neighbor
grid of the post-SN density pass for every gas particle and sends the h
solve to its iteration cap.  ``CoupledRunner.receive_sne`` caps it at the largest
``h`` of the gas that stayed, and the bracketed kernel-size solve of step (7)
does the rest: the post-SN pass keeps the grid of the pass before it and
converges with sweeps to spare.
"""

from __future__ import annotations

import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from repro import GalaxySimulation
from repro.accel import engine as engine_mod
from repro.core.integrator import IntegratorConfig
from repro.fdps.particles import ParticleSet, ParticleType
from repro.sn.turbulence import make_turbulent_box
from repro.sph.density import compute_density
from repro.sph.kernels import DEFAULT_KERNEL

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


def _land(runner, predicted: ParticleSet) -> None:
    """Step (4) with ``predicted`` as the one prediction due: the pool hands
    it over, ``receive_sne`` does the rest."""
    event = SimpleNamespace(event_id=0)
    runner.pools[0].collect = lambda step: [(event, predicted)]
    runner.receive_sne()


def test_reseeded_kernel_sizes_fit_the_merged_set():
    """A re-inserted blast shell enters step (7) with no ``h`` above that of
    the gas that stayed, and the one solver fits every touched particle to
    the merged set with sweeps to spare — no reseed in front of it."""
    ps = make_turbulent_box(n_per_side=10, side=150.0, seed=1)
    sim = GalaxySimulation(
        ps, dt=DT, config=IntegratorConfig(enable_star_formation=False)
    )
    with sim:
        sim.run(1)                                       # converged h everywhere
        runner, ps = sim.integrator, sim.ps
        runner.compute_forces("1st")                     # the grid step (7) edits
        rows = np.flatnonzero(np.all(np.abs(ps.pos) < 30.0, axis=1))
        stayed = np.setdiff1d(np.arange(len(ps)), rows)
        h_cap = ps.h[stayed].max()
        # A blast: the region's gas swept into a thin shell, h overestimated.
        predicted = ps.select(rows)
        rng = np.random.default_rng(0)
        shell = rng.normal(size=(rows.size, 3))
        predicted.pos[:] = 25.0 * shell / np.linalg.norm(shell, axis=1, keepdims=True)
        predicted.h[:] = 60.0
        _land(runner, predicted)
        assert np.array_equal(ps.pos[rows], predicted.pos)
        assert ps.h.max() == h_cap
        builds = runner.engine.index.stats.grid_builds
        runner.engine.hydro(ps, "2nd")
        d = runner.engine._hydro_cache.density
        assert d.iterations <= 5 and d.n_unconverged == 0
        assert runner.engine.n_unconverged == 0
        assert runner.engine.index.stats.grid_builds == builds      # the edited grid
        assert np.all(ps.h[rows] < 60.0) and np.all(ps.h > 0.0)
        n_smooth = (
            4.0 * np.pi / 3.0 * ps.h**3
            * DEFAULT_KERNEL.value(
                np.linalg.norm(ps.pos[:, None, :] - ps.pos[None, :, :], axis=2), ps.h[:, None]
            ).sum(axis=1)
        )
        assert np.all(np.abs(n_smooth - runner.cfg.n_ngb) <= 0.05 * runner.cfg.n_ngb)


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
        _land(runner, runner.ps.copy())
        assert runner.ps.h.max() <= runner.cfg.region_side
        runner.engine.hydro(runner.ps, "2nd")
        d = runner.engine._hydro_cache.density
        assert d.iterations <= 5 and d.n_unconverged == 0
        h = runner.ps.h
        assert np.all(np.isfinite(h)) and np.all(h > 0.0)


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
