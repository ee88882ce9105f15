"""The step-7 region pass: after ``notify_rows_moved`` the density solve
re-solves only the gas the moved rows touched, bit for bit the full solve on
the same edited grid."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import ForceEngine
from repro.core.integrator import IntegratorConfig
from repro.fdps.particles import ParticleSet, ParticleType
from repro.ic.galaxy import MW_SPEC, make_mw_model
from repro.obs.trace import Tracer
from repro.util.timers import TimerRegistry
from tests.accel.test_force_engine import _stars_then_gas

#: The gas fields a pass writes onto the particle set.
_FIELDS = ("h", "dens", "fgrad", "divv", "curlv", "pres", "csnd")


@functools.lru_cache(maxsize=1)
def _disk_ic() -> ParticleSet:
    return make_mw_model(1200, seed=3, spec=MW_SPEC.scaled(0.01),
                         count_fractions=(0.02, 0.02, 0.96))


def _disk() -> ParticleSet:
    """A gas disk whose kernel sizes span far more than the cell: its
    density passes run on reach lists."""
    return _disk_ic().copy()


def _twin_engines(ps: ParticleSet) -> tuple[list[ForceEngine], list[ParticleSet], Tracer]:
    """Two engines after the same converged pass on two copies of ``ps``;
    the first counts on a tracer."""
    tr = Tracer(run_id="region")
    cfg = IntegratorConfig(self_gravity=False)
    engines = [ForceEngine(cfg, timers=TimerRegistry(tracer=tr)), ForceEngine(cfg)]
    states = [ps.copy(), ps.copy()]
    for engine, state in zip(engines, states):
        engine.hydro(state, "1st")               # from the IC's guess
        engine.notify_positions_changed()
        engine.hydro(state, "1st")               # converged: the step-3 pass
    return engines, states, tr


def _land(ps: ParticleSet, rows: np.ndarray, new_pos: np.ndarray, rng) -> None:
    """What ``receive_sne`` does to the state: new positions, hotter gas,
    another mass, ``h`` capped at the largest of the gas that stayed."""
    gas = ps.where_type(ParticleType.GAS)
    stayed = gas.copy()
    stayed[rows] = False
    ps.pos[rows] = new_pos
    ps.u[rows] *= rng.uniform(2.0, 50.0, len(rows))
    ps.mass[rows] *= rng.uniform(0.8, 1.2, len(rows))
    cap = ps.h[stayed].max() if stayed.any() else ps.h[rows].max()
    ps.h[rows] = np.minimum(ps.h[rows] * rng.uniform(0.5, 2.0, len(rows)), cap)


def _step7(engines, states, landings, rng_seed):
    """Land every ``(rows, new_pos)`` on both states, kick and cool all the
    gas alike, then the step-7 pass: a region pass on the first engine, the
    full solve on the same edited grid on the second.  Returns both passes'
    outputs and density results."""
    out = []
    for k, (engine, ps) in enumerate(zip(engines, states)):
        rng = np.random.default_rng(rng_seed)
        for rows, new_pos in landings:
            _land(ps, rows, new_pos, rng)
            engine.notify_rows_moved(ps, rows)
        assert not engine.fast_path_available
        assert engine.refresh_hydro(ps, "2nd") is None
        ps.vel += rng.normal(0.0, 0.1, ps.vel.shape)        # the kicks
        ps.u *= rng.uniform(0.9, 1.0, len(ps))              # cooling
        if k == 1:
            engine._moved_since = None                      # the full solve
        forces = [a.copy() for a in engine.hydro(ps, "2nd")]
        out.append((forces, engine._hydro_cache))
    return out


def _assert_bit_identical(states, out):
    (f_region, c_region), (f_full, c_full) = out
    for name in _FIELDS:
        assert np.array_equal(getattr(states[0], name), getattr(states[1], name)), name
    for a, b in zip(f_region, f_full, strict=True):               # acc, du_dt, vsig
        assert np.array_equal(a, b)
    d_region, d_full = c_region.density, c_full.density
    assert np.array_equal(d_region.n_neighbors, d_full.n_neighbors)
    assert d_region.iterations == d_full.iterations
    for a, b in zip((*d_region.pairs, *c_region.force_pairs),
                    (*d_full.pairs, *c_full.force_pairs), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _new_positions(ps, rows, where, rng):
    """Where the moved rows land: scattered inside the gas's box, swept into
    a shell, outside the box of the binning, or far off (alone: their ``h``
    outgrows the cell)."""
    gas_pos = ps.pos[ps.where_type(ParticleType.GAS)]
    lo, hi = gas_pos.min(axis=0), gas_pos.max(axis=0)
    span = hi - lo
    if where == "inside":
        return rng.uniform(lo, hi, (len(rows), 3))
    if where == "shell":
        d = rng.normal(size=(len(rows), 3))
        return 0.5 * (lo + hi) + 0.2 * span.min() * d / np.linalg.norm(d, axis=1, keepdims=True)
    if where == "outside":
        return hi + rng.uniform(0.05, 0.5, (len(rows), 3)) * span
    return hi + 10.0 * span + rng.normal(0.0, 0.05, (len(rows), 3)) * span


@given(
    seed=st.integers(0, 2**16),
    share=st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]),
    where=st.sampled_from(["inside", "shell", "outside", "far"]),
    twice=st.booleans(),
    disk=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_region_pass_is_the_full_pass_on_the_repaired_list(seed, share, where, twice, disk):
    """Random replacements — a few rows to all of them, in the box, in a
    shell, outside the box of the binning, far off (a touched ``h`` beyond
    the cell), on a uniform box or on a gas disk's reach lists (a touched
    ``h`` beyond its reach widens them): ``h``, ρ, Ω, divv, curlv, neighbor
    counts, the gather list, the half pairs, acc, du/dt and vsig are
    ``np.array_equal`` to the full solve on the same edited grid.  Landed
    as two regions (two notifications), the pass is the full solve."""
    ps = _disk() if disk else _stars_then_gas(seed=seed % 7 + 1)
    engines, states, tr = _twin_engines(ps)
    rng = np.random.default_rng(seed)
    gas = np.flatnonzero(ps.where_type(ParticleType.GAS))
    n_moved = max(1, round(share * len(gas)))
    landings = []
    for _ in range(2 if twice else 1):
        rows = np.sort(rng.choice(gas, size=n_moved, replace=False))
        landings.append((rows, _new_positions(ps, rows, where, rng)))
    out = _step7(engines, states, landings, seed)
    _assert_bit_identical(states, out)
    d = out[0][1].density
    if twice:
        assert "accel.region_passes" not in tr.counters and d.n_resolved == len(gas)
    else:
        assert tr.counters["accel.region_passes"] == 1
        assert tr.counters["accel.region_targets"] == d.n_resolved <= len(gas)
        assert tr.counters["accel.region_gas"] == len(gas)


def test_a_few_moved_rows_re_solve_a_few_particles():
    """One small region: the pass re-solves the moved rows and their
    neighborhood only, on the edited grid (no build)."""
    ps = _stars_then_gas(seed=3)
    engines, states, _ = _twin_engines(ps)
    gas = np.flatnonzero(ps.where_type(ParticleType.GAS))
    centre = ps.pos[gas[0]]
    rows = gas[np.argsort(np.linalg.norm(ps.pos[gas] - centre, axis=1))[:8]]
    rng = np.random.default_rng(1)
    new_pos = centre + rng.normal(0.0, 1.0, (len(rows), 3))
    builds = engines[0].index.stats.grid_builds
    out = _step7(engines, states, [(rows, new_pos)], 1)
    _assert_bit_identical(states, out)
    d = out[0][1].density
    assert engines[0].index.stats.grid_builds == builds
    assert len(rows) <= d.n_resolved < len(gas) // 2


def test_a_touched_h_that_outgrows_the_cell_regrids_and_solves_everything():
    """Rows landed far off need an ``h`` beyond the cell: the pass regrids
    — and then solves all the gas, as the full pass does — bit for bit."""
    ps = _stars_then_gas(seed=4)
    engines, states, _ = _twin_engines(ps)
    gas = np.flatnonzero(ps.where_type(ParticleType.GAS))
    rows = gas[:40]
    rng = np.random.default_rng(4)
    builds = engines[0].index.stats.grid_builds
    out = _step7(engines, states, [(rows, _new_positions(ps, rows, "far", rng))], 4)
    _assert_bit_identical(states, out)
    d = out[0][1].density
    assert d.grid_builds >= 1 and engines[0].index.stats.grid_builds > builds
    assert d.n_resolved == len(gas)


def test_a_reach_list_widened_by_the_region_pass_stays_bit_identical():
    """On a gas disk the pass runs on a reach list; emptying the dense core
    leaves the gas around it needing more than its reach: the list is
    widened in the region pass, and nothing differs from the full solve."""
    ps = _disk()
    engines, states, tr = _twin_engines(ps)
    grid = engines[0].index._grid
    assert grid.has_reach_list
    gas = np.flatnonzero(ps.where_type(ParticleType.GAS))
    r = np.linalg.norm(ps.pos[gas], axis=1)
    rows = gas[np.argsort(r)[: len(gas) // 6]]          # the core
    rng = np.random.default_rng(5)
    widenings = tr.counters.get("accel.candidate_widenings", 0)
    out = _step7(engines, states, [(rows, _new_positions(ps, rows, "outside", rng))], 5)
    _assert_bit_identical(states, out)
    assert tr.counters.get("accel.candidate_widenings", 0) > widenings


@pytest.mark.parametrize("backend", ["numpy", "pikg"])
def test_region_pass_on_both_backends_matches_a_fresh_engine(backend):
    """The region pass finds what a fresh engine finds from scratch: gather
    set and sweep count exact, every sum to 1e-12 (another list order)."""
    from tests.accel.test_force_engine import _replace_a_region
    from tests.conftest import pairs_by_key

    cfg = IntegratorConfig(self_gravity=False, backend=backend)
    ps = _stars_then_gas(seed=10)
    engine = ForceEngine(cfg)
    engine.hydro(ps, "1st")
    rows = _replace_a_region(ps, seed=10)
    engine.notify_rows_moved(ps, rows)
    assert engine.refresh_hydro(ps, "2nd") is None
    cold_ps = ps.copy()
    got = [a.copy() for a in engine.hydro(ps, "2nd")]
    assert engine._hydro_cache.density.n_resolved < ps.where_type(ParticleType.GAS).sum()
    cold = ForceEngine(cfg)
    want = cold.hydro(cold_ps, "2nd")
    d_got, d_want = engine._hydro_cache.density, cold._hydro_cache.density
    for a, b in zip(pairs_by_key(d_got.pairs), pairs_by_key(d_want.pairs)):
        assert np.array_equal(a, b)
    assert d_got.iterations == d_want.iterations
    for a, b in zip((ps.h, ps.dens, *got), (cold_ps.h, cold_ps.dens, *want)):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


def test_a_list_made_again_between_the_passes_drops_the_region():
    """The region pass keeps the prior pass's sums only on the list they
    were summed over: released and generated again on the edited binning,
    the list is another, and the pass solves everything."""
    ps = _stars_then_gas(seed=8)
    engine = ForceEngine(IntegratorConfig(self_gravity=False))
    engine.hydro(ps, "1st")
    gas = np.flatnonzero(ps.where_type(ParticleType.GAS))
    ps.pos[gas[:5]] += 1.0
    engine.notify_rows_moved(ps, gas[:5])
    grid = engine.index._grid
    grid.release_pairs()
    grid.compact_self_pairs()
    engine.hydro(ps, "2nd")
    assert engine._hydro_cache.density.n_resolved == len(gas)


def test_a_position_or_membership_signal_drops_the_region():
    """Only a repair keeps the region: after a drift or a membership change
    the next pass solves everything."""
    ps = _stars_then_gas(seed=6)
    engine = ForceEngine(IntegratorConfig(self_gravity=False))
    engine.hydro(ps, "1st")
    gas = np.flatnonzero(ps.where_type(ParticleType.GAS))
    for signal in (engine.notify_positions_changed, engine.notify_membership_changed):
        engine.notify_rows_moved(ps, gas[:3])
        assert engine._moved_since is not None
        signal()
        assert engine._moved_since is None
        engine.hydro(ps, "2nd")
        assert engine._hydro_cache.density.n_resolved == len(gas)
