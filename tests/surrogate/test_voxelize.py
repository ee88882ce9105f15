"""Particle -> voxel mapping: Shepard exactness, density, region extraction."""

import numpy as np
import pytest

from repro.fdps.particles import ParticleType
from repro.surrogate.voxelize import FIELD_NAMES, extract_region, voxelize_particles
from repro.util.constants import internal_energy_to_temperature


def test_field_order():
    assert FIELD_NAMES == ("density", "temperature", "vx", "vy", "vz")


def test_shapes(uniform_gas_ps):
    grid = voxelize_particles(uniform_gas_ps, np.zeros(3), 60.0, n_grid=8)
    assert grid.fields.shape == (5, 8, 8, 8)
    assert grid.cell == pytest.approx(7.5)


def test_shepard_reproduces_constant_fields(uniform_gas_ps):
    ps = uniform_gas_ps.copy()
    ps.vel[:] = np.array([3.0, -2.0, 0.5])
    grid = voxelize_particles(ps, np.zeros(3), 60.0, n_grid=8)
    assert np.allclose(grid.field("vx"), 3.0, atol=1e-9)
    assert np.allclose(grid.field("vy"), -2.0, atol=1e-9)
    assert np.allclose(grid.field("vz"), 0.5, atol=1e-9)
    t_expect = internal_energy_to_temperature(25.0)
    assert np.allclose(grid.field("temperature"), t_expect, rtol=1e-6)


def test_density_close_to_mean(uniform_gas_ps):
    # 12^3 particles of 1 M_sun in a (60 pc)^3 box: mean rho = 1728/216000.
    grid = voxelize_particles(uniform_gas_ps, np.zeros(3), 60.0, n_grid=8)
    rho = grid.field("density")
    mean_rho = uniform_gas_ps.total_mass() / 60.0**3
    core = rho[2:-2, 2:-2, 2:-2]
    assert np.median(core) == pytest.approx(mean_rho, rel=0.25)


def test_total_deposited_mass(uniform_gas_ps):
    # Sum of rho * cell volume ~ total mass (edges lose a little kernel).
    grid = voxelize_particles(uniform_gas_ps, np.zeros(3), 60.0, n_grid=16)
    deposited = grid.field("density").sum() * grid.cell**3
    assert deposited == pytest.approx(uniform_gas_ps.total_mass(), rel=0.15)


def test_hot_spot_appears_in_temperature(uniform_gas_ps):
    ps = uniform_gas_ps.copy()
    r = np.linalg.norm(ps.pos, axis=1)
    ps.u[r < 10] = 2.5e4  # hot centre
    grid = voxelize_particles(ps, np.zeros(3), 60.0, n_grid=8)
    t = grid.field("temperature")
    assert t[4, 4, 4] > 5.0 * t[0, 0, 0]


def test_ignores_non_gas(uniform_gas_ps):
    ps = uniform_gas_ps.copy()
    ps.ptype[:100] = int(ParticleType.STAR)
    grid_all = voxelize_particles(uniform_gas_ps, np.zeros(3), 60.0, n_grid=8)
    grid_gas = voxelize_particles(ps, np.zeros(3), 60.0, n_grid=8)
    assert grid_gas.field("density").sum() < grid_all.field("density").sum()


def test_voxel_radii(uniform_gas_ps):
    grid = voxelize_particles(uniform_gas_ps, np.zeros(3), 60.0, n_grid=8)
    r = grid.voxel_radii()
    assert r.shape == (8, 8, 8)
    assert r.min() > 0
    corner = np.sqrt(3) * (30.0 - grid.cell / 2)
    assert r.max() == pytest.approx(corner, rel=1e-9)


def test_empty_region_falls_back_to_nearest(uniform_gas_ps):
    # Voxelize a box offset from the particles: no kernel coverage on the
    # far side, but the fields must still be finite everywhere.
    grid = voxelize_particles(uniform_gas_ps, np.array([50.0, 0.0, 0.0]), 60.0, n_grid=8)
    assert np.all(np.isfinite(grid.fields))


@pytest.mark.parametrize("gas_only, stars", [(True, 0), (True, 5), (False, 0)])
def test_a_cube_with_nothing_to_deposit_raises_a_typed_error(uniform_gas_ps, gas_only, stars):
    """No gas (``gas_only``) or no particle at all: a ``ValueError`` naming
    the cube, before any deposit."""
    ps = uniform_gas_ps.select(np.arange(stars))
    ps.ptype[:] = int(ParticleType.STAR)
    with pytest.raises(ValueError, match=r"center \[1\.0, -2\.0, 3\.0\] of side 60\.0 pc"):
        voxelize_particles(ps, np.array([1.0, -2.0, 3.0]), 60.0, n_grid=8, gas_only=gas_only)


def test_extract_region(uniform_gas_ps):
    region, idx = extract_region(uniform_gas_ps, np.zeros(3), 20.0)
    assert len(region) == len(idx)
    assert len(region) > 0
    assert np.all(np.abs(region.pos) <= 10.0 + 1e-12)
    # Region is a copy: mutating it leaves the parent untouched.
    region.u[:] = 999.0
    assert not np.any(uniform_gas_ps.u == 999.0)


def test_extract_region_gas_only(uniform_gas_ps):
    ps = uniform_gas_ps.copy()
    ps.ptype[0] = int(ParticleType.STAR)
    region, _ = extract_region(ps, ps.pos[0], 20.0)
    assert not np.any(region.pid == ps.pid[0])


def _deposit_pairs_reference(fc, h_eff, n, cell, kernel):
    """The deposit as one Python iteration per stencil offset on (P, 3)
    arrays — the loop the blocked (offsets x particles) plane passes
    replaced; kept as their oracle."""
    k_max = int(np.ceil(h_eff.max() / cell))
    base = np.rint(fc).astype(np.int64)
    flat, part, weight = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    offsets = range(-k_max, k_max + 1)
    for dx in offsets:
        for dy in offsets:
            for dz in offsets:
                vox = base + np.array([dx, dy, dz])
                ok = np.all((vox >= 0) & (vox < n), axis=1)
                d = (vox - fc) * cell
                r = np.sqrt(np.einsum("ij,ij->i", d, d))
                w = kernel.value(r, h_eff)
                live = ok & (w > 0)
                flat.append((vox[live, 0] * n + vox[live, 1]) * n + vox[live, 2])
                part.append(np.flatnonzero(live))
                weight.append(w[live])
    return np.concatenate(flat), np.concatenate(part), np.concatenate(weight)


@pytest.mark.parametrize("n_grid", [4, 8])
@pytest.mark.parametrize("block_pairs", [1, 50, 2**18])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_blocked_deposit_matches_per_offset_reference(monkeypatch, seed, block_pairs, n_grid):
    from repro.surrogate import voxelize as vz
    from repro.fdps.particles import ParticleSet

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    side = 60.0
    ps = ParticleSet.from_arrays(
        # A third of the particles fall outside the box; their kernels may
        # still reach edge voxels.
        pos=rng.uniform(-0.75 * side, 0.75 * side, (n, 3)),
        mass=rng.uniform(0.5, 2.0, n),
        vel=rng.normal(0.0, 10.0, (n, 3)),
        pid=np.arange(n),
        ptype=np.full(n, int(ParticleType.GAS)),
    )
    # From far below one cell (h_eff floors at the cell) to several cells.
    ps.h[:] = rng.uniform(0.05, 3.0, n) * side / n_grid
    ps.u[:] = rng.uniform(1.0, 100.0, n)
    centre = rng.normal(0.0, 3.0, 3)

    # k_max spans several blocks, one block, or a fraction of one.
    monkeypatch.setattr(vz, "_DEPOSIT_BLOCK_PAIRS", block_pairs)
    got = vz.voxelize_particles(ps, centre, side, n_grid)

    cell = side / n_grid
    fc = (ps.pos - centre + side / 2.0) / cell - 0.5
    h_eff = np.maximum(ps.h, 1.001 * cell)
    flat, part, w = vz._deposit_pairs(fc, h_eff, n_grid, cell, vz.DEFAULT_KERNEL)
    ref_flat, ref_part, ref_w = _deposit_pairs_reference(
        fc, h_eff, n_grid, cell, vz.DEFAULT_KERNEL
    )
    # Indices and deposit order are exact.
    assert np.array_equal(flat, ref_flat) and flat.dtype == ref_flat.dtype
    assert np.array_equal(part, ref_part) and part.dtype == ref_part.dtype
    # Weights: the separable planes sum the squared offset x, y, z, the
    # reference by einsum, so r moves by <= 1 ulp and W(r, h) by <= 4 ulp of
    # the particle's peak weight W(0, h) (a relative bound cannot hold at the
    # support edge, where W -> 0).
    peak = vz.DEFAULT_KERNEL.value(np.zeros(len(part)), h_eff[part])
    assert w.dtype == ref_w.dtype
    assert np.all(np.abs(w - ref_w) <= 4 * np.spacing(peak))

    monkeypatch.setattr(vz, "_deposit_pairs", _deposit_pairs_reference)
    want = vz.voxelize_particles(ps, centre, side, n_grid)
    for got_f, want_f in zip(got.fields, want.fields):       # all five fields
        np.testing.assert_allclose(
            got_f, want_f, rtol=1e-13, atol=1e-13 * np.abs(want_f).max()
        )


@pytest.mark.parametrize("n_grid", [8, 16])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_support_cut_deposit_is_the_uncut_one(monkeypatch, seed, n_grid):
    """The per-axis cut at each particle's own support drops only pairs of
    weight exactly 0: the (voxel, particle, weight) list is ``np.array_equal``
    to the one without it — also where a support ends exactly on a voxel
    centre (a particle on a centre with ``h`` a whole number of cells)."""
    from repro.surrogate import voxelize as vz

    rng = np.random.default_rng(seed)
    cell = 60.0 / n_grid
    n = 80
    fc = rng.uniform(-1.0, n_grid, (n, 3))
    h_eff = np.maximum(rng.uniform(0.05, 3.0, n), 1.001) * cell
    # On a voxel centre, support reaching exactly k centres out per axis.
    on = rng.choice(n, size=n // 4, replace=False)
    fc[on] = rng.integers(0, n_grid, (len(on), 3)).astype(float)
    h_eff[on] = rng.integers(2, 4, len(on)) * cell
    args = (fc, h_eff, n_grid, cell, vz.DEFAULT_KERNEL)
    cut = vz._deposit_pairs(*args)
    monkeypatch.setattr(vz, "_SUPPORT_MARGIN", np.inf)        # no cut
    uncut = vz._deposit_pairs(*args)
    for a, b in zip(cut, uncut, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.all(cut[2] > 0.0)
