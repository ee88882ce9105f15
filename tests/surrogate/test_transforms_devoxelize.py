"""Field transforms (8-channel encoding) and Gibbs-sampling devoxelization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdps.particles import ParticleSet, ParticleType
from repro.surrogate.devoxelize import devoxelize_to_particles, gibbs_sample_positions
from repro.surrogate.transforms import FieldTransform
from repro.surrogate.voxelize import VoxelGrid


def _random_fields(n=8, seed=0):
    rng = np.random.default_rng(seed)
    rho = 10.0 ** rng.uniform(-3, 2, (n, n, n))
    temp = 10.0 ** rng.uniform(1, 7, (n, n, n))
    v = rng.normal(0, 50, (3, n, n, n))
    return np.concatenate([rho[None], temp[None], v])


def test_encode_produces_8_channels():
    tf = FieldTransform()
    chans = tf.encode(_random_fields())
    assert chans.shape[0] == 8
    assert np.all(np.isfinite(chans))


def test_encode_decode_input_roundtrip():
    tf = FieldTransform()
    fields = _random_fields(seed=1)
    back = tf.decode_input(tf.encode(fields))
    assert np.allclose(back[0], fields[0], rtol=1e-10)
    assert np.allclose(back[1], fields[1], rtol=1e-10)
    # Velocities: exact where |v| > floor, zeroed below.
    for c in range(3):
        big = np.abs(fields[2 + c]) > tf.v_floor
        assert np.allclose(back[2 + c][big], fields[2 + c][big], rtol=1e-10)
        assert np.all(np.abs(back[2 + c][~big]) <= tf.v_floor + 1e-12)


def test_target_roundtrip():
    tf = FieldTransform()
    fields = _random_fields(seed=2)
    back = tf.decode_target(tf.encode_target(fields))
    assert np.allclose(back[0], fields[0], rtol=1e-10)
    assert np.allclose(back[1], fields[1], rtol=1e-10)
    for c in range(2, 5):
        assert np.allclose(back[c], fields[c], rtol=1e-8, atol=1e-10)


def test_velocity_split_channels_disjoint():
    tf = FieldTransform()
    fields = _random_fields(seed=3)
    chans = tf.encode(fields)
    lf = np.log10(tf.v_floor)
    for c in range(3):
        pos_on = chans[2 + 2 * c] > lf
        neg_on = chans[3 + 2 * c] > lf
        assert not np.any(pos_on & neg_on)


def test_dynamic_range_compression():
    # The whole point (Sec. 3.3): 6 orders of magnitude in T become ~1 order
    # in channel space.
    tf = FieldTransform()
    fields = _random_fields(seed=4)
    chans = tf.encode(fields)
    assert fields[1].max() / fields[1].min() > 1e4
    assert chans[1].max() - chans[1].min() < 10.0


@given(st.integers(0, 100))
@settings(max_examples=15, deadline=None)
def test_roundtrip_property(seed):
    tf = FieldTransform()
    fields = _random_fields(n=4, seed=seed)
    back = tf.decode_target(tf.encode_target(fields))
    assert np.allclose(back[0], fields[0], rtol=1e-9)


# ------------------------------------------------------------------ Gibbs
def test_gibbs_samples_follow_density():
    rng = np.random.default_rng(0)
    n = 8
    dens = np.ones((n, n, n)) * 0.01
    dens[:4, :, :] = 1.0  # 100x denser half
    coords = gibbs_sample_positions(dens, 20000, rng, n_sweeps=6)
    frac_dense = np.mean(coords[:, 0] < 4.0)
    expect = dens[:4].sum() / dens.sum()
    assert frac_dense == pytest.approx(expect, abs=0.03)


def test_gibbs_coordinates_in_range():
    rng = np.random.default_rng(1)
    dens = np.random.default_rng(2).uniform(0.1, 1.0, (6, 6, 6))
    coords = gibbs_sample_positions(dens, 500, rng)
    assert np.all(coords >= 0.0)
    assert np.all(coords < 6.0)


def test_gibbs_empty_field_rejected():
    with pytest.raises(ValueError):
        gibbs_sample_positions(np.zeros((4, 4, 4)), 10, np.random.default_rng(0))


def test_gibbs_concentrates_on_peak():
    rng = np.random.default_rng(3)
    dens = np.full((8, 8, 8), 1e-6)
    dens[6, 2, 5] = 1.0
    coords = gibbs_sample_positions(dens, 1000, rng, n_sweeps=6)
    cells = np.floor(coords).astype(int)
    on_peak = np.mean(np.all(cells == [6, 2, 5], axis=1))
    assert on_peak > 0.95


# ------------------------------------------------------------ devoxelize
def _template(n):
    ps = ParticleSet.empty(n)
    ps.pid[:] = np.arange(n) + 100
    ps.mass[:] = 0.75
    ps.ptype[:] = int(ParticleType.GAS)
    ps.zmet[:, 1] = 0.01
    return ps


def test_devoxelize_conserves_count_mass_ids():
    rng = np.random.default_rng(4)
    fields = _random_fields(seed=5)
    grid = VoxelGrid(fields=fields, center=np.array([5.0, 0.0, -3.0]), side=60.0)
    template = _template(300)
    out = devoxelize_to_particles(grid, template, rng)
    assert len(out) == 300
    assert np.array_equal(out.pid, template.pid)
    assert np.allclose(out.mass, template.mass)  # mass conservation
    assert np.allclose(out.zmet, template.zmet)  # metals ride along
    assert np.all(out.ptype == int(ParticleType.GAS))


def test_devoxelize_positions_inside_box():
    rng = np.random.default_rng(5)
    grid = VoxelGrid(fields=_random_fields(seed=6), center=np.zeros(3), side=60.0)
    out = devoxelize_to_particles(grid, _template(200), rng)
    assert np.all(np.abs(out.pos) <= 30.0)


def test_devoxelize_velocities_from_fields():
    rng = np.random.default_rng(6)
    fields = _random_fields(seed=7)
    fields[2] = 17.0  # constant vx
    grid = VoxelGrid(fields=fields, center=np.zeros(3), side=60.0)
    out = devoxelize_to_particles(grid, _template(100), rng)
    assert np.allclose(out.vel[:, 0], 17.0, rtol=1e-9)


def test_devoxelize_internal_energy_positive():
    rng = np.random.default_rng(7)
    grid = VoxelGrid(fields=_random_fields(seed=8), center=np.zeros(3), side=60.0)
    out = devoxelize_to_particles(grid, _template(100), rng)
    assert np.all(out.u > 0)
    assert np.all(np.isfinite(out.h))


def test_devoxelize_empty_template():
    rng = np.random.default_rng(8)
    grid = VoxelGrid(fields=_random_fields(seed=9), center=np.zeros(3), side=60.0)
    out = devoxelize_to_particles(grid, ParticleSet.empty(0), rng)
    assert len(out) == 0


def test_devoxelize_kernel_size_holds_n_ngb_neighbors():
    """h is the full support radius: (4 pi / 3) h^3 rho = n_ngb m."""
    fields = _random_fields(seed=10)
    fields[0] = 0.02                                   # uniform predicted density
    grid = VoxelGrid(fields=fields, center=np.zeros(3), side=60.0)
    template = _template(50)                           # m = 0.75
    for n_ngb in (32, 64):
        out = devoxelize_to_particles(
            grid, template, np.random.default_rng(1), n_ngb=n_ngb
        )
        assert np.allclose(4.0 * np.pi / 3.0 * out.h**3 * 0.02, n_ngb * 0.75)
    # Vanishing density: bounded by the region, not by 32^(1/3) of it.
    fields[0] = 1e-9
    out = devoxelize_to_particles(grid, template, np.random.default_rng(1))
    assert np.all(out.h == 60.0)
