"""SNSurrogate end-to-end, the Sedov oracle, and training-data generation."""

import numpy as np
import pytest

from repro.ml.unet import UNet3D
from repro.sn.turbulence import make_turbulent_box
from repro.surrogate.model import SedovBlastOracle, SNSurrogate
from repro.surrogate.training_data import (
    SNTrainingDataset,
    build_dataset,
    generate_sedov_pair,
    generate_sph_pair,
)
from repro.surrogate.transforms import FieldTransform
from repro.surrogate.voxelize import voxelize_particles
from repro.util.constants import internal_energy_to_temperature


@pytest.fixture(scope="module")
def box():
    return make_turbulent_box(n_per_side=10, side=60.0, mean_density=0.05,
                              temperature=100.0, mach=3.0, seed=0)


@pytest.fixture(scope="module")
def grid_in(box):
    return voxelize_particles(box, np.zeros(3), 60.0, n_grid=8)


def test_oracle_heats_and_evacuates_center(grid_in):
    oracle = SedovBlastOracle(t_after=0.02)
    out = oracle(grid_in)
    c = grid_in.n_grid // 2
    assert out.field("temperature")[c, c, c] > 100.0 * grid_in.field("temperature")[c, c, c]
    assert out.field("density")[c, c, c] < grid_in.field("density")[c, c, c]


def test_oracle_preserves_outside_shock(grid_in):
    oracle = SedovBlastOracle(t_after=0.005)  # small shock radius
    out = oracle(grid_in)
    r = grid_in.voxel_radii()
    from repro.sn.sedov import SedovSolution

    rho0 = float(np.mean(grid_in.field("density")))
    rs = SedovSolution(energy=oracle.energy, rho0=rho0).shock_radius(0.005)
    outside = r > rs * 1.2
    assert np.allclose(
        out.field("density")[outside], grid_in.field("density")[outside]
    )
    assert np.allclose(out.field("vx")[outside], grid_in.field("vx")[outside])


def test_oracle_velocities_radial(grid_in):
    oracle = SedovBlastOracle(t_after=0.02)
    base = grid_in.fields.copy()
    base[2:] = 0.0  # still ambient gas
    from repro.surrogate.voxelize import VoxelGrid

    out = oracle(VoxelGrid(fields=base, center=grid_in.center, side=grid_in.side))
    g = grid_in.voxel_centers_1d()
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    vdotr = out.field("vx") * xx + out.field("vy") * yy + out.field("vz") * zz
    assert np.all(vdotr >= -1e-9)


def test_surrogate_particle_roundtrip(box):
    surr = SNSurrogate(oracle=SedovBlastOracle(t_after=0.02), n_grid=8, side=60.0)
    rng = np.random.default_rng(0)
    region = box.copy()
    out = surr.predict_particles(region, np.zeros(3), rng)
    # Mass conservation by construction.
    assert len(out) == len(region)
    assert np.array_equal(np.sort(out.pid), np.sort(region.pid))
    assert out.total_mass() == pytest.approx(region.total_mass())
    # The blast is visible: hot particles exist now.
    t_out = internal_energy_to_temperature(out.u)
    assert t_out.max() > 1e5
    # And a shell: particles pushed outward on average.
    assert np.median(np.abs(out.pos)) >= 0.0


def test_surrogate_with_unet_predictor(box):
    net = UNet3D(in_channels=8, out_channels=5, base_channels=2, depth=1, seed=0)
    surr = SNSurrogate(predictor=net.forward, n_grid=8, side=60.0)
    rng = np.random.default_rng(1)
    out = surr.predict_particles(box.copy(), np.zeros(3), rng)
    assert len(out) == len(box)
    assert np.all(np.isfinite(out.pos))
    assert np.all(out.u > 0)


def test_surrogate_requires_exactly_one_backend():
    with pytest.raises(ValueError):
        SNSurrogate()
    with pytest.raises(ValueError):
        SNSurrogate(predictor=lambda x: x, oracle=SedovBlastOracle())


def test_surrogate_empty_region():
    surr = SNSurrogate(oracle=SedovBlastOracle(), n_grid=8)
    from repro.fdps.particles import ParticleSet

    out = surr.predict_particles(ParticleSet.empty(0), np.zeros(3), np.random.default_rng(0))
    assert len(out) == 0


# ------------------------------------------------------------ training data
def test_generate_sedov_pair_shapes():
    x, y = generate_sedov_pair(seed=0, n_grid=8, n_per_side=8)
    assert x.shape == (8, 8, 8, 8)
    assert y.shape == (5, 8, 8, 8)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))


def test_generate_sph_pair_runs_the_conventional_arm():
    # A 216-particle box integrated through a thermal SN for a few kyr.
    tf = FieldTransform()
    x, y = generate_sph_pair(seed=0, n_grid=8, n_per_side=6, t_after=0.004,
                             transform=tf)
    fields = np.ones((5, 8, 8, 8))
    assert x.shape == tf.encode(fields).shape
    assert y.shape == tf.encode_target(fields).shape
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
    # Channels 0-1 (log density, log temperature) share one encoding.
    assert not np.allclose(x[:2], y[:2])


def test_pairs_differ_by_seed():
    x0, _ = generate_sedov_pair(seed=0, n_grid=8, n_per_side=8)
    x1, _ = generate_sedov_pair(seed=1, n_grid=8, n_per_side=8)
    assert not np.allclose(x0, x1)


def test_target_shows_blast_signature():
    x, y = generate_sedov_pair(seed=2, n_grid=8, n_per_side=8)
    # Central target temperature (channel 1, log10) far above ambient input.
    c = 4
    assert y[1, c, c, c] > x[1, c, c, c] + 2.0  # > 2 dex hotter


def test_dataset_build_split_save(tmp_path):
    ds = build_dataset(5, base_seed=10, n_grid=8, n_per_side=8)
    assert len(ds) == 5
    tr, va = ds.split(0.4, np.random.default_rng(0))
    assert len(tr) == 3 and len(va) == 2
    p = tmp_path / "ds.npz"
    ds.save(p)
    back = SNTrainingDataset.load(p)
    assert len(back) == 5
    assert np.allclose(back.inputs[0], ds.inputs[0])
    assert np.allclose(back.targets[4], ds.targets[4])


def test_dataset_shape_validation():
    ds = SNTrainingDataset()
    ds.add(np.zeros((8, 4, 4, 4)), np.zeros((5, 4, 4, 4)))
    with pytest.raises(ValueError):
        ds.add(np.zeros((8, 8, 8, 8)), np.zeros((5, 8, 8, 8)))
