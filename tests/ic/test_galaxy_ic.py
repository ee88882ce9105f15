"""Initial conditions: profiles, Model MW structure, per-domain generation."""

import numpy as np
import pytest

from repro.fdps.domain import DomainDecomposition
from repro.fdps.particles import ParticleType
from repro.ic.galaxy import MW_SPEC, generate_for_domain, make_mw_mini, make_mw_model
from repro.ic.halo import jeans_sigma
from repro.ic.profiles import ExponentialDisk, NFWHalo
from repro.util.constants import KM_PER_S


@pytest.fixture(scope="module")
def mw():
    return make_mw_model(n_total=6000, seed=42)


# ---------------------------------------------------------------- profiles
def test_nfw_enclosed_mass_total():
    halo = NFWHalo(m_total=1e12, a=2e4, r_max=2e5)
    assert halo.enclosed_mass(np.array([2e5]))[0] == pytest.approx(1e12, rel=1e-9)


def test_nfw_inner_slope_minus_one():
    halo = NFWHalo(m_total=1e12, a=2e4, r_max=2e5)
    r = np.array([1e2, 2e2])
    slope = np.log(halo.density(r[1]) / halo.density(r[0])) / np.log(2.0)
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_nfw_outer_slope_minus_three():
    halo = NFWHalo(m_total=1e12, a=2e4, r_max=2e5)
    r = np.array([1.0e5, 2.0e5])
    slope = np.log(halo.density(r[1]) / halo.density(r[0])) / np.log(2.0)
    assert slope == pytest.approx(-3.0, abs=0.3)


def test_disk_enclosed_mass():
    d = ExponentialDisk(m_total=5e10, r_d=2.6e3, z_d=300.0)
    assert d.enclosed_mass_cyl(np.array([1e9]))[0] == pytest.approx(5e10, rel=1e-6)
    half = d.enclosed_mass_cyl(np.array([d.r_d * 1.678]))[0]
    assert half == pytest.approx(0.5 * 5e10, rel=0.01)


def test_disk_sampling_matches_profile():
    d = ExponentialDisk(m_total=1e10, r_d=3e3, z_d=300.0)
    rng = np.random.default_rng(0)
    pos = d.sample(20000, rng)
    r = np.hypot(pos[:, 0], pos[:, 1])
    # Median cylindrical radius of an exponential disk ~ 1.678 Rd.
    assert np.median(r) == pytest.approx(1.678 * 3e3, rel=0.05)
    # Vertical: median |z| of sech^2 = zd * atanh(0.5).
    assert np.median(np.abs(pos[:, 2])) == pytest.approx(300 * np.arctanh(0.5), rel=0.1)


def test_mw_circular_velocity_about_220_km_s():
    halo, sdisk, gdisk, rot = MW_SPEC.components()
    v_sun = rot.circular_velocity(np.array([8.2e3]))[0] * KM_PER_S
    assert 170.0 < v_sun < 280.0  # the observed ~220-240 km/s ballpark


def test_jeans_sigma_reasonable():
    halo, _, _, rot = MW_SPEC.components()
    sig = jeans_sigma(halo, rot, np.array([1e4, 1e5]))
    assert np.all(sig > 0)
    assert sig[0] * KM_PER_S < 400.0


# ---------------------------------------------------------------- Model MW
def test_component_mass_fractions(mw):
    m_dm = mw.mass[mw.where_type(ParticleType.DARK_MATTER)].sum()
    m_star = mw.mass[mw.where_type(ParticleType.STAR)].sum()
    m_gas = mw.mass[mw.where_type(ParticleType.GAS)].sum()
    assert m_dm / MW_SPEC.m_dm == pytest.approx(1.0, rel=0.05)
    assert m_star / MW_SPEC.m_star == pytest.approx(1.0, rel=0.05)
    assert m_gas / MW_SPEC.m_gas == pytest.approx(1.0, rel=0.05)


def test_unique_pids(mw):
    assert len(np.unique(mw.pid)) == len(mw)


def test_gas_is_thin_disk(mw):
    gas = mw.gas()
    r = np.hypot(gas.pos[:, 0], gas.pos[:, 1])
    assert np.median(np.abs(gas.pos[:, 2])) < 0.1 * np.median(r)


def test_disk_rotates(mw):
    gas = mw.gas()
    # Specific angular momentum along z dominates and is one-signed.
    lz = gas.pos[:, 0] * gas.vel[:, 1] - gas.pos[:, 1] * gas.vel[:, 0]
    assert np.mean(lz > 0) > 0.95


def test_halo_roughly_isotropic(mw):
    dm = mw.dark_matter()
    lz = dm.pos[:, 0] * dm.vel[:, 1] - dm.pos[:, 1] * dm.vel[:, 0]
    assert abs(np.mean(lz > 0) - 0.5) < 0.1


def test_central_concentration(mw):
    # The Fig. 4 premise: the *baryons* crowd the centre and mid-plane
    # (the NFW halo's own half-mass radius is legitimately ~70 kpc).
    baryon = ~mw.where_type(ParticleType.DARK_MATTER)
    r_b = np.linalg.norm(mw.pos[baryon], axis=1)
    r_max = np.linalg.norm(mw.pos, axis=1).max()
    assert np.median(r_b) < 0.05 * r_max


def test_mini_model_scales_down():
    mini = make_mw_mini(n_total=2000, seed=1)
    assert mini.total_mass() == pytest.approx(MW_SPEC.m_total / 100.0, rel=0.05)
    r_mw = np.linalg.norm(make_mw_model(2000, seed=1).pos, axis=1)
    r_mini = np.linalg.norm(mini.pos, axis=1)
    assert np.median(r_mini) < np.median(r_mw)


def test_generation_deterministic():
    a = make_mw_model(1000, seed=7)
    b = make_mw_model(1000, seed=7)
    assert np.array_equal(a.pos, b.pos)
    assert not np.array_equal(a.pos, make_mw_model(1000, seed=8).pos)


# ----------------------------------------------------- per-domain generation
def test_per_domain_union_equals_full():
    full = make_mw_model(3000, seed=3)
    dd = DomainDecomposition.fit(full.pos, (2, 2, 1), sample=None)
    parts = [generate_for_domain(dd, r, 3000, seed=3) for r in range(dd.n_domains)]
    n_union = sum(len(p) for p in parts)
    assert n_union == len(full)
    pids = np.sort(np.concatenate([p.pid for p in parts]))
    assert np.array_equal(pids, np.sort(full.pid))


def test_per_domain_particles_inside_their_domain():
    full = make_mw_model(2000, seed=4)
    dd = DomainDecomposition.fit(full.pos, (2, 1, 2), sample=None)
    for r in range(dd.n_domains):
        part = generate_for_domain(dd, r, 2000, seed=4)
        if len(part) == 0:
            continue
        lo, hi = dd.domain_box(r)
        assert np.all(part.pos >= lo) and np.all(part.pos < hi)


# ------------------------------------------------------- gas kernel sizes
@pytest.mark.parametrize("seed", [3, 21])
def test_gas_kernel_sizes_are_seeded_near_their_converged_values(seed):
    """The ``gas_disk``-sized model's gas ``h`` is each particle's distance
    to its 32nd nearest gas neighbour — positive, and with a median within
    20% of the one the density solve converges to at ``n_ngb = 32``."""
    from repro.sph.density import compute_density, kernel_size_guess

    ps = make_mw_model(
        2500, seed=seed, spec=MW_SPEC.scaled(0.01), count_fractions=(0.02, 0.02, 0.96)
    )
    gas = ps.gas()
    assert np.array_equal(gas.h, kernel_size_guess(gas.pos, 32)) and np.all(gas.h > 0.0)
    n = len(gas)
    d = compute_density(gas.pos, np.zeros((n, 3)), gas.mass, np.ones(n), gas.h, n_ngb=32)
    assert d.n_unconverged == 0
    assert np.median(gas.h) == pytest.approx(np.median(d.h), rel=0.2)
