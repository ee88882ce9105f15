"""Cooling model: curve shape, integration stability, equilibria."""

import numpy as np
import pytest

from repro.physics.cooling import CoolingModel
from repro.util.constants import (
    internal_energy_to_temperature,
    temperature_to_internal_energy,
)


@pytest.fixture
def cool():
    return CoolingModel()


def test_lambda_peaks_near_1e5(cool):
    t = np.logspace(4.0, 7.5, 100)
    lam = cool.lambda_cgs(t)
    peak_t = t[np.argmax(lam)]
    assert 3e4 < peak_t < 1e6


def test_lambda_small_below_1e4(cool):
    lam_cold = cool.lambda_cgs(np.array([100.0]))[0]
    lam_warm = cool.lambda_cgs(np.array([2e4]))[0]
    assert lam_cold < 1e-3 * lam_warm


def test_dense_hot_gas_cools(cool):
    u = temperature_to_internal_energy(1e6)
    rate = cool.du_dt(np.array([u]), np.array([10.0]))[0]
    assert rate < 0.0


def test_diffuse_cold_gas_heats(cool):
    u = temperature_to_internal_energy(30.0)
    rate = cool.du_dt(np.array([u]), np.array([1e-4]))[0]
    assert rate > 0.0


def test_integration_respects_floor(cool):
    u = temperature_to_internal_energy(1e6)
    new_u = cool.integrate(np.array([u]), np.array([100.0]), dt=100.0)
    t_new = internal_energy_to_temperature(new_u[0])
    assert t_new >= cool.t_floor * 0.99


def test_integration_moves_toward_equilibrium(cool):
    # Dense gas: hot relaxes downward, ultracold heats upward.
    dens = np.array([1.0])
    u_hot = temperature_to_internal_energy(1e6)
    u_after = cool.integrate(np.array([u_hot]), dens, dt=10.0)[0]
    assert u_after < u_hot


def test_integration_never_negative(cool):
    u = temperature_to_internal_energy(np.array([1e7, 1e4, 100.0]))
    dens = np.array([100.0, 100.0, 100.0])
    out = cool.integrate(u, dens, dt=1000.0)
    assert np.all(out > 0)


def test_short_step_matches_rate(cool):
    u = temperature_to_internal_energy(1e5)
    dens = np.array([0.01])
    dt = 1e-8
    rate = cool.du_dt(np.array([u]), dens)[0]
    out = cool.integrate(np.array([u]), dens, dt=dt)[0]
    assert out - u == pytest.approx(rate * dt, rel=1e-3)


def test_cooling_time_positive_finite(cool):
    u = temperature_to_internal_energy(np.array([1e4, 1e6]))
    tc = cool.cooling_time(u, np.array([1.0, 1.0]))
    assert np.all(tc > 0)
    assert np.all(np.isfinite(tc))


def test_sn_heated_gas_cooling_time_long_compared_to_cfl():
    # 1e7 K gas at low density cools slowly: the *hydro* timestep, not the
    # cooling, is the bottleneck the surrogate removes.
    cool = CoolingModel()
    u = temperature_to_internal_energy(1e7)
    tc = cool.cooling_time(np.array([u]), np.array([0.01]))[0]
    assert tc > 1.0  # Myr, i.e. >> the 2,000 yr global step


def test_equilibrium_temperature_monotone_with_density(cool):
    t_lo = cool.equilibrium_temperature(0.001)
    t_hi = cool.equilibrium_temperature(10.0)
    assert t_lo > t_hi  # denser gas equilibrates colder
    assert 10.0 <= t_hi <= 1e4


def test_metallicity_scaling_cools_faster():
    cool_z = CoolingModel(metallicity_scaling=True)
    t = np.array([1000.0])
    lam_solar = cool_z.lambda_cgs(t, z=np.array([0.0134]))
    lam_poor = cool_z.lambda_cgs(t, z=np.array([0.00134]))
    assert lam_solar[0] > lam_poor[0]


def test_vectorized_integration_matches_scalar(cool):
    u = temperature_to_internal_energy(np.array([1e6, 1e4, 50.0]))
    dens = np.array([1.0, 0.1, 10.0])
    batch = cool.integrate(u, dens, dt=5.0)
    singles = [cool.integrate(u[i : i + 1], dens[i : i + 1], dt=5.0)[0] for i in range(3)]
    assert np.allclose(batch, singles)


# ------------------------------------------ sub-cycling on the active subset
def _integrate_everyone(cool, u, dens, dt, z=None, max_subcycles=64):
    """``CoolingModel.integrate`` as it was: every particle carried through
    every sub-cycle, the finished ones with a zero step."""
    u = np.asarray(u, dtype=np.float64).copy()
    dens = np.asarray(dens, dtype=np.float64)
    remaining = np.full_like(u, float(dt))
    u_floor = temperature_to_internal_energy(cool.t_floor)
    u_ceil = temperature_to_internal_energy(cool.t_ceiling)
    for _ in range(max_subcycles):
        active = remaining > 0.0
        if not active.any():
            break
        rate = cool.du_dt(u, dens, z)
        safe = np.where(rate != 0.0, 0.25 * u / np.abs(rate), np.inf)
        step = np.minimum(remaining, np.maximum(safe, 1e-12))
        step = np.where(active, step, 0.0)
        u = np.clip(u + rate * step, u_floor, u_ceil)
        at_limit = (u <= u_floor * (1 + 1e-12)) & (rate < 0)
        at_limit |= (u >= u_ceil * (1 - 1e-12)) & (rate > 0)
        remaining = np.where(at_limit, 0.0, remaining - step)
    return u


@pytest.mark.parametrize(
    "temperature",
    [
        "hot minority",                       # the sn_storm shape: 70 of 1,728
        10.0,                                 # everyone at the floor
        1.0e9,                                # everyone at the ceiling
        "decades",
    ],
)
@pytest.mark.parametrize("with_z", [False, True])
def test_subset_integration_equals_carrying_everyone(temperature, with_z):
    rng = np.random.default_rng(7)
    n = 1728
    if temperature == "hot minority":
        t = np.full(n, 100.0)
        t[rng.choice(n, 70, replace=False)] = 10.0 ** rng.uniform(5.0, 7.5, 70)
    elif temperature == "decades":
        t = 10.0 ** rng.uniform(1.0, 9.0, n)
    else:
        t = np.full(n, temperature)
    u = temperature_to_internal_energy(t)
    dens = 10.0 ** rng.uniform(-3.0, 2.0, n)
    z = 0.0134 * 10.0 ** rng.uniform(-2.0, 0.5, n) if with_z else None
    cool = CoolingModel(metallicity_scaling=with_z)
    for dt in (2e-3, 0.5):
        got = cool.integrate(u, dens, dt, z=z)
        assert np.array_equal(got, _integrate_everyone(cool, u, dens, dt, z=z))
    assert np.array_equal(cool.integrate(u, dens, 0.0), u)         # no time: untouched
    assert np.array_equal(u, temperature_to_internal_energy(t))     # the input is not written
