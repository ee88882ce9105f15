"""Unit-system sanity: the constants must match their CGS derivations."""

import numpy as np
import pytest

from repro.util import constants as C


def test_grav_const_value():
    # G = 4.4985e-3 pc^3 / (M_sun Myr^2), standard galactic-dynamics value.
    assert C.GRAV_CONST == pytest.approx(4.4985e-3, rel=1e-3)


def test_velocity_unit_is_about_one_km_s():
    assert C.KM_PER_S == pytest.approx(0.9778, rel=1e-3)


def test_sn_energy_in_code_units():
    # 1e51 erg ~ 5.3e7 M_sun (pc/Myr)^2: spreading it over 1 M_sun gives
    # ejecta speeds of ~1e4 pc/Myr ~ 1e4 km/s, the right SN scale.
    assert C.SN_ENERGY == pytest.approx(5.26e7, rel=0.01)


def test_temperature_energy_roundtrip_scalar():
    for t in (10.0, 1e4, 1e7):
        u = C.temperature_to_internal_energy(t)
        t_back = C.internal_energy_to_temperature(u)
        assert t_back == pytest.approx(t, rel=0.05)


def test_temperature_energy_roundtrip_array():
    t = np.logspace(1, 7, 50)
    u = C.temperature_to_internal_energy(t)
    back = C.internal_energy_to_temperature(u)
    assert np.allclose(back, t, rtol=0.05)


def test_internal_energy_monotone_in_temperature():
    t = np.logspace(1, 8, 200)
    u = C.temperature_to_internal_energy(t)
    assert np.all(np.diff(u) > 0)


def test_sound_speed_of_warm_gas():
    # 1e4 K neutral gas: c_s ~ 10 km/s ~ 10 pc/Myr.
    u = C.temperature_to_internal_energy(1.0e4)
    cs = C.sound_speed(u)
    assert 5.0 < cs < 20.0


def test_sn_region_sound_speed_matches_paper():
    # The paper quotes ~1000 km/s sound speed in SN-heated gas (~1e7 K+).
    u = C.temperature_to_internal_energy(7.0e7)
    cs_km_s = C.sound_speed(u) * C.KM_PER_S
    assert 800.0 < cs_km_s < 2000.0


def test_mean_molecular_weight_limits():
    assert C.mean_molecular_weight(10.0) == pytest.approx(C.MU_NEUTRAL)
    assert C.mean_molecular_weight(1e6) == pytest.approx(C.MU_IONIZED)
    mid = C.mean_molecular_weight(10 ** 4.25)
    assert C.MU_IONIZED < mid < C.MU_NEUTRAL


def test_density_to_nh_order_of_magnitude():
    # 1 M_sun/pc^3 ~ 30 H atoms / cm^3 (for X_H = 0.76).
    assert C.DENSITY_TO_NH == pytest.approx(30.0, rel=0.15)


# ------------------------------------------------------- T(u) as a formula
def _temperature_by_damped_sweeps(u):
    """``internal_energy_to_temperature`` as it was: 40 damped fixed-point
    sweeps from the neutral guess (converged to ~1e-12)."""
    from repro.util.constants import BOLTZMANN, GAMMA, MU_NEUTRAL, mean_molecular_weight

    t = (GAMMA - 1.0) * MU_NEUTRAL * u / BOLTZMANN
    for _ in range(40):
        t = 0.5 * (t + (GAMMA - 1.0) * mean_molecular_weight(t) * u / BOLTZMANN)
    return t


def test_temperature_inverts_internal_energy_across_the_blend():
    """Closed form on the two flat branches of mu(T), Newton in log10 T on
    the blend: within 1e-11 of the 40-sweep solve it replaces, and an inverse
    of ``temperature_to_internal_energy`` to 1e-12, over 1-1e9 K with both
    knots and their neighbors."""
    from repro.util.constants import internal_energy_to_temperature, temperature_to_internal_energy

    knots = np.array([1.0e4, 10.0**4.5])
    t = np.concatenate(
        [np.logspace(0.0, 9.0, 20001), knots, knots * (1 - 1e-14), knots * (1 + 1e-14)]
    )
    u = temperature_to_internal_energy(t)
    got = internal_energy_to_temperature(u)
    np.testing.assert_allclose(got, _temperature_by_damped_sweeps(u), rtol=1e-11)
    np.testing.assert_allclose(got, t, rtol=1e-12)
    np.testing.assert_allclose(temperature_to_internal_energy(got), u, rtol=1e-12)
    assert np.all(np.diff(got[:20001]) > 0)                         # monotone through both knots
    # Scalars stay scalars, shapes stay shapes, an explicit mu is honored.
    assert np.ndim(internal_energy_to_temperature(float(u[5]))) == 0
    assert internal_energy_to_temperature(float(u[5])) == got[5]
    assert internal_energy_to_temperature(u[:6].reshape(2, 3)).shape == (2, 3)
    assert internal_energy_to_temperature(2.0, mu=1.0) == pytest.approx(
        internal_energy_to_temperature(2.0, mu=2.0) / 2.0
    )
