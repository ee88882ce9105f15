"""Physical constants and unit conversions in the pc / M_sun / Myr system.

Derivations
-----------
G = 6.674e-8 cm^3 g^-1 s^-2
  = 6.674e-8 * (MSUN_G / PC_CM^3) * MYR_S^2  pc^3 M_sun^-1 Myr^-2
  = 4.49850e-3 pc^3 M_sun^-1 Myr^-2

1 velocity unit = 1 pc/Myr = PC_CM / MYR_S cm/s = 0.97779e5 cm/s = 0.97779 km/s

1 internal-energy unit = (pc/Myr)^2 per unit mass.

SN energy: 1e51 erg = 1e51 / (MSUN_G * (PC_CM/MYR_S)^2)  M_sun (pc/Myr)^2
"""

from __future__ import annotations

import numpy as np

# --- CGS anchors -----------------------------------------------------------
MSUN_G = 1.98892e33          # g per solar mass
PC_CM = 3.08568e18           # cm per parsec
MYR_S = 3.1557e13            # s per megayear
YR_MYR = 1.0e-6              # Myr per year

KB_CGS = 1.380649e-16        # erg/K
MP_CGS = 1.6726219e-24       # g
G_CGS = 6.6743e-8            # cm^3 g^-1 s^-2

# --- Derived code-unit constants -------------------------------------------
#: Gravitational constant in pc^3 M_sun^-1 Myr^-2.
GRAV_CONST = G_CGS * MSUN_G / PC_CM**3 * MYR_S**2

#: One code velocity unit (pc/Myr) expressed in km/s.
KM_PER_S = PC_CM / MYR_S / 1.0e5

#: Canonical supernova energy, 1e51 erg, in M_sun (pc/Myr)^2.
SN_ENERGY = 1.0e51 / (MSUN_G * (PC_CM / MYR_S) ** 2)

#: Boltzmann constant in code units per proton mass: k_B/m_p in
#: (pc/Myr)^2 K^-1 — i.e. the specific gas constant for mu = 1.
BOLTZMANN = KB_CGS / MP_CGS / (PC_CM / MYR_S) ** 2

#: Proton mass in solar masses (used for number densities).
PROTON_MASS = MP_CGS / MSUN_G

#: Adiabatic index of the monatomic ideal gas used throughout.
GAMMA = 5.0 / 3.0

#: Mean molecular weight of neutral (atomic H + He) gas.
MU_NEUTRAL = 1.27

#: Mean molecular weight of fully ionized gas.
MU_IONIZED = 0.59

#: Conversion from M_sun/pc^3 to hydrogen nuclei per cm^3 (for X_H = 0.76).
DENSITY_TO_NH = MSUN_G / PC_CM**3 * 0.76 / MP_CGS


def mean_molecular_weight(temperature: np.ndarray | float) -> np.ndarray | float:
    """Crude two-state mean molecular weight: neutral below 1e4 K, ionized above.

    A smooth blend over half a dex avoids a discontinuous sound speed at the
    ionization edge, which would otherwise inject noise into the CFL timestep.
    """
    t = np.asarray(temperature, dtype=np.float64)
    x = np.clip((np.log10(np.maximum(t, 1.0)) - 4.0) / 0.5, 0.0, 1.0)
    mu = MU_NEUTRAL * (1.0 - x) + MU_IONIZED * x
    if np.isscalar(temperature):
        return float(mu)
    return mu


def temperature_to_internal_energy(
    temperature: np.ndarray | float, mu: np.ndarray | float | None = None
) -> np.ndarray | float:
    """Specific internal energy u [(pc/Myr)^2] of an ideal gas at temperature T [K].

    u = k_B T / ((gamma - 1) mu m_p)
    """
    if mu is None:
        mu = mean_molecular_weight(temperature)
    return BOLTZMANN * np.asarray(temperature) / ((GAMMA - 1.0) * np.asarray(mu))


def internal_energy_to_temperature(
    u: np.ndarray | float, mu: np.ndarray | float | None = None
) -> np.ndarray | float:
    """Temperature [K] from specific internal energy [(pc/Myr)^2].

    When ``mu`` is not given, ``T = (gamma - 1) u mu(T) / k_B`` is inverted
    for the blend of :func:`mean_molecular_weight`.  ``mu`` is constant below
    1e4 K and above 10^4.5 K, so there ``T`` is a formula; in between
    ``10^L = a (mu_n + 2 (mu_i - mu_n) (L - 4))`` with ``L = log10 T`` has one
    root (the left side rises, the right side falls), found by Newton from
    the upper knot: the residual is convex, so the iterates descend on the
    root and seven of them reach rounding.  Exact inverse of
    :func:`temperature_to_internal_energy` to 1e-15 over 1-1e9 K.
    """
    u = np.asarray(u, dtype=np.float64)
    if mu is not None:
        return (GAMMA - 1.0) * np.asarray(mu) * u / BOLTZMANN
    a = np.ravel((GAMMA - 1.0) / BOLTZMANN * u)
    t = np.where(MU_NEUTRAL * a <= 1.0e4, MU_NEUTRAL * a, MU_IONIZED * a)
    blend = np.flatnonzero((MU_NEUTRAL * a > 1.0e4) & (MU_IONIZED * a < 10.0**4.5))
    a_b, log_t = a[blend], np.full(blend.size, 4.5)
    slope = 2.0 * (MU_NEUTRAL - MU_IONIZED) * a_b
    for _ in range(7):
        t_b = 10.0**log_t
        log_t -= (t_b - MU_NEUTRAL * a_b + slope * (log_t - 4.0)) / (np.log(10.0) * t_b + slope)
    t[blend] = 10.0**log_t
    return t.reshape(u.shape)[()]


def sound_speed(u: np.ndarray | float) -> np.ndarray | float:
    """Adiabatic sound speed c_s = sqrt(gamma (gamma-1) u) in pc/Myr."""
    return np.sqrt(GAMMA * (GAMMA - 1.0) * np.asarray(u))
