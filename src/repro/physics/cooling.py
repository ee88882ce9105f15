"""Radiative cooling and heating.

A collisional-ionization-equilibrium cooling curve Lambda(T) spanning
10 K – 1e8 K (piecewise power-law in log-log, shaped like the standard
Sutherland & Dopita curve with a low-temperature fine-structure extension)
plus constant photoelectric heating.  The net specific energy rate is

.. math::  \\dot u = (\\Gamma n_H - \\Lambda(T) n_H^2) / \\rho

integrated with a sub-cycled semi-implicit update so a single 2,000 yr
global step can absorb cooling times far shorter than the step — the same
reason the production code treats cooling separately from the hydro kick
(step 6 of the Sec. 3.2 loop).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.constants import (
    MSUN_G,
    MYR_S,
    PC_CM,
    DENSITY_TO_NH,
    internal_energy_to_temperature,
    temperature_to_internal_energy,
)

# Anchor points of log10 Lambda [erg cm^3 / s] vs log10 T [K]; CIE-like shape:
# fine-structure cooling below 1e4 K, the Ly-alpha wall at 1e4, the peak near
# 1e5, the dip near 1e7, bremsstrahlung rise beyond.
_LOGT = np.array([1.0, 2.0, 3.0, 3.9, 4.0, 4.3, 5.0, 5.8, 6.5, 7.0, 7.5, 8.0])
_LOGL = np.array(
    [-30.0, -28.4, -27.2, -26.0, -23.2, -21.9, -21.3, -21.8, -22.6, -22.9, -22.7, -22.4]
)

#: erg cm^3 s^-1 -> code units (M_sun pc^3 (pc/Myr)^2 Myr^-1 ... applied in rate form).
_ERG = 1.0 / (MSUN_G * (PC_CM / MYR_S) ** 2)


@dataclass
class CoolingModel:
    """Cooling/heating with a temperature floor and photoelectric heating.

    Parameters
    ----------
    heating_gamma : photoelectric heating rate per H atom [erg/s]; the
        paper's ISM model keeps the warm phase alive against cooling.
    t_floor / t_ceiling : clamp on the temperature after the update.
    metallicity_scaling : if True, scale Lambda linearly with Z/Z_sun below
        1e4 K and as a 0.5 power above (metals dominate fine-structure
        cooling; bremsstrahlung is metal-free).
    """

    heating_gamma: float = 2.0e-26
    t_floor: float = 10.0
    t_ceiling: float = 1.0e9
    metallicity_scaling: bool = False
    z_sun: float = 0.0134

    def lambda_cgs(self, temperature: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
        """Lambda(T) [erg cm^3/s], optionally metallicity-scaled."""
        logt = np.log10(np.clip(np.asarray(temperature, dtype=np.float64), 1.0, 1e9))
        lam = 10.0 ** np.interp(logt, _LOGT, _LOGL)
        if self.metallicity_scaling and z is not None:
            zfac = np.clip(np.asarray(z) / self.z_sun, 1e-3, 100.0)
            cold = logt < 4.0
            lam = np.where(cold, lam * zfac, lam * np.sqrt(zfac))
        return lam

    def du_dt(
        self, u: np.ndarray, dens: np.ndarray, z: np.ndarray | None = None
    ) -> np.ndarray:
        """Net du/dt in code units [(pc/Myr)^2 / Myr]."""
        u = np.asarray(u, dtype=np.float64)
        dens = np.asarray(dens, dtype=np.float64)
        t = internal_energy_to_temperature(u)
        n_h = dens * DENSITY_TO_NH                       # cm^-3
        lam = self.lambda_cgs(t, z)                      # erg cm^3/s
        # rho in cgs: dens * MSUN_G / PC_CM^3.
        rho_cgs = np.maximum(dens, 1e-300) * MSUN_G / PC_CM**3
        du_cgs = (self.heating_gamma * n_h - lam * n_h**2) / rho_cgs  # erg/g/s
        # erg/g = cm^2/s^2 -> (pc/Myr)^2 ; /s -> /Myr.
        return du_cgs / (PC_CM / MYR_S) ** 2 * MYR_S

    def cooling_time(self, u: np.ndarray, dens: np.ndarray) -> np.ndarray:
        """|u / du_dt| [Myr] (inf where the net rate vanishes)."""
        rate = self.du_dt(u, dens)
        return np.where(rate != 0.0, np.abs(np.asarray(u) / rate), np.inf)

    def integrate(
        self,
        u: np.ndarray,
        dens: np.ndarray,
        dt: float,
        z: np.ndarray | None = None,
        max_subcycles: int = 64,
    ) -> np.ndarray:
        """Advance u over dt with adaptive sub-cycling (new u returned);
        ``u``, ``dens`` and ``z`` hold one entry per particle.

        Each sub-step is limited to a 25% relative change of u (explicit but
        stable because of the limiter), and the result is clamped to the
        temperature floor/ceiling.  After the first sub-cycle only the few
        particles with time remaining (the SN-heated ones) are still
        integrated: the working arrays are compacted to them, so a sub-cycle
        costs what is left, not the whole gas.  Every operation is
        element-wise, so the result equals, bit for bit, that of carrying
        every particle through every sub-cycle with a zero step.
        """
        u = np.asarray(u, dtype=np.float64).copy()
        u_a, dens_a, z_a = u, np.asarray(dens, dtype=np.float64), z
        idx = np.arange(u.size)
        remaining = np.full(u.size, float(dt))
        u_floor = temperature_to_internal_energy(self.t_floor)
        u_ceil = temperature_to_internal_energy(self.t_ceiling)
        for _ in range(max_subcycles):
            active = np.flatnonzero(remaining > 0.0)
            if not active.size:
                break
            if active.size < idx.size:
                idx, u_a, dens_a = idx[active], u_a[active], dens_a[active]
                remaining, z_a = remaining[active], None if z_a is None else z_a[active]
            rate = self.du_dt(u_a, dens_a, z_a)
            # Sub-step: min(remaining, 0.25 u / |rate|).
            safe = np.where(rate != 0.0, 0.25 * u_a / np.abs(rate), np.inf)
            step = np.minimum(remaining, np.maximum(safe, 1e-12))
            u_a = np.clip(u_a + rate * step, u_floor, u_ceil)
            u[idx] = u_a
            # At the floor/ceiling the remaining time can be dropped.
            at_limit = (u_a <= u_floor * (1 + 1e-12)) & (rate < 0)
            at_limit |= (u_a >= u_ceil * (1 - 1e-12)) & (rate > 0)
            remaining = np.where(at_limit, 0.0, remaining - step)
        return u

    def equilibrium_temperature(self, dens: float, bracket=(10.0, 1e8)) -> float:
        """T where heating balances cooling at a given density (bisection)."""
        lo, hi = bracket
        n_h = dens * DENSITY_TO_NH

        def net(t: float) -> float:
            return self.heating_gamma - self.lambda_cgs(np.array([t]))[0] * n_h

        flo = net(lo)
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            fm = net(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
            if hi / lo < 1.0 + 1e-6:
                break
        return float(np.sqrt(lo * hi))
