"""Exact Sedov–Taylor point explosion (spherical, gamma-law gas).

The self-similar ansatz

.. math::

    u = \\dot R \\, U(\\lambda), \\quad \\rho = \\rho_0 G(\\lambda),
    \\quad p = \\rho_0 \\dot R^2 P(\\lambda), \\qquad \\lambda = r / R(t)

with :math:`R(t) = \\beta (E t^2/\\rho_0)^{1/5}` reduces the Euler equations
to three ODEs in :math:`\\lambda`:

.. math::

    (U-\\lambda)\\,G'/G + U' + 2U/\\lambda &= 0 \\\\
    (U-\\lambda)\\,U' + P'/G &= \\tfrac{3}{2} U \\\\
    (U-\\lambda)\\,(P'/P - \\gamma G'/G) &= 3

integrated inward from the strong-shock jump conditions at
:math:`\\lambda = 1`.  The normalization :math:`\\beta` follows from the
energy integral; for :math:`\\gamma = 5/3` the classic value is
:math:`\\beta \\approx 1.152`, which the test suite checks against the
literature.  The solution provides the "0.1 Myr after the explosion" target
states used to train the surrogate (Sec. 3.3) without running a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.util.constants import GAMMA


def _similarity_rhs(lam: float, y: np.ndarray, gamma: float) -> np.ndarray:
    """Right-hand side (U', G', P') of the similarity ODE system."""
    u, g, p = y
    w = u - lam  # always negative inside the shock
    # Linear system A @ (U', G', P') = b from the three reduced equations.
    a = np.array(
        [
            [1.0, w / g, 0.0],
            [w, 0.0, 1.0 / g],
            [0.0, -gamma * w / g, w / p],
        ]
    )
    b = np.array([-2.0 * u / lam, 1.5 * u, 3.0])
    return np.linalg.solve(a, b)


@lru_cache(maxsize=8)
def _integrate_profile(gamma: float, lam_min: float = 1e-3) -> tuple:
    """Integrate the similarity ODEs from lambda=1 to lam_min.

    Returns (lam_grid, U, G, P, beta) with beta the shock-position
    normalization from the energy integral.
    """
    # Only this solve needs scipy.integrate (and the optimize / linalg /
    # sparse stack it pulls in): every process that imports repro.core pays
    # for a module-level import, only the one that solves should.
    from scipy.integrate import solve_ivp

    y0 = np.array(
        [2.0 / (gamma + 1.0), (gamma + 1.0) / (gamma - 1.0), 2.0 / (gamma + 1.0)]
    )
    sol = solve_ivp(
        _similarity_rhs,
        (1.0, lam_min),
        y0,
        args=(gamma,),
        method="LSODA",
        dense_output=True,
        rtol=1e-10,
        atol=1e-12,
        max_step=1e-2,
    )
    if not sol.success:
        raise RuntimeError(f"Sedov similarity integration failed: {sol.message}")
    lam = np.linspace(lam_min, 1.0, 4000)
    u, g, p = sol.sol(lam)
    g = np.maximum(g, 0.0)
    p = np.maximum(p, 0.0)
    # Energy integral: 1 = (16 pi / 25) beta^5 * I,
    # I = int_0^1 (G U^2 / 2 + P/(gamma-1)) lambda^2 dlambda.
    integrand = (0.5 * g * u**2 + p / (gamma - 1.0)) * lam**2
    i_val = np.trapezoid(integrand, lam)
    beta = (25.0 / (16.0 * np.pi * i_val)) ** 0.2
    return lam, u, g, p, float(beta)


def sedov_shock_radius(
    energy: float, rho0: float, t: float, gamma: float = GAMMA
) -> float:
    """Shock radius R(t) = beta (E t^2 / rho0)^{1/5}."""
    beta = _integrate_profile(gamma)[4]
    return float(beta * (energy * t**2 / rho0) ** 0.2)


@dataclass
class SedovSolution:
    """Evaluable blast-wave state at arbitrary (r, t).

    Units are whatever ``energy``/``rho0`` are expressed in (the library
    uses pc / M_sun / Myr).  Ambient gas outside the shock keeps
    (rho0, u_ambient, zero velocity).
    """

    energy: float
    rho0: float
    gamma: float = GAMMA
    u_ambient: float = 0.0
    _profile: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._profile = _integrate_profile(self.gamma)

    @property
    def beta(self) -> float:
        return self._profile[4]

    def shock_radius(self, t: float) -> float:
        return float(self.beta * (self.energy * t**2 / self.rho0) ** 0.2)

    def shock_velocity(self, t: float) -> float:
        return 0.4 * self.shock_radius(t) / t

    def evaluate(
        self, r: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(density, radial velocity, specific internal energy) at radius r.

        Inside the shock the similarity profile is interpolated; outside,
        the ambient state.  The origin uses the innermost integrated value
        (G -> 0 there, so density vanishes at the center as it must).
        """
        lam_grid, u_g, g_g, p_g, _ = self._profile
        r = np.asarray(r, dtype=np.float64)
        rs = self.shock_radius(t)
        vs = self.shock_velocity(t)
        lam = np.clip(r / rs, lam_grid[0], 1.0)
        inside = r <= rs

        dens = np.where(inside, self.rho0 * np.interp(lam, lam_grid, g_g), self.rho0)
        vel = np.where(inside, vs * np.interp(lam, lam_grid, u_g), 0.0)
        pres = np.where(inside, self.rho0 * vs**2 * np.interp(lam, lam_grid, p_g), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_int = pres / ((self.gamma - 1.0) * np.maximum(dens, 1e-300))
        u_int = np.where(inside, np.maximum(u_int, self.u_ambient), self.u_ambient)
        return dens, vel, u_int

    def apply_to_particles(
        self, pos: np.ndarray, center: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Blast state at particle positions: (density, velocity(N,3), u).

        Velocities point radially away from ``center``.
        """
        pos = np.asarray(pos, dtype=np.float64)
        center = np.asarray(center, dtype=np.float64)
        d = pos - center[None, :]
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        dens, vrad, u_int = self.evaluate(r, t)
        rhat = d / np.maximum(r, 1e-300)[:, None]
        vel = vrad[:, None] * rhat
        return dens, vel, u_int

    def swept_mass(self, t: float) -> float:
        """Mass inside the shock — equals the displaced ambient mass."""
        return 4.0 / 3.0 * np.pi * self.rho0 * self.shock_radius(t) ** 3

    def total_energy(self, t: float, n_shells: int = 2000) -> float:
        """Numerical check: kinetic + thermal energy inside the shock."""
        rs = self.shock_radius(t)
        r = np.linspace(rs * 1e-3, rs * (1 - 1e-9), n_shells)
        dens, vel, u_int = self.evaluate(r, t)
        e_density = 0.5 * dens * vel**2 + dens * u_int
        return float(np.trapezoid(4.0 * np.pi * r**2 * e_density, r))
