"""Supernova feedback: energy and metal injection.

This is the *direct* (conventional) feedback path: 1e51 erg of thermal
energy plus core-collapse yields (C, O, Mg, Fe) are kernel-weighted over the
gas neighbors of the explosion site.  In the surrogate scheme this code runs
only inside the training-data generator and the conventional baseline — on
the main nodes the pool-node U-Net prediction *replaces* it (Sec. 3.2 step 3
explicitly integrates "without adding any feedback energy").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fdps.particles import ParticleSet, ParticleType
from repro.sph.kernels import DEFAULT_KERNEL, SPHKernel
from repro.util.constants import SN_ENERGY


@dataclass
class SNYields:
    """Ejected masses per core-collapse SN [M_sun] (typical 15-20 M_sun
    progenitor yields: Nomoto et al. 2013 ballpark)."""

    c: float = 0.15
    o: float = 1.5
    mg: float = 0.12
    fe: float = 0.07

    def as_array(self) -> np.ndarray:
        return np.array([self.c, self.o, self.mg, self.fe])

    @property
    def total(self) -> float:
        return float(self.as_array().sum())


@dataclass
class SNFeedback:
    """Thermal-dump SN feedback with kernel weighting.

    Parameters
    ----------
    energy : energy per SN in code units (default 1e51 erg).
    coupling_radius : fallback injection radius [pc] when the local kernel
        size is unresolved; the paper's surrogate region is a (60 pc)^3 box,
        and direct injection uses the SPH kernel scale instead.
    """

    energy: float = SN_ENERGY
    yields: SNYields = None  # type: ignore[assignment]
    coupling_radius: float = 5.0
    kernel: SPHKernel = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.yields is None:
            self.yields = SNYields()
        if self.kernel is None:
            self.kernel = DEFAULT_KERNEL

    def inject(
        self,
        ps: ParticleSet,
        center: np.ndarray,
        ejecta_mass: float = 0.0,
    ) -> int:
        """Deposit one SN at ``center`` into the surrounding gas, in place.

        Energy and metals are shared over gas particles within
        max(local h, coupling_radius) with SPH-kernel weights.  Returns the
        number of gas particles heated (0 if no gas is in range — the SN
        fizzles into the void, which the caller may log).
        """
        gas = ps.where_type(ParticleType.GAS)
        gidx = np.flatnonzero(gas)
        if gidx.size == 0:
            return 0
        center = np.asarray(center, dtype=np.float64)
        d = ps.pos[gidx] - center[None, :]
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        radius = max(float(np.median(ps.h[gidx])), self.coupling_radius)
        near = r < radius
        if not near.any():
            # Fall back to the single nearest particle: energy must go
            # somewhere or the conservation audit breaks.
            near = np.zeros_like(r, dtype=bool)
            near[np.argmin(r)] = True
        target = gidx[near]
        w = self.kernel.value(r[near], np.full(near.sum(), radius))
        w = np.maximum(w, 1e-300)
        w /= w.sum()

        # Thermal energy: specific energy bump du = w_k E / m_k.
        ps.u[target] += w * self.energy / ps.mass[target]
        # Metals: mass-fraction update including the added ejecta mass.
        add = w[:, None] * self.yields.as_array()[None, :]
        old_metal_mass = ps.zmet[target] * ps.mass[target][:, None]
        new_mass = ps.mass[target] + w * ejecta_mass
        ps.zmet[target] = (old_metal_mass + add) / new_mass[:, None]
        ps.mass[target] = new_mass
        return int(near.sum())


def metallicity(ps: ParticleSet) -> np.ndarray:
    """Total metal mass fraction Z per particle (sum of tracked species).

    Tracked species cover ~2/3 of the true metal budget; this is the Z used
    by the metallicity-scaled cooling.
    """
    return ps.zmet.sum(axis=1)

