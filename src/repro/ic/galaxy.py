"""Model MW factories and per-domain parallel generation (Sec. 4.2).

The paper's Model MW: M_DM = 1.1e12, M_star = 5.4e10, M_gas = 1.2e10 M_sun;
"the halo is mainly composed of DM, but some stars and gas are also
distributed"; disk scale height ~10% of the scale length; density strongly
concentrated toward the centre and mid-plane (which shapes the Fig. 4
decomposition).  ``make_mw_small`` and ``make_mw_mini`` scale all component
masses by 1/10 and 1/100 (the paper's Model MW-small / MW-mini).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fdps.domain import DomainDecomposition
from repro.fdps.particles import ParticleSet, ParticleType
from repro.ic.disk import sample_stellar_disk
from repro.ic.gasdisk import sample_gas_disk
from repro.ic.halo import sample_halo
from repro.ic.profiles import CompositeRotation, ExponentialDisk, NFWHalo
from repro.sph.density import kernel_size_guess

#: Neighbour count the gas kernel sizes are seeded at: the integrator's
#: default target (``IntegratorConfig.n_ngb``).
_SEED_N_NGB = 32


@dataclass
class MWModelSpec:
    """Structural parameters of the Milky Way model (McMillan 2017-flavored)."""

    m_dm: float = 1.1e12
    m_star: float = 5.4e10
    m_gas: float = 1.2e10
    halo_a: float = 2.0e4          # NFW scale radius [pc]
    halo_rmax: float = 2.0e5       # halo extent: 200 kpc (Sec. 1)
    star_rd: float = 2.6e3         # stellar disk scale length [pc]
    star_zd: float = 3.0e2         # ~10% of the scale length (Sec. 4.2)
    gas_rd: float = 4.5e3
    gas_zd: float = 1.0e2
    gas_temperature: float = 1.0e4
    halo_star_fraction: float = 0.05   # stars living in the halo component

    def scaled(self, factor: float) -> "MWModelSpec":
        """Mass-scaled variant with sizes ~ M^{1/3} (fixed mean density)."""
        s = factor ** (1.0 / 3.0)
        return MWModelSpec(
            m_dm=self.m_dm * factor,
            m_star=self.m_star * factor,
            m_gas=self.m_gas * factor,
            halo_a=self.halo_a * s,
            halo_rmax=self.halo_rmax * s,
            star_rd=self.star_rd * s,
            star_zd=self.star_zd * s,
            gas_rd=self.gas_rd * s,
            gas_zd=self.gas_zd * s,
            gas_temperature=self.gas_temperature,
            halo_star_fraction=self.halo_star_fraction,
        )

    @property
    def m_total(self) -> float:
        return self.m_dm + self.m_star + self.m_gas

    def components(self) -> tuple[NFWHalo, ExponentialDisk, ExponentialDisk, CompositeRotation]:
        halo = NFWHalo(m_total=self.m_dm, a=self.halo_a, r_max=self.halo_rmax)
        star_disk = ExponentialDisk(
            m_total=self.m_star * (1 - self.halo_star_fraction),
            r_d=self.star_rd,
            z_d=self.star_zd,
        )
        gas_disk = ExponentialDisk(m_total=self.m_gas, r_d=self.gas_rd, z_d=self.gas_zd)
        rot = CompositeRotation(halo=halo, disks=(star_disk, gas_disk))
        return halo, star_disk, gas_disk, rot


#: The paper's Model MW.
MW_SPEC = MWModelSpec()


def make_mw_model(
    n_total: int,
    seed: int = 0,
    spec: MWModelSpec | None = None,
    softening: float | None = None,
    count_fractions: tuple[float, float, float] | None = None,
) -> ParticleSet:
    """Sample a three-component MW model with ``n_total`` particles.

    By default particle counts are proportional to component masses, so
    every species shares one particle mass.  ``count_fractions``
    (dm, star, gas) overrides the split — e.g. ``(0.3, 0.3, 0.4)`` gives a
    gas-rich sampling with per-species particle masses, the usual
    different-resolution-per-species setup (the paper itself uses ~8x
    heavier DM particles, Table 2).

    Gas kernel sizes ``h`` are a neighbour-distance guess: each gas
    particle's distance to its 32nd nearest gas neighbour
    (:func:`repro.sph.density.kernel_size_guess` at the integrator's default
    ``n_ngb``), so the first density solve starts next to its root.
    """
    spec = spec or MW_SPEC
    rng = np.random.default_rng(seed)
    halo, star_disk, gas_disk, rot = spec.components()

    if count_fractions is None:
        f_dm = spec.m_dm / spec.m_total
        f_gas = spec.m_gas / spec.m_total
    else:
        f_dm, _f_star, f_gas = count_fractions
    n_dm = max(int(round(n_total * f_dm)), 1)
    n_gas = max(int(round(n_total * f_gas)), 1)
    n_star = max(n_total - n_dm - n_gas, 1)
    n_star_halo = int(round(n_star * spec.halo_star_fraction))
    n_star_disk = n_star - n_star_halo

    pieces: list[ParticleSet] = []
    pid0 = 0

    # --- dark matter halo -----------------------------------------------------
    pos, vel = sample_halo(halo, rot, n_dm, rng)
    dm = ParticleSet.from_arrays(
        pos=pos,
        vel=vel,
        mass=np.full(n_dm, spec.m_dm / n_dm),
        pid=np.arange(pid0, pid0 + n_dm),
        ptype=np.full(n_dm, int(ParticleType.DARK_MATTER)),
    )
    dm.eps[:] = _softening(spec.m_dm / n_dm, softening)
    pieces.append(dm)
    pid0 += n_dm

    # --- stellar disk (+ halo stars sampled from a puffed spheroid) -----------
    pos, vel = sample_stellar_disk(star_disk, rot, n_star_disk, rng)
    stars = ParticleSet.from_arrays(
        pos=pos,
        vel=vel,
        mass=np.full(n_star_disk, spec.m_star * (1 - spec.halo_star_fraction) / max(n_star_disk, 1)),
        pid=np.arange(pid0, pid0 + n_star_disk),
        ptype=np.full(n_star_disk, int(ParticleType.STAR)),
    )
    stars.eps[:] = _softening(spec.m_star / max(n_star, 1), softening)
    pieces.append(stars)
    pid0 += n_star_disk

    if n_star_halo > 0:
        mini_halo = NFWHalo(
            m_total=spec.m_star * spec.halo_star_fraction,
            a=spec.halo_a / 4.0,
            r_max=spec.halo_rmax / 2.0,
        )
        pos, vel = sample_halo(mini_halo, rot, n_star_halo, rng)
        shalo = ParticleSet.from_arrays(
            pos=pos,
            vel=vel,
            mass=np.full(n_star_halo, spec.m_star * spec.halo_star_fraction / n_star_halo),
            pid=np.arange(pid0, pid0 + n_star_halo),
            ptype=np.full(n_star_halo, int(ParticleType.STAR)),
        )
        shalo.eps[:] = _softening(spec.m_star / max(n_star, 1), softening)
        pieces.append(shalo)
        pid0 += n_star_halo

    # --- gas disk ---------------------------------------------------------------
    pos, vel, u = sample_gas_disk(gas_disk, rot, n_gas, rng, spec.gas_temperature)
    gas = ParticleSet.from_arrays(
        pos=pos,
        vel=vel,
        mass=np.full(n_gas, spec.m_gas / n_gas),
        pid=np.arange(pid0, pid0 + n_gas),
        ptype=np.full(n_gas, int(ParticleType.GAS)),
    )
    gas.eps[:] = _softening(spec.m_gas / n_gas, softening)
    gas.u[:] = u
    gas.h[:] = kernel_size_guess(pos, _SEED_N_NGB)
    pieces.append(gas)

    out = pieces[0]
    for p in pieces[1:]:
        out = out.append(p)
    return out


def _softening(m_particle: float, override: float | None) -> float:
    """Resolution-scaled softening ~ m^{1/3} anchored at 10 pc for 1e5 M_sun."""
    if override is not None:
        return override
    return 10.0 * (max(m_particle, 1e-3) / 1.0e5) ** (1.0 / 3.0)


def make_mw_small(n_total: int, seed: int = 0) -> ParticleSet:
    """Model MW-small: 1/10 of the MW mass (Sec. 4.2)."""
    return make_mw_model(n_total, seed=seed, spec=MW_SPEC.scaled(0.1))


def make_mw_mini(n_total: int, seed: int = 0) -> ParticleSet:
    """Model MW-mini: 1/100 of the MW mass (Sec. 4.2)."""
    return make_mw_model(n_total, seed=seed, spec=MW_SPEC.scaled(0.01))


def generate_for_domain(
    decomp: DomainDecomposition,
    rank: int,
    n_total: int,
    seed: int = 0,
    spec: MWModelSpec | None = None,
) -> ParticleSet:
    """Per-domain parallel generation (the paper's AGAMA modification).

    Each rank generates the full deterministic stream for its seed but keeps
    only its own domain's particles, so the union over ranks reproduces the
    single-process model exactly while each rank touches only O(N) work once
    — the simple, bitwise-reproducible flavour of per-domain generation (the
    production code samples the DF restricted to the domain instead).
    """
    full = make_mw_model(n_total, seed=seed, spec=spec)
    ranks = decomp.assign(full.pos)
    return full.select(ranks == rank)
