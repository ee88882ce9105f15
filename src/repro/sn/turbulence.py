"""Turbulent velocity fields and turbulent-box initial conditions.

The paper's training data uses "density fields disturbed by turbulent
velocity fields that follow v ~ k^-4, which imitate environments of
star-forming regions" (Sec. 3.3).  We synthesize such fields spectrally:
each velocity component is a Gaussian random field with power spectrum
P(k) ~ k^{-4} (Burgers-like, appropriate for shock-dominated ISM
turbulence), generated on a grid by inverse FFT and interpolated to
particle positions trilinearly.
"""

from __future__ import annotations

import numpy as np

from repro.fdps.particles import ParticleSet, ParticleType
from repro.util.constants import temperature_to_internal_energy


def turbulent_velocity_field(
    n_grid: int,
    spectral_index: float = -4.0,
    seed: int | np.random.Generator = 0,
    solenoidal_fraction: float | None = None,
) -> np.ndarray:
    """A (3, n, n, n) random velocity field with P(k) ~ k^{spectral_index}.

    Normalized to unit rms per component.  ``solenoidal_fraction`` optionally
    performs a Helmholtz projection mixing solenoidal (divergence-free) and
    compressive parts; ``None`` keeps the natural (2/3, 1/3) mix.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k1 = np.fft.fftfreq(n_grid) * n_grid
    kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
    k2 = kx**2 + ky**2 + kz**2
    kmag = np.sqrt(k2)
    # Amplitude ~ sqrt(P(k)); P here is the 3D power spectral density so the
    # shell-integrated spectrum E(k) ~ k^2 P(k) ~ k^{index+2}.
    with np.errstate(divide="ignore"):
        amp = np.where(kmag > 0, kmag ** (spectral_index / 2.0), 0.0)
    amp[kmag > n_grid / 2] = 0.0  # isotropic truncation at Nyquist

    vel = np.empty((3, n_grid, n_grid, n_grid))
    spec = np.empty((3, n_grid, n_grid, n_grid), dtype=np.complex128)
    for c in range(3):
        phase = rng.uniform(0, 2 * np.pi, (n_grid,) * 3)
        mag = rng.normal(0.0, 1.0, (n_grid,) * 3)
        spec[c] = amp * mag * np.exp(1j * phase)

    if solenoidal_fraction is not None:
        # Helmholtz decomposition in k space: v_comp = k (k.v)/k^2.
        with np.errstate(divide="ignore", invalid="ignore"):
            kdotv = (kx * spec[0] + ky * spec[1] + kz * spec[2]) / np.where(k2 > 0, k2, 1.0)
        comp = np.stack([kx * kdotv, ky * kdotv, kz * kdotv])
        sol = spec - comp
        w_sol = np.sqrt(max(solenoidal_fraction, 0.0))
        w_comp = np.sqrt(max(1.0 - solenoidal_fraction, 0.0))
        spec = w_sol * sol + w_comp * comp

    for c in range(3):
        v = np.fft.ifftn(spec[c]).real
        rms = np.sqrt(np.mean(v**2))
        vel[c] = v / max(rms, 1e-300)
    return vel


def measure_power_spectrum(
    field: np.ndarray, n_bins: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """Shell-averaged 3D power spectrum P(k) of one scalar grid field."""
    n = field.shape[0]
    fk = np.fft.fftn(field)
    power = np.abs(fk) ** 2
    k1 = np.fft.fftfreq(n) * n
    kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
    kmag = np.sqrt(kx**2 + ky**2 + kz**2).ravel()
    p = power.ravel()
    # Log-spaced shells with log-mean pairing: for a pure power law
    # log P = alpha log k + c, averaging the *logs* per shell keeps the
    # (mean log k, mean log P) points exactly on the line, so the fitted
    # slope is unbiased even for very steep spectra (arithmetic shell means
    # are dominated by the low-k edge and bias the slope steep).
    bins = np.geomspace(1.2, n / 2.0, n_bins + 1)
    which = np.digitize(kmag, bins) - 1
    ok = (which >= 0) & (which < n_bins) & (p > 0) & (kmag > 0)
    cnt = np.maximum(np.bincount(which[ok], minlength=n_bins), 1)
    klog = np.bincount(which[ok], weights=np.log(kmag[ok]), minlength=n_bins) / cnt
    plog = np.bincount(which[ok], weights=np.log(p[ok]), minlength=n_bins) / cnt
    has = np.bincount(which[ok], minlength=n_bins) > 0
    return np.exp(klog[has]), np.exp(plog[has])


def _trilinear_sample(grid: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Sample a periodic scalar grid at fractional coordinates (N, 3)."""
    n = grid.shape[0]
    c = np.mod(coords, n)
    i0 = np.floor(c).astype(np.int64) % n
    f = c - np.floor(c)
    i1 = (i0 + 1) % n
    out = np.zeros(len(coords))
    for dx, wx in ((0, 1 - f[:, 0]), (1, f[:, 0])):
        ix = i0[:, 0] if dx == 0 else i1[:, 0]
        for dy, wy in ((0, 1 - f[:, 1]), (1, f[:, 1])):
            iy = i0[:, 1] if dy == 0 else i1[:, 1]
            for dz, wz in ((0, 1 - f[:, 2]), (1, f[:, 2])):
                iz = i0[:, 2] if dz == 0 else i1[:, 2]
                out += wx * wy * wz * grid[ix, iy, iz]
    return out


def make_turbulent_box(
    n_per_side: int = 16,
    side: float = 60.0,
    mean_density: float = 1.0,
    temperature: float = 100.0,
    mach: float = 5.0,
    seed: int = 0,
    particle_mass: float | None = None,
    grid_n: int = 32,
) -> ParticleSet:
    """A (side)^3 pc turbulent star-forming-region box of gas particles.

    Positions start on a jittered lattice; the k^-4 turbulent velocity field
    is scaled to the requested Mach number relative to the isothermal sound
    speed at ``temperature``.  This is the paper's SN-training environment:
    sample a box, optionally let it relax, explode a star at the center.
    Kernel sizes start at twice the lattice spacing (``make_mw_model``
    seeds a neighbour-distance guess instead; a lattice needs none).
    """
    rng = np.random.default_rng(seed)
    g = (np.arange(n_per_side) + 0.5) / n_per_side * side - side / 2.0
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    pos = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    spacing = side / n_per_side
    pos += rng.normal(0.0, 0.1 * spacing, pos.shape)
    n = len(pos)

    u = temperature_to_internal_energy(temperature)
    cs_iso = np.sqrt(2.0 / 3.0 * u)  # isothermal sound speed ~ sqrt((gamma-1) u)
    vfield = turbulent_velocity_field(grid_n, spectral_index=-4.0, seed=rng)
    coords = (pos + side / 2.0) / side * grid_n
    vel = np.column_stack([_trilinear_sample(vfield[c], coords) for c in range(3)])
    # Rescale: the sampled field's rms differs slightly from the grid rms.
    rms = np.sqrt(np.mean(np.sum(vel**2, axis=1)) / 3.0)
    vel *= mach * cs_iso / max(rms, 1e-300)
    vel -= vel.mean(axis=0)  # zero net momentum

    mass = particle_mass if particle_mass is not None else mean_density * side**3 / n
    ps = ParticleSet.from_arrays(
        pos=pos,
        vel=vel,
        mass=np.full(n, mass),
        pid=np.arange(n),
        ptype=np.full(n, int(ParticleType.GAS)),
        eps=np.full(n, 0.25 * spacing),
    )
    ps.u[:] = u
    ps.h[:] = 2.0 * spacing
    return ps
