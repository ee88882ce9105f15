"""Voxel -> particle conversion via Gibbs sampling.

"When we obtain an output of structured grid data from the machine, we
convert it back to particle data using Gibbs sampling, which is one of the
Markov chain Monte Carlo methods.  Mass conservation is ensured by making
the number of created particles the same as the number of particles in the
input data." (Sec. 3.3)

:func:`gibbs_sample_positions` runs a per-particle Gibbs chain over the
three coordinates: each sweep resamples one coordinate from its exact
conditional p(x | y, z) ~ rho(x, y, z) along the grid line through the
particle's current cell (inverse-CDF over the line), vectorized across all
particles.  After burn-in the particle set is an unbiased draw from the
(normalized) predicted density field; uniform intra-voxel jitter removes
grid imprinting.
"""

from __future__ import annotations

import numpy as np

from repro.fdps.particles import ParticleSet, ParticleType
from repro.surrogate.voxelize import VoxelGrid
from repro.util.constants import temperature_to_internal_energy


def gibbs_sample_positions(
    density: np.ndarray,
    n_particles: int,
    rng: np.random.Generator,
    n_sweeps: int = 8,
) -> np.ndarray:
    """Sample fractional grid coordinates (N, 3) from a 3D density field.

    Coordinates are continuous in [0, n): integer part = cell index,
    fractional part = uniform jitter inside the cell.
    """
    dens = np.maximum(np.asarray(density, dtype=np.float64), 0.0)
    if dens.sum() <= 0:
        raise ValueError("density field has no mass to sample")
    n = dens.shape[0]

    # Initialize from the marginal distribution of cells (a good start that
    # shortens burn-in; any start converges).
    flat_p = dens.ravel() / dens.sum()
    start = rng.choice(len(flat_p), size=n_particles, p=flat_p)
    ix, iy, iz = np.unravel_index(start, dens.shape)
    coords = np.stack([ix, iy, iz], axis=1).astype(np.int64)

    for _sweep in range(n_sweeps):
        for axis in range(3):
            other = [a for a in range(3) if a != axis]
            # Conditional distribution along the grid line through each
            # particle: rows of the density cube indexed by the other two
            # coordinates.
            lines = np.moveaxis(dens, axis, -1)[
                coords[:, other[0]], coords[:, other[1]], :
            ]  # (N, n)
            cum = np.cumsum(lines, axis=1)
            total = cum[:, -1]
            # Degenerate (empty) lines keep their current coordinate.
            ok = total > 0
            u = rng.uniform(0.0, 1.0, n_particles) * np.maximum(total, 1e-300)
            new = np.minimum(
                (cum < u[:, None]).sum(axis=1), n - 1
            )
            coords[ok, axis] = new[ok]

    jitter = rng.uniform(0.0, 1.0, (n_particles, 3))
    return coords.astype(np.float64) + jitter


def _trilinear_fields(grid: VoxelGrid, frac_coords: np.ndarray) -> np.ndarray:
    """Sample all 5 fields at fractional grid coordinates (clamped edges)."""
    n = grid.n_grid
    c = np.clip(frac_coords - 0.5, 0.0, n - 1.0)  # field values live at centres
    i0 = np.floor(c).astype(np.int64)
    i0 = np.clip(i0, 0, n - 2)
    f = c - i0
    out = np.zeros((grid.fields.shape[0], len(frac_coords)))
    for dx in (0, 1):
        wx = (1 - f[:, 0]) if dx == 0 else f[:, 0]
        for dy in (0, 1):
            wy = (1 - f[:, 1]) if dy == 0 else f[:, 1]
            for dz in (0, 1):
                wz = (1 - f[:, 2]) if dz == 0 else f[:, 2]
                w = wx * wy * wz
                vals = grid.fields[:, i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
                out += w[None, :] * vals
    return out


def devoxelize_to_particles(
    grid: VoxelGrid,
    template: ParticleSet,
    rng: np.random.Generator,
    n_sweeps: int = 8,
    n_ngb: int = 32,
) -> ParticleSet:
    """Create particles from a field cube, conserving count, mass, and IDs.

    ``template`` supplies the particle identities: the output has exactly
    the same ``pid``, ``mass``, ``ptype``, softening and metallicity, with
    positions drawn from the predicted density via Gibbs sampling and
    velocities/internal energy interpolated from the predicted fields —
    this is what a pool node sends back to the main nodes.  The kernel
    size is a guess from the predicted density alone (``n_ngb`` neighbors
    inside the support); the main nodes cap it
    (``CoupledRunner.receive_sne``) and their next kernel-size solve fits it
    to the gas the particles land in.
    """
    n_particles = len(template)
    if n_particles == 0:
        return template.copy()
    coords = gibbs_sample_positions(grid.field("density"), n_particles, rng, n_sweeps)
    fields = _trilinear_fields(grid, coords)

    out = template.copy()
    cell = grid.cell
    out.pos[:] = grid.center[None, :] + coords * cell - grid.side / 2.0
    out.vel[:, 0] = fields[2]
    out.vel[:, 1] = fields[3]
    out.vel[:, 2] = fields[4]
    out.u[:] = temperature_to_internal_energy(np.maximum(fields[1], 1.0))
    out.dens[:] = np.maximum(fields[0], 0.0)
    # h is the full support radius: (4 pi / 3) h^3 rho = N_ngb m.
    h_est = np.cbrt(
        3.0 * n_ngb * out.mass / (4.0 * np.pi * np.maximum(out.dens, 1e-12))
    )
    out.h[:] = np.clip(h_est, 0.25 * cell, grid.side)
    out.ptype[:] = int(ParticleType.GAS)
    return out
