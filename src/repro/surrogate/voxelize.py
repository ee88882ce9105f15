"""Particle -> voxel mapping with SPH kernel weights and Shepard normalization.

The paper (Sec. 3.3): "mapping gas particles into voxels using the SPH
kernel convolution and the Shepard algorithm".  Concretely:

* **density** is the standard SPH estimate accumulated on voxel centres,
  rho(x_v) = sum_j m_j W(|x_v - x_j|, h_j);
* **intensive fields** (temperature, velocity components) are
  Shepard-normalized kernel averages,
  A(x_v) = sum_j w_j A_j / sum_j w_j with w_j = W(|x_v - x_j|, h_j),
  which reproduces constants exactly regardless of particle sampling;
* voxels no particle kernel reaches fall back to nearest-particle values so
  the grid never contains undefined entries.

The scatter is vectorized over (stencil offset, particle) pairs: every
particle deposits into the voxels of a (2K+1)^3 cube around it (K from the
largest kernel).  The cube is separable, so the pair list is built from one
``(2K+1, particles)`` plane per axis — never a trailing axis of 3 — and is
exact in its (voxel, particle) pairs and their order; the weights are
within rounding of a per-offset evaluation (see :func:`_deposit_pairs`).
The contributions are reduced with one ``np.bincount`` per field —
bit-identical to a sequential ``np.add.at`` chain over the same list (both
accumulate contributions per voxel left-to-right in deposit order, starting
from zero) but without the buffered per-element scatter on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fdps.particles import ParticleSet, ParticleType
from repro.sph.kernels import DEFAULT_KERNEL, SPHKernel
from repro.util.constants import internal_energy_to_temperature

#: Order of the 5 physical fields in the voxel cube.
FIELD_NAMES = ("density", "temperature", "vx", "vy", "vz")

#: (offset, particle) pairs expanded per pass of the deposit: bounds its
#: temporaries (~100 B per pair) whatever the stencil and region size.
_DEPOSIT_BLOCK_PAIRS = 2**18
#: Relative widening of ``h²`` below which an axis offset is kept by the
#: deposit's support cut (see :func:`_deposit_pairs`).
_SUPPORT_MARGIN = 1e-9


@dataclass
class VoxelGrid:
    """A (5, n, n, n) cube of physical fields over a cubic region."""

    fields: np.ndarray          # (5, n, n, n)
    center: np.ndarray          # (3,)
    side: float

    @property
    def n_grid(self) -> int:
        return self.fields.shape[1]

    @property
    def cell(self) -> float:
        return self.side / self.n_grid

    def voxel_centers_1d(self) -> np.ndarray:
        n = self.n_grid
        return (np.arange(n) + 0.5) * self.cell - self.side / 2.0

    def voxel_radii(self) -> np.ndarray:
        """(n, n, n) distances of voxel centres from the region centre."""
        g = self.voxel_centers_1d()
        xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
        return np.sqrt(xx**2 + yy**2 + zz**2)

    def field(self, name: str) -> np.ndarray:
        return self.fields[FIELD_NAMES.index(name)]


def voxelize_particles(
    ps: ParticleSet,
    center: np.ndarray,
    side: float,
    n_grid: int = 64,
    kernel: SPHKernel = DEFAULT_KERNEL,
    gas_only: bool = True,
) -> VoxelGrid:
    """Deposit gas particles onto a (5, n, n, n) field cube.

    Parameters mirror the paper: ``side = 60`` pc, ``n_grid = 64``.
    Particles outside the box still contribute to edge voxels their kernels
    overlap.  Raises ``ValueError`` naming ``center`` and ``side`` when
    nothing is left to deposit (no gas with ``gas_only``, no particle
    without).
    """
    center = np.asarray(center, dtype=np.float64)
    if gas_only:
        sel = ps.where_type(ParticleType.GAS)
        pos = ps.pos[sel]
        mass = ps.mass[sel]
        vel = ps.vel[sel]
        h = ps.h[sel]
        temp = internal_energy_to_temperature(ps.u[sel])
    else:
        pos, mass, vel, h = ps.pos, ps.mass, ps.vel, ps.h
        temp = internal_energy_to_temperature(ps.u)
    if len(pos) == 0:
        raise ValueError(
            f"no {'gas ' if gas_only else ''}particles to voxelize in the cube at "
            f"center {center.tolist()} of side {side} pc"
        )

    n = n_grid
    cell = side / n
    # Fractional voxel coordinates of each particle (voxel centres at
    # integer coordinates 0..n-1).
    fc = (pos - center[None, :] + side / 2.0) / cell - 0.5
    # Effective kernel radius: at least one cell so every particle reaches
    # its nearest voxel centre even when h is unresolved by the grid.
    h_eff = np.maximum(np.asarray(h, dtype=np.float64), 1.001 * cell)

    values = np.stack([temp, vel[:, 0], vel[:, 1], vel[:, 2]])

    # One np.bincount per field over the deposit list: bincount accumulates
    # per voxel in input order starting from zero — exactly the order a
    # sequential np.add.at chain over the deposits would use — without the
    # buffered per-element scatter on the hot path.
    flat, p, w = _deposit_pairs(fc, h_eff, n, cell, kernel)
    size = n * n * n
    rho = np.bincount(flat, weights=mass[p] * w, minlength=size)
    wsum = np.bincount(flat, weights=w, minlength=size)
    acc = np.stack(
        [np.bincount(flat, weights=w * values[f, p], minlength=size) for f in range(4)]
    )
    rho = rho.reshape(n, n, n)
    wsum = wsum.reshape(n, n, n)
    acc = acc.reshape(4, n, n, n)  # temperature + 3 velocities

    covered = wsum > 0
    for f in range(4):
        acc[f][covered] /= wsum[covered]

    # Fill uncovered voxels from their nearest particle.  At production
    # grids (64^3) a sparsely-sampled region can leave most of the 262k
    # voxels uncovered, so this must not materialize the (n_holes,
    # n_particles) distance matrix — a KD-tree query is O((n+m) log n) and
    # byte-for-byte tiny, with a chunked brute-force fallback when scipy is
    # unavailable.
    if not covered.all():
        g = (np.arange(n) + 0.5) * cell - side / 2.0
        xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
        holes = np.flatnonzero(~covered.ravel())
        hx = np.column_stack([xx.ravel()[holes], yy.ravel()[holes], zz.ravel()[holes]])
        if len(pos):
            nearest = _nearest_particle(hx + center[None, :], pos)
            for f, vals in enumerate(values):
                acc[f].ravel()[holes] = vals[nearest]

    fields = np.concatenate([rho[None], acc], axis=0)
    return VoxelGrid(fields=fields, center=center, side=float(side))


def _deposit_pairs(
    fc: np.ndarray, h_eff: np.ndarray, n: int, cell: float, kernel: SPHKernel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (voxel, particle) pair with a positive kernel weight.

    Returns ``(flat voxel index, particle index, weight)`` in deposit order:
    stencil offsets run dx, dy, dz-major over the (2K+1)^3 cube around each
    particle's nearest voxel (K from the largest kernel), particles in input
    order within one offset.  The order is part of the result — the caller's
    bincount sums follow it.

    The cube is separable: per axis one ``(2K+1, particles)`` plane each for
    the voxel's contribution to the flat index, the in-grid mask and the
    squared offset from the particle.  A block of offsets (at most
    ``_DEPOSIT_BLOCK_PAIRS`` pairs) combines three plane rows per offset;
    row-major compaction of the in-grid mask keeps the order.  The mask
    also drops, per axis, the offsets at least a particle's own support
    away (``d² >= h² (1 + 1e-9)``): K comes from the largest kernel, and
    for the others most of the cube lies outside theirs.  Such a pair has
    ``r >= h`` whatever its other axes, a weight of exactly 0, and would
    be dropped after the kernel anyway: the list is the same, bit for bit.

    Exact: the pairs and their order.  Bounded: the squared distance is
    summed x, y, z from the planes, so ``r`` is within 1 ulp of a per-offset
    ``(P, 3)`` evaluation and each weight within 4 ulp of the particle's
    peak weight ``W(0, h)`` (relative error is unbounded only where
    ``W -> 0`` at the support edge).
    """
    k_max = int(np.ceil(h_eff.max() / cell))
    k = np.arange(-k_max, k_max + 1)
    n_p = len(fc)
    vox = np.rint(fc).astype(np.int64).T[:, None, :] + k[None, :, None]   # (3, 2K+1, P)
    d2 = ((vox - fc.T[:, None, :]) * cell) ** 2
    # In the grid, and inside the particle's support along this axis (the
    # margin is far above the rounding of h * h: no pair with a positive
    # weight is cut).
    inside = (vox >= 0) & (vox < n) & (d2 < (h_eff * h_eff * (1.0 + _SUPPORT_MARGIN))[None, None, :])
    d2_x, d2_y, d2_z = d2.reshape(3, -1)
    flat_x, flat_y, flat_z = (vox * np.array([n * n, n, 1])[:, None, None]).reshape(3, -1)
    offsets = np.arange(len(k) ** 3)
    per_block = max(1, _DEPOSIT_BLOCK_PAIRS // n_p)
    flat_parts: list[np.ndarray] = []
    p_parts: list[np.ndarray] = []
    w_parts: list[np.ndarray] = []
    for o0 in range(0, len(offsets), per_block):
        ox, oy, oz = np.unravel_index(offsets[o0 : o0 + per_block], (len(k),) * 3)
        pair = np.flatnonzero(inside[0][ox] & inside[1][oy] & inside[2][oz])
        o = pair // n_p                      # in-grid (offset, particle) pairs
        p = pair - o * n_p
        # Where each pair sits in the flattened (2K+1, P) planes of an axis.
        at_x, at_y, at_z = (row.take(o) * n_p + p for row in (ox, oy, oz))
        r2 = d2_x.take(at_x)
        r2 += d2_y.take(at_y)
        r2 += d2_z.take(at_z)
        w = kernel.value(np.sqrt(r2), h_eff.take(p))
        live = np.flatnonzero(w > 0)
        flat_parts.append(
            flat_x.take(at_x.take(live))
            + flat_y.take(at_y.take(live))
            + flat_z.take(at_z.take(live))
        )
        p_parts.append(p.take(live))
        w_parts.append(w.take(live))
    return np.concatenate(flat_parts), np.concatenate(p_parts), np.concatenate(w_parts)


def _nearest_particle(points: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Index of the particle nearest each query point."""
    try:
        from scipy.spatial import cKDTree
    except ImportError:
        # Chunked brute force: bounded temporaries instead of one
        # (n_points, n_particles) matrix.
        out = np.empty(len(points), dtype=np.int64)
        chunk = max(1, int(4e6) // max(len(pos), 1))
        for lo in range(0, len(points), chunk):
            d2 = (
                (points[lo:lo + chunk, None, :] - pos[None, :, :]) ** 2
            ).sum(axis=2)
            out[lo:lo + chunk] = d2.argmin(axis=1)
        return out
    return cKDTree(pos).query(points, workers=-1)[1]


class RegionIncompleteError(ValueError):
    """An SN region cube extends past the caller's domain slab.

    Raised by :func:`extract_region` when a ``domain`` is declared, the
    cube crosses one of its *finite* faces, and no ``ghosts`` were
    supplied: the local particle set cannot contain every gas particle of
    the region, so extracting it silently would truncate the surrogate's
    input.  Multi-rank callers fetch the missing particles first (see
    ``DistributedGravity.exchange_region_ghosts``) and pass them as
    ``ghosts``.
    """


def extract_region(
    ps: ParticleSet,
    center: np.ndarray,
    side: float,
    domain: tuple[np.ndarray, np.ndarray] | None = None,
    ghosts: ParticleSet | None = None,
) -> tuple[ParticleSet, np.ndarray]:
    """Gas particles inside the (side)^3 cube around ``center``.

    Returns the extracted copy and the indices into ``ps`` — this is step
    (2) of the Sec. 3.2 loop ("pick up particles in the (60 pc)^3 box around
    the exploding star"), found by one O(N) scan of ``ps``.

    ``domain`` declares the (lo, hi) slab that ``ps`` is complete for (a
    rank's domain box; ±inf bounds mark outer faces).  A cube that crosses
    a finite face needs particles this rank doesn't own: with ``ghosts``
    (remote gas pulled across) the region is ghost-filled and pid-sorted so
    its content and order match a single-rank extraction from the global
    set; without, :class:`RegionIncompleteError` is raised rather than
    silently truncating.  The returned index array always refers to local
    particles only — ghost rows have no index into ``ps``.
    """
    center = np.asarray(center, dtype=np.float64)
    half = side / 2.0
    if domain is not None and ghosts is None:
        lo, hi = (np.asarray(b, dtype=np.float64) for b in domain)
        # ±inf faces are the global boundary — nothing lives beyond them,
        # so the comparison is False there and only interior faces raise.
        if bool(np.any(center - half < lo) or np.any(center + half > hi)):
            raise RegionIncompleteError(
                f"region cube (center {center.tolist()}, side {side}) crosses "
                "a finite domain face; pass the remote gas as `ghosts` or "
                "extract from the global particle set"
            )
    inside = np.all(np.abs(ps.pos - center[None, :]) <= half, axis=1)
    inside &= ps.where_type(ParticleType.GAS)
    idx = np.flatnonzero(inside)
    region = ps.select(idx)
    if ghosts is not None and len(ghosts):
        g_in = np.all(np.abs(ghosts.pos - center[None, :]) <= half, axis=1)
        g_in &= ghosts.where_type(ParticleType.GAS)
        g_idx = np.flatnonzero(g_in)
        if g_idx.size:
            region = region.append(ghosts.select(g_idx))
            # pid order == global index order: exactly what a single-rank
            # extraction from the (pid-sorted) global set would produce.
            region.reorder(np.argsort(region.pid, kind="stable"))
    return region, idx
