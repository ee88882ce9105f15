"""Multisection domain decomposition (FDPS style).

The domain is cut into ``px`` slabs along x by weighted quantiles of the
particle distribution, each slab into ``py`` columns along y, and each column
into ``pz`` cells along z, so every rank receives (approximately) the same
number of particles.  Because the Model MW galaxy is strongly concentrated
toward the centre and the mid-plane, the central domains come out long and
thin — exactly the morphology shown in Fig. 4, which in turn drives the
particle-exchange surface costs discussed in Sec. 5.2.1.

Weights allow load balancing on estimated per-particle cost rather than raw
counts (the paper tunes the decomposition to minimise the *sum* of gravity
and hydro work, Sec. 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _weighted_quantile_cuts(x: np.ndarray, w: np.ndarray, nparts: int) -> np.ndarray:
    """Cut positions so each of ``nparts`` buckets holds ~equal total weight."""
    if nparts == 1:
        return np.array([-np.inf, np.inf])
    order = np.argsort(x, kind="stable")
    cw = np.cumsum(w[order])
    total = cw[-1] if len(cw) else 0.0
    if total <= 0:
        # Degenerate: fall back to equal-count cuts.
        cuts = np.quantile(x, np.linspace(0, 1, nparts + 1)[1:-1]) if len(x) else np.zeros(nparts - 1)
    else:
        targets = total * np.arange(1, nparts) / nparts
        idx = np.searchsorted(cw, targets)
        idx = np.clip(idx, 0, len(order) - 1)
        cuts = x[order[idx]]
    return np.concatenate([[-np.inf], np.sort(cuts), [np.inf]])


def multisection_bounds(
    pos: np.ndarray,
    grid: tuple[int, int, int],
    weights: np.ndarray | None = None,
    sample: int | None = 100_000,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Compute multisection domain boundaries.

    Parameters
    ----------
    pos : (N, 3) positions.
    grid : (px, py, pz) process grid; ``px*py*pz`` ranks.
    weights : optional per-particle work estimate; equal weights if None.
    sample : decompose on a random subsample of this size (FDPS samples
        particles to keep decomposition cost independent of N); ``None``
        uses every particle.
    rng : the subsample's generator; ``None`` is a fixed seed, so the same
        positions always give the same cuts.

    Returns
    -------
    bounds : (px, py, pz, 3, 2) array; ``bounds[i,j,k,d]`` is the (lo, hi)
        interval of domain (i, j, k) along axis d.  Outer faces are +-inf so
        every point in space maps to exactly one domain.
    """
    pos = np.asarray(pos, dtype=np.float64)
    px, py, pz = grid
    n = len(pos)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    if sample is not None and n > sample:
        rng = rng or np.random.default_rng(12345)
        pick = rng.choice(n, size=sample, replace=False)
        pos_s, w_s = pos[pick], w[pick]
    else:
        pos_s, w_s = pos, w

    bounds = np.empty((px, py, pz, 3, 2), dtype=np.float64)
    xcuts = _weighted_quantile_cuts(pos_s[:, 0], w_s, px)
    for i in range(px):
        in_x = (pos_s[:, 0] >= xcuts[i]) & (pos_s[:, 0] < xcuts[i + 1])
        ycuts = _weighted_quantile_cuts(pos_s[in_x, 1], w_s[in_x], py)
        for j in range(py):
            in_xy = in_x & (pos_s[:, 1] >= ycuts[j]) & (pos_s[:, 1] < ycuts[j + 1])
            zcuts = _weighted_quantile_cuts(pos_s[in_xy, 2], w_s[in_xy], pz)
            for k in range(pz):
                bounds[i, j, k, 0] = (xcuts[i], xcuts[i + 1])
                bounds[i, j, k, 1] = (ycuts[j], ycuts[j + 1])
                bounds[i, j, k, 2] = (zcuts[k], zcuts[k + 1])
    return bounds


@dataclass
class DomainDecomposition:
    """A multisection decomposition plus rank assignment helpers."""

    grid: tuple[int, int, int]
    bounds: np.ndarray  # (px, py, pz, 3, 2)

    @classmethod
    def fit(
        cls,
        pos: np.ndarray,
        grid: tuple[int, int, int],
        weights: np.ndarray | None = None,
        sample: int | None = 100_000,
        rng: np.random.Generator | None = None,
    ) -> DomainDecomposition:
        return cls(grid=grid, bounds=multisection_bounds(pos, grid, weights, sample, rng))

    @property
    def n_domains(self) -> int:
        px, py, pz = self.grid
        return px * py * pz

    def rank_of(self, ijk: tuple[int, int, int]) -> int:
        """Flatten grid coordinates to a rank (x fastest-varying last)."""
        px, py, pz = self.grid
        i, j, k = ijk
        return (i * py + j) * pz + k

    def ijk_of(self, rank: int) -> tuple[int, int, int]:
        px, py, pz = self.grid
        k = rank % pz
        j = (rank // pz) % py
        i = rank // (pz * py)
        return i, j, k

    def assign(self, pos: np.ndarray) -> np.ndarray:
        """Rank id for every position (vectorized searchsorted per axis)."""
        pos = np.asarray(pos, dtype=np.float64)
        px, py, pz = self.grid
        xcuts = self.bounds[:, 0, 0, 0, 0]  # lo edges of the x slabs
        i = np.clip(np.searchsorted(xcuts, pos[:, 0], side="right") - 1, 0, px - 1)
        j = np.zeros(len(pos), dtype=np.int64)
        k = np.zeros(len(pos), dtype=np.int64)
        for ii in range(px):
            m = i == ii
            if not m.any():
                continue
            ycuts = self.bounds[ii, :, 0, 1, 0]
            j[m] = np.clip(np.searchsorted(ycuts, pos[m, 1], side="right") - 1, 0, py - 1)
            for jj in range(py):
                mm = m & (j == jj)
                if not mm.any():
                    continue
                zcuts = self.bounds[ii, jj, :, 2, 0]
                k[mm] = np.clip(
                    np.searchsorted(zcuts, pos[mm, 2], side="right") - 1, 0, pz - 1
                )
        return (i * py + j) * pz + k

    def domain_box(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) corners of a rank's domain (may contain +-inf faces)."""
        i, j, k = self.ijk_of(rank)
        b = self.bounds[i, j, k]
        return b[:, 0].copy(), b[:, 1].copy()

    def finite_domain_box(
        self, rank: int, global_lo: np.ndarray, global_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Domain box with infinite faces clipped to the global bounding box."""
        lo, hi = self.domain_box(rank)
        return np.maximum(lo, global_lo), np.minimum(hi, global_hi)

    def slice_y0(self, global_lo: np.ndarray, global_hi: np.ndarray) -> list[np.ndarray]:
        """Rectangles (x0, x1, z0, z1) of domains crossing the y=0 plane.

        This regenerates the Fig. 4 view of the decomposition.
        """
        rects = []
        for rank in range(self.n_domains):
            lo, hi = self.finite_domain_box(rank, global_lo, global_hi)
            if lo[1] <= 0.0 <= hi[1]:
                rects.append(np.array([lo[0], hi[0], lo[2], hi[2]]))
        return rects

    def surface_areas(self, global_lo: np.ndarray, global_hi: np.ndarray) -> np.ndarray:
        """Total surface area of each domain (drives exchange volume, Sec. 5.2.1)."""
        areas = np.empty(self.n_domains)
        for rank in range(self.n_domains):
            lo, hi = self.finite_domain_box(rank, global_lo, global_hi)
            d = np.maximum(hi - lo, 0.0)
            areas[rank] = 2.0 * (d[0] * d[1] + d[1] * d[2] + d[0] * d[2])
        return areas


def process_grid(n_ranks: int) -> tuple[int, int, int]:
    """Near-cubic factorization of ``n_ranks`` into (px, py, pz), px>=py>=pz.

    Mirrors the node-shape choice used for the 3D torus mapping: the three
    factors are as close to ``n^{1/3}`` as possible.
    """
    best: tuple[int, int, int] | None = None
    for px in range(1, n_ranks + 1):
        if n_ranks % px:
            continue
        rem = n_ranks // px
        for py in range(1, rem + 1):
            if rem % py:
                continue
            pz = rem // py
            a, b, c = sorted((px, py, pz), reverse=True)
            trio = (a, b, c)
            if best is None or _grid_badness(trio) < _grid_badness(best):
                best = trio
    assert best is not None
    return best


def _grid_badness(grid: tuple[int, int, int]) -> float:
    """Spread of log-factors; 0 for a perfect cube."""
    logs = np.log(np.asarray(grid, dtype=np.float64))
    return float(logs.max() - logs.min())
