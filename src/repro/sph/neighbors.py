"""Vectorized cell-linked-list neighbor search.

Particles are binned into a uniform grid of cell size >= the largest search
radius; candidate neighbors of a query then live in the 27 surrounding
cells.  Everything — binning, per-cell ranges, candidate-pair generation —
is done with sorted integer keys and ``searchsorted``/``repeat`` arithmetic,
so the cost is O(N + n_pairs) NumPy work with no Python-level loops over
particles (only the fixed loop over the 27 offsets).

The output is a flat *edge list* ``(i, j)`` of candidate pairs, which is the
natural input for scatter-add SPH sums (``np.add.at`` / ``np.bincount``).
Every search filters one cached list,
:meth:`NeighborGrid.compact_self_pairs` (the stencil candidates with
``r < cell``, separations computed on coordinate planes), so the edge list
— which pairs, in which order — is the same from every entry point.

A built :class:`NeighborGrid` is *reusable*: the same grid serves every
h-iteration of the density solve and the force pass, as long as the largest
search radius still fits inside one cell (``grid.covers(radius)``), and it
answers box queries (:meth:`NeighborGrid.points_in_box`) for region
extraction.  The symmetric force search additionally
supports a *half-pair* mode that emits each unordered pair exactly once
(an ``i < j`` cut of the cached candidates), so the force kernel does half
the pairwise work and mirrors the result by scatter-add.  A caller that
already holds the gather list of a density pass gets the same set from it
with :func:`half_pairs_from_gather` — the same unordered pairs with bit-equal
``r``, in another order — without a second pass over the candidates.

A grid is also *editable*: when a few points moved and nothing else did
(an SN region replaced by particle ID), :meth:`NeighborGrid.move_points`
re-bins those points and repairs the cached candidate list instead of
generating it a second time.  Exact after an edit: the *set* of candidates
and every ``r`` (bit-equal to a fresh generation on the same binning).  Not
kept: their order — so sums over the list agree with a fresh grid's to
rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

@dataclass
class NeighborGrid:
    """A built cell grid over one set of points.

    The grid owns ``pos``: :meth:`build` copies the caller's array, so
    :meth:`move_points` never writes through to an array the caller holds.
    """

    lo: np.ndarray
    cell: float
    dims: np.ndarray          # (3,) number of cells per axis
    order: np.ndarray         # particle indices sorted by cell key
    sorted_keys: np.ndarray   # cell key per sorted particle
    pos: np.ndarray
    # Lazily cached (i, j, r) candidates with r < cell among the grid's own
    # points (see :meth:`compact_self_pairs`): they depend only on the
    # binning, so every h-iteration and the force pass share one generation.
    # Release with :meth:`release_pairs` once the per-step searches are done.
    _compact_pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def build(cls, pos: np.ndarray, cell: float) -> "NeighborGrid":
        pos = np.array(pos, dtype=np.float64)      # owned: see move_points
        lo = pos.min(axis=0) - 1e-9
        hi = pos.max(axis=0) + 1e-9
        dims = np.maximum(((hi - lo) / cell).astype(np.int64) + 1, 1)
        keys = cls._keys_of(pos, lo, cell, dims)
        order = np.argsort(keys, kind="stable")
        return cls(lo=lo, cell=float(cell), dims=dims, order=order,
                   sorted_keys=keys[order], pos=pos)

    @staticmethod
    def _keys_of(pos: np.ndarray, lo: np.ndarray, cell: float, dims: np.ndarray) -> np.ndarray:
        c = np.floor((pos - lo) / cell).astype(np.int64)
        c = np.clip(c, 0, dims - 1)
        return (c[:, 0] * dims[1] + c[:, 1]) * dims[2] + c[:, 2]

    @property
    def n_points(self) -> int:
        return len(self.pos)

    def covers(self, radius: float) -> bool:
        """True if a search of ``radius`` is answered exactly by this grid
        (every true neighbor lies inside the 27-cell stencil)."""
        return float(radius) <= self.cell

    # ----------------------------------------------------------- pair search
    def _expand_cells(
        self, qidx: np.ndarray, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pair each query row ``qidx[k]`` with every slot of cell ``keys[k]``,
        queries in the order given, slots ascending within one query."""
        starts = np.searchsorted(self.sorted_keys, keys, side="left")
        lens = np.searchsorted(self.sorted_keys, keys, side="right") - starts
        total = int(lens.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        # Expand ranges [starts, starts + lens) into flat index arrays.
        first = np.cumsum(lens) - lens
        slots = np.repeat(starts - first, lens)
        slots += np.arange(total)
        return np.repeat(qidx, lens), slots

    def _query_cells(self, query_pos: np.ndarray) -> np.ndarray:
        qp = np.asarray(query_pos, dtype=np.float64)
        qc = np.floor((qp - self.lo) / self.cell).astype(np.int64)
        return np.clip(qc, 0, self.dims - 1)

    def compact_self_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate pairs (i, j, r) compacted to ``r < cell``.

        Any search this grid can answer exactly uses a radius <= the cell
        size (:meth:`covers`), so stencil candidates at r >= cell can never
        survive a distance filter — dropping them once shrinks the cached
        list ~6x (sphere-to-stencil volume ratio) and every later sweep
        filters the small list.

        Exact: ``(i, j)`` and their order — the full 27-stencil candidate
        list (per offset, x-major, every point in order with the points of
        that neighbor cell in cell order) filtered at ``r < cell``.
        Bounded: ``r`` is within 2 ulp of an ``einsum`` over (n_pairs, 3)
        rows (sum of squares in x, y, z order).  After a :meth:`move_points`
        the set and ``r`` are still those of a fresh generation on this
        binning; the order is not.
        """
        if self._compact_pairs is None:
            self._compact_pairs = self._pairs_within_cell(None)
        return self._compact_pairs

    def _pairs_within_cell(
        self, rows: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ordered stencil pairs (i, j, r) with ``r < cell`` whose first end
        is one of ``rows`` (``None``: every point), rows in the order given.

        Built per stencil offset without materializing the full list, on
        coordinate planes: cell indices, query coordinates and the sources
        (gathered once, in cell order) each live in one contiguous array per
        axis, so the validity masks, the separations and the squared
        distance are unit-stride ufuncs (sqrt only on survivors).
        """
        cell2 = self.cell * self.cell
        q_pos = self.pos if rows is None else self.pos[rows]
        q_xyz = np.ascontiguousarray(q_pos.T)
        s_xyz = np.ascontiguousarray(self.pos[self.order].T)
        # (axis, shift, point): the neighbor cell's index along one axis
        # for shifts -1, 0, +1, and whether it is inside the grid.
        c = self._query_cells(q_pos).T[:, None, :] + np.arange(-1, 2)[None, :, None]
        ok = (c >= 0) & (c < self.dims[:, None, None])
        out_i: list[np.ndarray] = []
        out_j: list[np.ndarray] = []
        out_r: list[np.ndarray] = []
        for ix in range(3):
            for iy in range(3):
                ok_xy = ok[0, ix] & ok[1, iy]
                key_xy = (c[0, ix] * self.dims[1] + c[1, iy]) * self.dims[2]
                for iz in range(3):
                    qidx = np.flatnonzero(ok_xy & ok[2, iz])
                    rep_q, slots = self._expand_cells(
                        qidx, key_xy[qidx] + c[2, iz][qidx]
                    )
                    if not len(rep_q):
                        continue
                    d2 = _squared_separation(q_xyz[0], rep_q, s_xyz[0], slots)
                    d2 += _squared_separation(q_xyz[1], rep_q, s_xyz[1], slots)
                    d2 += _squared_separation(q_xyz[2], rep_q, s_xyz[2], slots)
                    keep = np.flatnonzero(d2 < cell2)
                    out_i.append(rep_q.take(keep))
                    out_j.append(self.order.take(slots.take(keep)))
                    out_r.append(np.sqrt(d2.take(keep)))
        if not out_i:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0)
        i = np.concatenate(out_i)
        return (
            i if rows is None else rows.take(i),
            np.concatenate(out_j),
            np.concatenate(out_r),
        )

    @property
    def has_compact_pairs(self) -> bool:
        """True while the compacted candidate list is cached — the state
        :meth:`move_points` can repair."""
        return self._compact_pairs is not None

    def move_points(self, rows: np.ndarray, new_pos: np.ndarray) -> bool:
        """Points ``rows`` now sit at ``new_pos``; nothing else moved.

        Re-bins the moved points (``pos``, ``order`` and ``sorted_keys`` end
        up exactly as a fresh binning of the edited positions on this
        ``lo``/``cell``/``dims`` would leave them, so box queries and the
        cell-walking searches stay exact) and *repairs* the cached compact
        candidate list: entries with either end in ``rows`` are dropped, and
        the stencil walk of :meth:`compact_self_pairs` — the same code, run
        for the moved points only — adds every pair ``r < cell`` of a moved
        point, in both orderings (a pair of two moved points once from each
        end, a self pair once).  The list then holds the same *set* a fresh
        generation on this binning yields, with bit-equal ``r``, in another
        order; sums over it agree to rounding.  Cost: O(n) bookkeeping plus
        the stencil of the moved points, instead of the stencil of all.

        A new position may lie outside the box the grid was built over: it
        is binned to the edge cell, as :meth:`build` and every query bin by
        clipping.  That stays exact — clipping cell indices is 1-Lipschitz,
        so two points within ``cell`` of each other still sit in equal or
        adjacent cells, and the ``r < cell`` filter and
        :meth:`points_in_box` compare true coordinates.

        Returns ``False``, leaving the grid untouched, when it cannot answer
        exactly: no compact list is cached, a row is not a point of the
        grid, or a new position is not finite.  The caller then invalidates,
        as for any position change.  Duplicate ``rows`` are allowed (the last
        position given wins).
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        new_pos = np.asarray(new_pos, dtype=np.float64).reshape(len(rows), 3)
        n = self.n_points
        if self._compact_pairs is None:
            return False
        if not len(rows):
            return True
        if rows.min() < 0 or rows.max() >= n:
            return False
        if not np.all(np.isfinite(new_pos)):
            return False

        self.pos[rows] = new_pos
        rows = np.unique(rows)
        keys = np.empty(n, dtype=np.int64)
        keys[self.order] = self.sorted_keys
        keys[rows] = self._keys_of(self.pos[rows], self.lo, self.cell, self.dims)
        # New arrays, never written in place: a caller may hold the old order.
        self.order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[self.order]

        moved = np.zeros(n, dtype=bool)
        moved[rows] = True
        old_i, old_j, old_r = self._compact_pairs
        keep = np.flatnonzero(~(moved.take(old_i) | moved.take(old_j)))
        new_i, new_j, new_r = self._pairs_within_cell(rows)
        # (moved, other) came out of the walk; (other, moved) is its mirror —
        # with the same r, squares being sign-blind — unless the other end
        # moved too and walks its own stencil.
        mirror = np.flatnonzero(~moved.take(new_j))
        # One array at a time: the old and the new triple never coexist.
        self._compact_pairs = None
        ci = np.concatenate([old_i.take(keep), new_i, new_j.take(mirror)])
        del old_i
        cj = np.concatenate([old_j.take(keep), new_j, new_i.take(mirror)])
        del old_j
        cr = np.concatenate([old_r.take(keep), new_r, new_r.take(mirror)])
        del old_r
        self._compact_pairs = (ci, cj, cr)
        return True

    def release_pairs(self) -> None:
        """Drop the cached candidate list (the largest transient of a step)."""
        self._compact_pairs = None

    # ------------------------------------------------------------ box query
    def points_in_box(self, box_lo: np.ndarray, box_hi: np.ndarray) -> np.ndarray:
        """Indices of the grid's points inside [box_lo, box_hi] (inclusive).

        Candidate cells overlapping the box are gathered via contiguous
        z-runs of the sorted keys; candidates are then filtered exactly, so
        the result is identical to a full scan at O(cells + candidates) cost.
        """
        box_lo = np.asarray(box_lo, dtype=np.float64)
        box_hi = np.asarray(box_hi, dtype=np.float64)
        clo = np.clip(np.floor((box_lo - self.lo) / self.cell).astype(np.int64), 0, self.dims - 1)
        chi = np.clip(np.floor((box_hi - self.lo) / self.cell).astype(np.int64), 0, self.dims - 1)
        xs = np.arange(clo[0], chi[0] + 1)
        ys = np.arange(clo[1], chi[1] + 1)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        base = (gx.ravel() * self.dims[1] + gy.ravel()) * self.dims[2]
        starts = np.searchsorted(self.sorted_keys, base + clo[2], side="left")
        ends = np.searchsorted(self.sorted_keys, base + chi[2], side="right")
        lens = ends - starts
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        cum = np.concatenate([[0], np.cumsum(lens)])
        local = np.arange(total) - np.repeat(cum[:-1], lens)
        cand = self.order[np.repeat(starts, lens) + local]
        p = self.pos[cand]
        inside = np.all((p >= box_lo) & (p <= box_hi), axis=1)
        return cand[inside]


def _squared_separation(
    q_k: np.ndarray, rows: np.ndarray, s_k: np.ndarray, slots: np.ndarray
) -> np.ndarray:
    """``(q_k[rows] - s_k[slots]) ** 2`` along one axis, in one temporary."""
    d = q_k.take(rows)
    d -= s_k.take(slots)
    d *= d
    return d


def pair_differences(
    a: np.ndarray, i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a[i] - a[j]`` for an (n, 3) array, one contiguous array per axis.

    Each axis is gathered with ``take`` from its own unit-stride coordinate
    row, so the pair kernels never touch an (n_pairs, 3) array.
    """
    out = []
    for a_k in np.ascontiguousarray(np.asarray(a, dtype=np.float64).T):
        d = a_k.take(i)
        d -= a_k.take(j)
        out.append(d)
    return out[0], out[1], out[2]


def half_pairs_from_gather(
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray], h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symmetric half-pair list derived from a complete gather list.

    ``pairs`` holds every ordered ``(i, j, r)`` with ``r < h[i]`` (self
    pairs allowed).  An unordered pair ``a < b`` with ``r < max(h[a], h[b])``
    is in it as ``(a, b)`` when ``r < h[a]``; otherwise only as ``(b, a)``,
    with ``r >= h[a]``.  So: the entries with ``i < j`` as they are, then the
    entries with ``i > j`` and ``r >= h[j]`` mirrored — each unordered pair
    exactly once with its smaller index first, the set
    ``neighbor_pairs(mode="symmetric", half=True)`` finds, without touching
    the candidate list again.  Only as complete as the gather list: it must
    have been made at this ``h`` on a grid that covers ``h.max()``.
    """
    i, j, r = pairs
    fwd = np.flatnonzero(i < j)
    rev = np.flatnonzero(i > j)
    rev = rev.take(np.flatnonzero(r.take(rev) >= h.take(j.take(rev))))
    return (
        np.concatenate([i.take(fwd), j.take(rev)]),
        np.concatenate([j.take(fwd), i.take(rev)]),
        np.concatenate([r.take(fwd), r.take(rev)]),
    )


def neighbor_pairs(
    pos: np.ndarray,
    radius: np.ndarray | float,
    mode: str = "gather",
    include_self: bool = True,
    grid: NeighborGrid | None = None,
    half: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance-filtered neighbor pairs.

    Parameters
    ----------
    pos : (N, 3) positions.
    radius : scalar or per-particle search radii (the SPH support h_i).
    mode :
        * ``"gather"`` — keep pairs with r_ij < radius_i (density sums);
        * ``"symmetric"`` — keep pairs with r_ij < max(radius_i, radius_j)
          (force sums, where either particle's kernel may cover the other).
    include_self : keep the i == j pair (the self kernel contribution to
        density).
    grid : a prebuilt :class:`NeighborGrid` over the *same* ``pos`` to
        reuse; a fresh grid is built when absent or when the largest radius
        outgrows its cell size.
    half : emit each unordered pair once instead of both orderings (only
        meaningful with ``mode="symmetric"``; implies no self pairs).  The
        caller is expected to mirror per-pair terms by scatter-add.

    Returns
    -------
    (i, j, r) : pair endpoints and separations.
    """
    pos = np.asarray(pos, dtype=np.float64)
    r_arr = np.broadcast_to(np.asarray(radius, dtype=np.float64), (len(pos),))
    r_max = float(r_arr.max())
    if r_max <= 0.0:
        raise ValueError("search radius must be positive")
    if half and mode != "symmetric":
        raise ValueError("half-pair search requires mode='symmetric'")
    if grid is None or not grid.covers(r_max) or grid.n_points != len(pos):
        grid = NeighborGrid.build(pos, r_max)
    # Every radius is <= the cell, so the compacted list (r < cell) holds
    # every pair any of them keeps.
    i, j, r = grid.compact_self_pairs()
    if mode == "gather":
        keep = r < r_arr[i]
    elif mode == "symmetric":
        keep = r < np.maximum(r_arr[i], r_arr[j])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if half:
        # The candidate list holds both orderings of every unordered pair;
        # i < j keeps each exactly once (and drops self pairs).
        keep &= i < j
    elif not include_self:
        keep &= i != j
    return i[keep], j[keep], r[keep]


def neighbor_counts(pos: np.ndarray, radius: np.ndarray | float) -> np.ndarray:
    """Number of neighbors (incl. self) within each particle's radius."""
    i, _, _ = neighbor_pairs(pos, radius, mode="gather", include_self=True)
    return np.bincount(i, minlength=len(np.atleast_2d(pos)))
