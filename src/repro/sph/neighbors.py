"""Vectorized cell-linked-list neighbor search.

Particles are binned into a uniform grid of cell size >= the largest search
radius; candidate neighbors of a query then live in the 27 surrounding
cells.  Everything — binning, per-cell ranges, candidate-pair generation —
is done with sorted integer keys and ``searchsorted``/``repeat`` arithmetic,
so the cost is O(N + n_pairs) NumPy work with no Python-level loops over
particles (only the fixed loop over the stencil offsets).  Bad input — a
coordinate or a cell size that is not finite, a cell that is not positive
or that would give more cells than int64 keys hold — raises ``ValueError``
at :meth:`NeighborGrid.build`.

The output is a flat *edge list* ``(i, j)`` of candidate pairs, which is the
natural input for scatter-add SPH sums (``np.add.at`` / ``np.bincount``).
Every search filters one cached list,
:meth:`NeighborGrid.compact_self_pairs` (the stencil candidates with
``r < cell``, separations computed on coordinate planes), so the edge list
— which pairs, in which order — is the same from every entry point.  That
list is generated as a *half stencil*: each pair of neighbor cells is walked
once (a query's own cell from the slot after its own, then the 13 offsets
lexicographically after ``(0, 0, 0)``), on one cell-ordered copy of the
coordinate planes, and the kept pairs are mirrored.  Its exact order: the
forward block ``(a, b, r)`` — own cell, then the 13 offsets in
``itertools.product`` order, per offset the queries in cell order, each with
its sources in cell order — then the mirror ``(b, a, r)`` in the same order,
then every self pair ``(k, k, 0)`` by ascending ``k``.

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

import itertools
from dataclasses import dataclass, field

import numpy as np

#: The 27 stencil offsets, x-major (``itertools.product`` order).
_STENCIL = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)
#: The 13 of them lexicographically after ``(0, 0, 0)``: a neighbor cell at
#: one of them has a larger key, so with the own cell they reach each pair of
#: neighbor cells once.
_FORWARD_OFFSETS = _STENCIL[14:]
#: Query cells per expansion of a stencil walk (see
#: :meth:`NeighborGrid._stencil_pairs`).
_WALK_BLOCK = 2048
#: Most cells a grid may have: keys (and their sums in a stencil walk) stay
#: well inside int64.
_MAX_CELLS = 2.0**62


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
        """Bin ``pos`` into cells of side ``cell``.

        Raises ``ValueError`` naming the cause where the binning would be
        garbage: a coordinate that is not finite (a NaN collapses its axis
        to one cell and drops the point from every pair), a ``cell`` that is
        not positive and finite, or one so small for the points' extent that
        the cell keys would overflow int64.
        """
        pos = np.array(pos, dtype=np.float64)      # owned: see move_points
        cell = float(cell)
        if not (np.isfinite(cell) and cell > 0.0):
            raise ValueError(f"cell size must be positive and finite, got {cell!r}")
        bad = np.flatnonzero(~np.isfinite(pos).all(axis=1))
        if bad.size:
            raise ValueError(
                f"{bad.size} point(s) have a non-finite coordinate "
                f"(first: point {bad[0]} at {pos[bad[0]].tolist()})"
            )
        lo = pos.min(axis=0) - 1e-9
        hi = pos.max(axis=0) + 1e-9
        span = (hi - lo) / cell
        if float(np.prod(span + 1.0)) > _MAX_CELLS:
            raise ValueError(
                f"cell {cell!r} is too small for points spanning {(hi - lo).tolist()}: "
                f"{np.floor(span + 1.0).tolist()} cells per axis overflow the int64 cell keys"
            )
        dims = span.astype(np.int64) + 1
        keys = cls._keys_of(pos, lo, cell, dims)
        order = np.argsort(keys, kind="stable")
        return cls(lo=lo, cell=cell, dims=dims, order=order,
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
    def _query_cells(self, query_pos: np.ndarray) -> np.ndarray:
        qp = np.asarray(query_pos, dtype=np.float64)
        qc = np.floor((qp - self.lo) / self.cell).astype(np.int64)
        return np.clip(qc, 0, self.dims - 1)

    def _pairs_in_ranges(
        self, q_xyz: np.ndarray, q_ids: np.ndarray, starts: np.ndarray, ends: np.ndarray,
        s_xyz: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs of query ``k`` (coordinates ``q_xyz[:, k]``, reported as
        ``q_ids[k]``) with the source slots ``[starts[k], ends[k])`` (planes
        ``s_xyz``, cell order) closer than the cell: ``(q_ids[k],
        order[slot], r)``, queries in the order given, slots ascending.

        Unit-stride ufuncs on one contiguous array per axis; the squares are
        summed in x, y, z order and rooted only for the survivors.
        """
        lens = ends - starts
        first = np.cumsum(lens) - lens
        slots = np.repeat(starts - first, lens)
        slots += np.arange(len(slots))
        d2 = _squared_separation(q_xyz[0], lens, s_xyz[0], slots)
        d2 += _squared_separation(q_xyz[1], lens, s_xyz[1], slots)
        d2 += _squared_separation(q_xyz[2], lens, s_xyz[2], slots)
        keep = np.flatnonzero(d2 < self.cell * self.cell)
        return (
            np.repeat(q_ids, lens).take(keep),
            self.order.take(slots.take(keep)),
            np.sqrt(d2.take(keep)),
        )

    def _stencil_pairs(
        self, q_xyz: np.ndarray, q_ids: np.ndarray, q_cells: np.ndarray,
        offsets: np.ndarray, s_xyz: np.ndarray,
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The stencil walk of both generations: the pairs of every query
        (cells ``q_cells``, shape (3, m)) with the points of the cells
        ``offsets`` (shape (k, 3)) away from its own, as
        :meth:`_pairs_in_ranges` returns them — offset by offset in the order
        given, the queries ascending within one.

        The offsets go in groups of about :data:`_WALK_BLOCK` query cells per
        expansion, one part each: a few moved rows walk their whole stencil
        in one expansion, many points one offset at a time, so that a part's
        candidates stay in cache.
        """
        per = max(1, _WALK_BLOCK // max(len(q_ids), 1))
        parts = []
        for first in range(0, len(offsets), per):
            c = q_cells[None, :, :] + offsets[first:first + per, :, None]    # (k, 3, m)
            inside = np.all((c >= 0) & (c < self.dims[None, :, None]), axis=1)
            keys = (c[:, 0] * self.dims[1] + c[:, 1]) * self.dims[2] + c[:, 2]
            pick = np.flatnonzero(inside)
            keys = keys.take(pick)
            q = pick % len(q_ids)
            parts.append(self._pairs_in_ranges(
                q_xyz.take(q, axis=1), q_ids.take(q),
                np.searchsorted(self.sorted_keys, keys, side="left"),
                np.searchsorted(self.sorted_keys, keys, side="right"), s_xyz,
            ))
        return parts

    def compact_self_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate pairs (i, j, r) compacted to ``r < cell``: every ordered
        pair of the grid's points closer than one cell, self pairs included.

        Any search this grid can answer exactly uses a radius <= the cell
        size (:meth:`covers`), so stencil candidates at r >= cell can never
        survive a distance filter — dropping them once shrinks the cached
        list ~6x (sphere-to-stencil volume ratio) and every later sweep
        filters the small list.

        Generated as a half stencil, each pair of neighbor cells walked
        once: queries and sources both come from one cell-ordered copy of
        the coordinate planes, and the query at slot ``q`` meets the slots
        after ``q`` in its own cell, then the cells of the 13 offsets
        lexicographically after ``(0, 0, 0)`` (all of larger key), so every
        unordered pair of distinct points is met once.  Exact: the layout —
        ``f`` forward entries ``(a, b, r)`` (the own cell, then the offsets
        in ``itertools.product`` order from ``(0, 0, 1)`` to ``(1, 1, 1)``;
        within each, the queries in cell order, each with its sources in
        cell order), then their mirror ``(b, a, r)`` in the same order, then
        the self pairs ``(k, k, 0.0)`` for ``k = 0 .. n - 1`` — and every
        ``r``, bit-equal to the row walk of :meth:`_pairs_within_cell` over
        every point (squares are sign-blind and both sum them in x, y, z
        order).  Bounded: ``r`` is within 2 ulp of an ``einsum`` over
        (n_pairs, 3) rows.  After a :meth:`move_points` the set and ``r``
        are still those of a fresh generation on this binning; the layout is
        not.
        """
        if self._compact_pairs is None:
            self._compact_pairs = self._half_stencil_pairs()
        return self._compact_pairs

    def _half_stencil_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The list :meth:`compact_self_pairs` caches (its docstring has the
        layout)."""
        n, keys, order = self.n_points, self.sorted_keys, self.order
        s_xyz = np.ascontiguousarray(self.pos[order].T)
        slots = np.arange(n)
        own_cell_end = np.searchsorted(keys, keys, side="right")
        parts = [self._pairs_in_ranges(s_xyz, order, slots + 1, own_cell_end, s_xyz)]
        xy, z = np.divmod(keys, self.dims[2])
        cells = np.stack([xy // self.dims[1], xy % self.dims[1], z])
        parts += self._stencil_pairs(s_xyz, order, cells, _FORWARD_OFFSETS, s_xyz)
        i_parts, j_parts, r_parts = zip(*parts, strict=True)
        return (
            np.concatenate([*i_parts, *j_parts, slots]),
            np.concatenate([*j_parts, *i_parts, slots]),
            np.concatenate([*r_parts, *r_parts, np.zeros(n)]),
        )

    def _pairs_within_cell(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The row walk: ordered pairs (i, j, r) with ``r < cell`` whose
        first end is one of ``rows`` — all 27 stencil offsets of each row,
        per offset (x-major) the rows in the order given, each with that
        cell's points in cell order."""
        q_pos = self.pos[rows]
        q_xyz = np.ascontiguousarray(q_pos.T)
        s_xyz = np.ascontiguousarray(self.pos[self.order].T)
        q_cells = self._query_cells(q_pos).T
        parts = self._stencil_pairs(q_xyz, rows, q_cells, _STENCIL, s_xyz)
        i, j, r = (np.concatenate(col) for col in zip(*parts, strict=True))
        return i, j, r

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
        the row walk of :meth:`_pairs_within_cell` — all 27 offsets of each
        moved point, through :meth:`_stencil_pairs`, the walk the half
        stencil of :meth:`compact_self_pairs` runs — adds every pair
        ``r < cell`` of a moved point, in both orderings (a pair of two moved
        points once from each end, a self pair once).  The list then holds
        the same *set* a fresh generation on this binning yields, with
        bit-equal ``r``, in another order; sums over it agree to rounding.
        Cost: O(n) bookkeeping plus the full stencil of the moved points,
        against the half stencil of every point for a fresh generation —
        cheaper while few points move (about a third of the fresh cost at 4%
        moved), dearer once about half of them do (1.6-2x at 55%).

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
    q_k: np.ndarray, lens: np.ndarray, s_k: np.ndarray, slots: np.ndarray
) -> np.ndarray:
    """``(q_k[k] - s_k[slot]) ** 2`` along one axis, query ``k`` repeated
    over its ``lens[k]`` slots, in one temporary."""
    d = np.repeat(q_k, lens)
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
