"""Shared spatial index: cached neighbor grid + octree with explicit invalidation.

See :mod:`repro.accel` for the caching/invalidation contract.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.fdps.tree import Octree
from repro.sph.neighbors import NeighborGrid
from repro.util.logging import get_logger

_log = get_logger("accel")


@dataclass
class IndexStats:
    """Build/reuse counters — the instrumentation the reuse benchmark records."""

    grid_builds: int = 0
    grid_repairs: int = 0      # local edits: SpatialIndex.move_points
    grid_reuses: int = 0
    tree_builds: int = 0
    tree_reuses: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class SpatialIndex:
    """Owns one reusable :class:`NeighborGrid` and one cached :class:`Octree`.

    The index never inspects array *contents* to decide validity — that would
    cost as much as rebuilding.  Validity is driven by the owner through
    :meth:`invalidate_positions` / :meth:`move_points` /
    :meth:`invalidate_all` plus cheap structural checks (particle count,
    cell-size coverage, scope identity).
    """

    stats: IndexStats = field(default_factory=IndexStats)
    _grid: NeighborGrid | None = field(default=None, repr=False)
    _grid_scope: np.ndarray | None = field(default=None, repr=False)
    _tree: Octree | None = field(default=None, repr=False)
    #: Causes a :meth:`move_points` fell back for, each logged once.
    _fallbacks_logged: set[str] = field(default_factory=set, repr=False)

    # -------------------------------------------------------------- validity
    def invalidate_positions(self) -> None:
        """Any indexed coordinate changed: both structures are stale."""
        self._grid = None
        self._grid_scope = None
        self._tree = None

    def invalidate_all(self) -> None:
        """Membership changed (particles added/removed/reordered)."""
        self.invalidate_positions()

    def move_points(self, rows: np.ndarray, new_pos: np.ndarray) -> bool:
        """Rows ``rows`` of the indexed particle set now sit at ``new_pos``;
        no other coordinate changed.

        The octree is dropped.  The neighbor grid is *edited*
        (:meth:`NeighborGrid.move_points <repro.sph.neighbors.NeighborGrid.move_points>`,
        rows mapped through the grid's scope): the next :meth:`grid_for` at a
        radius it covers reuses it, candidate list included.  Returns
        ``True`` when the grid was repaired.  When it cannot be — no grid,
        a row outside the grid's scope, no candidate list to repair, a
        position that is not finite — the index ends as after
        :meth:`invalidate_positions` (never half-repaired), the cause is
        logged once, and ``False`` is returned.
        """
        self._tree = None
        grid = self._grid
        if grid is None:
            return self.abandon_grid("no neighbor grid is cached")
        rows = np.asarray(rows, dtype=np.int64)
        scope = self._grid_scope
        if scope is not None and len(rows):
            slot = np.minimum(np.searchsorted(scope, rows), len(scope) - 1)
            if not np.array_equal(scope[slot], rows):
                return self.abandon_grid("a moved row is outside the grid's scope")
            rows = slot
        if not grid.has_compact_pairs:
            return self.abandon_grid("the grid holds no candidate list (released)")
        if not grid.move_points(rows, new_pos):
            return self.abandon_grid("a moved row is no point of the grid, or its position is not finite")
        self.stats.grid_repairs += 1
        return True

    def abandon_grid(self, cause: str) -> bool:
        """A local edit cannot be answered exactly: invalidate as for any
        position change, say why once per cause.  Returns ``False``."""
        if cause not in self._fallbacks_logged:
            self._fallbacks_logged.add(cause)
            _log.info(
                "neighbor grid rebuilt instead of repaired: %s "
                "(this cause is reported once)", cause,
            )
        self.invalidate_positions()
        return False

    def release_pairs(self) -> None:
        """Drop the cached grid's candidate lists (the grid stays)."""
        if self._grid is not None:
            self._grid.release_pairs()

    @property
    def has_grid(self) -> bool:
        return self._grid is not None

    @property
    def has_tree(self) -> bool:
        return self._tree is not None

    # ------------------------------------------------------------------ grid
    def grid_for(
        self,
        pos: np.ndarray,
        radius: float,
        scope: np.ndarray | None = None,
    ) -> NeighborGrid:
        """The cached grid if it still answers a ``radius`` search over these
        points, else a fresh build (which becomes the new cache entry).

        ``scope`` identifies the subset of a larger particle set the grid
        covers (e.g. global indices of the gas, ascending); box queries
        report indices through it and :meth:`move_points` finds grid rows
        through it.  A cached grid is reused only for an equal scope.
        """
        g = self._grid
        if (
            g is not None
            and g.n_points == len(pos)
            and g.covers(radius)
            and _same_scope(self._grid_scope, scope)
        ):
            self.stats.grid_reuses += 1
            return g
        g = NeighborGrid.build(pos, float(radius))
        self.stats.grid_builds += 1
        self._grid = g
        self._grid_scope = None if scope is None else np.asarray(scope)
        return g

    def query_box(self, box_lo: np.ndarray, box_hi: np.ndarray) -> np.ndarray | None:
        """Indices of cached-grid points inside [box_lo, box_hi] (inclusive),
        mapped through the grid's scope; ``None`` when no grid is cached (the
        caller falls back to a full scan)."""
        if self._grid is None:
            return None
        local = self._grid.points_in_box(box_lo, box_hi)
        if self._grid_scope is None:
            return local
        return self._grid_scope[local]

    # ------------------------------------------------------------------ tree
    def tree_for(self, pos: np.ndarray, mass: np.ndarray, leaf_size: int = 16) -> Octree:
        """The cached octree when still valid for these particles, else a
        fresh build (cached for subsequent calls)."""
        t = self._tree
        if t is not None and t.n_particles == len(pos) and t.leaf_size == leaf_size:
            self.stats.tree_reuses += 1
            return t
        t = Octree.build(pos, mass, leaf_size=leaf_size)
        self.stats.tree_builds += 1
        self._tree = t
        return t


def _same_scope(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return len(a) == len(b) and (a is b or bool(np.array_equal(a, b)))
