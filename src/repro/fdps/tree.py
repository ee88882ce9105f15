"""Linear Barnes–Hut octree with monopole moments.

Construction follows the production FDPS strategy: particles are sorted by
Morton key so that every octree node corresponds to a contiguous slice of the
sorted arrays.  Node masses and centres of mass are then O(1) per node via
prefix sums, and tree *walks* process whole frontiers of nodes per NumPy call
(wave traversal) instead of visiting nodes one at a time.

The multipole acceptance criterion (MAC) is the group-box variant used by
FDPS: a node of side :math:`s` is accepted as a monopole for a target group
if :math:`s / d < \\theta`, with :math:`d` the distance from the node's
centre of mass to the closest point of the group's bounding box.  Walks
therefore serve both the force calculation (group = interaction group of
``n_g`` particles, Sec. 5.2.4) and the LET export construction (group =
remote domain box, Sec. 5.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fdps.morton import MORTON_BITS, morton_keys


@dataclass
class Octree:
    """A built octree over one set of particles (see :meth:`build`)."""

    # Geometry of the enclosing cube.
    root_lo: np.ndarray
    root_side: float
    # Per-node arrays, root is node 0.
    node_center: np.ndarray      # (M, 3) geometric centres
    node_side: np.ndarray        # (M,) cube side lengths
    node_com: np.ndarray         # (M, 3) centres of mass
    node_mass: np.ndarray        # (M,)
    node_first: np.ndarray       # (M,) first particle (sorted order)
    node_count: np.ndarray       # (M,) particle count
    node_children: np.ndarray    # (M, 8) child node ids, -1 where absent
    node_is_leaf: np.ndarray     # (M,) bool
    # Permutation: sorted index -> original index.
    order: np.ndarray
    sorted_pos: np.ndarray
    sorted_mass: np.ndarray
    leaf_size: int

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        pos: np.ndarray,
        mass: np.ndarray,
        leaf_size: int = 16,
        pad: float = 1e-3,
    ) -> "Octree":
        """Build the tree over ``pos``/``mass``.

        ``leaf_size`` bounds the number of particles per leaf; smaller values
        deepen the tree (cheaper interaction lists, costlier walks) — this is
        one half of the ``n_g`` trade-off discussed in Sec. 5.2.4.

        Built level by level (one ``searchsorted`` per level, not one call
        per node); every node array equals a node-at-a-time build, which
        ``tests/fdps/test_tree.py`` keeps as the oracle.
        """
        pos = np.ascontiguousarray(pos, dtype=np.float64)
        mass = np.ascontiguousarray(mass, dtype=np.float64)
        n = len(pos)
        if n == 0:
            raise ValueError("cannot build a tree over zero particles")

        lo = pos.min(axis=0)
        hi = pos.max(axis=0)
        side = float(max(np.max(hi - lo), 1e-12)) * (1.0 + pad)
        center = 0.5 * (lo + hi)
        root_lo = center - 0.5 * side

        keys = morton_keys(pos, root_lo, root_lo + side)
        order = np.argsort(keys, kind="stable")
        skeys = keys[order]
        spos = pos[order]
        smass = mass[order]

        # Prefix sums give O(1) monopole moments for any contiguous slice.
        pm = np.concatenate([[0.0], np.cumsum(smass)])
        pmx = np.concatenate([np.zeros((1, 3)), np.cumsum(smass[:, None] * spos, axis=0)])

        # Breadth-first construction, one level per iteration: every node of
        # the frontier that must split finds its eight child ranges in one
        # ``searchsorted`` of the sorted keys against its octants' first
        # keys.  Children are numbered frontier node by frontier node, octant
        # by octant — the order a node-at-a-time build appends them in.
        octant_offset = np.array(
            [[(o >> 2) & 1, (o >> 1) & 1, o & 1] for o in range(8)], dtype=np.float64
        )
        start = np.zeros(1, dtype=np.int64)
        end = np.full(1, n, dtype=np.int64)
        node_lo = root_lo[None, :]
        node_side = side
        firsts, counts = [start], [end - start]
        centers, sides = [node_lo + 0.5 * node_side], [np.full(1, node_side)]
        children: list[np.ndarray] = []
        leaf_flags: list[np.ndarray] = []
        n_nodes = 1
        for level in range(MORTON_BITS):
            splits = end - start > leaf_size
            splits &= level < MORTON_BITS - 1   # the keys resolve no deeper
            kids = np.full((len(start), 8), -1, dtype=np.int64)
            children.append(kids)
            leaf_flags.append(~splits)
            parents = np.flatnonzero(splits)
            if parents.size == 0:
                break
            # A node at this level owns the keys sharing its top 3*level
            # bits; octant o of it starts at key (prefix * 8 + o) << shift.
            shift = np.uint64(3 * (MORTON_BITS - 1 - level))
            prefix = skeys[start[parents]] >> (shift + np.uint64(3))
            first_key = (
                (prefix[:, None] << np.uint64(3)) + np.arange(9, dtype=np.uint64)
            ) << shift
            bounds = np.searchsorted(skeys, first_key.ravel()).reshape(-1, 9)
            occupied = bounds[:, 1:] > bounds[:, :-1]
            parent_row, octant = np.nonzero(occupied)
            kids[parents[parent_row], octant] = n_nodes + np.arange(len(octant))
            n_nodes += len(octant)
            start, end = bounds[:, :-1][occupied], bounds[:, 1:][occupied]
            node_side = 0.5 * node_side
            node_lo = node_lo[parents[parent_row]] + octant_offset[octant] * node_side
            firsts.append(start)
            counts.append(end - start)
            centers.append(node_lo + 0.5 * node_side)
            sides.append(np.full(len(start), node_side))

        node_first = np.concatenate(firsts)
        node_count = np.concatenate(counts)
        node_mass = pm[node_first + node_count] - pm[node_first]
        mx = pmx[node_first + node_count] - pmx[node_first]
        safe = np.maximum(node_mass, 1e-300)
        node_com = mx / safe[:, None]

        return cls(
            root_lo=root_lo,
            root_side=side,
            node_center=np.concatenate(centers),
            node_side=np.concatenate(sides),
            node_com=node_com,
            node_mass=node_mass,
            node_first=node_first,
            node_count=node_count,
            node_children=np.concatenate(children),
            node_is_leaf=np.concatenate(leaf_flags),
            order=order,
            sorted_pos=spos,
            sorted_mass=smass,
            leaf_size=leaf_size,
        )

    @property
    def n_nodes(self) -> int:
        return len(self.node_mass)

    @property
    def n_particles(self) -> int:
        return len(self.order)

    # ------------------------------------------------------------------ walks
    def walk_box(
        self, box_lo: np.ndarray, box_hi: np.ndarray, theta: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`walk_boxes` against one axis-aligned target box.

        Returns ``(accepted_nodes, leaf_particles)``:

        * ``accepted_nodes`` — node ids whose monopole may be used for any
          target inside the box (MAC satisfied);
        * ``leaf_particles`` — indices (into the *original* particle order)
          of particles in leaves that had to be fully opened.
        """
        box_lo = np.asarray(box_lo, dtype=np.float64)[None]
        box_hi = np.asarray(box_hi, dtype=np.float64)[None]
        return self.walk_boxes(box_lo, box_hi, theta)[0]

    def walk_groups(
        self, slices: list[tuple[int, int]], theta: float
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """:meth:`walk_boxes` against the bounding boxes of particle groups.

        ``slices`` are non-empty sorted-order particle slices in increasing
        order (those of :meth:`group_slices`, or a subset of them); each
        group's target box is its slice's bounding box, as
        :meth:`group_box` gives it.
        """
        if not slices:
            return []
        bounds = np.asarray(slices, dtype=np.int64).ravel()
        # reduceat over [start_0, end_0, start_1, ...]: the even rows are the
        # group boxes (the odd ones span the gaps between groups).
        if bounds[-1] == self.n_particles:
            bounds = bounds[:-1]
        box_lo = np.minimum.reduceat(self.sorted_pos, bounds, axis=0)[::2]
        box_hi = np.maximum.reduceat(self.sorted_pos, bounds, axis=0)[::2]
        return self.walk_boxes(box_lo, box_hi, theta)

    def walk_boxes(
        self, box_lo: np.ndarray, box_hi: np.ndarray, theta: float
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Wave traversal against ``n`` target boxes, ``(n, 3)`` corners each.

        The frontier holds ``(box, node)`` pairs and is evaluated per
        iteration with vectorized arithmetic, so the Python-level iteration
        count is the tree depth however many boxes there are.  Returns one
        ``(accepted_nodes, leaf_particles)`` per box (see :meth:`walk_box`).
        Within a box the frontier keeps the order of a walk of that box
        alone, and the accepted and opened pairs are stable-sorted by box at
        the end, so each box's lists do not depend on the other boxes.
        """
        n_boxes = len(box_lo)
        accepted: list[tuple[np.ndarray, np.ndarray]] = []
        opened: list[tuple[np.ndarray, np.ndarray]] = []

        group = np.arange(n_boxes)
        frontier = np.zeros(n_boxes, dtype=np.int64)
        while frontier.size:
            com = self.node_com[frontier]
            nearest = np.clip(com, box_lo[group], box_hi[group])
            d = np.sqrt(np.sum((com - nearest) ** 2, axis=1))
            side = self.node_side[frontier]
            ok = side < theta * d  # MAC; d = 0 (overlap) always fails
            accepted.append((group[ok], frontier[ok]))
            rest, rest_group = frontier[~ok], group[~ok]
            if rest.size == 0:
                break
            is_leaf = self.node_is_leaf[rest]
            opened.append((rest_group[is_leaf], rest[is_leaf]))
            inner = ~is_leaf
            kids = self.node_children[rest[inner]].ravel()
            present = kids >= 0
            frontier = kids[present]
            group = np.repeat(rest_group[inner], 8)[present]

        def by_box(pairs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
            if not pairs:
                return np.empty(0, dtype=np.int64), np.zeros(n_boxes, dtype=np.int64)
            g = np.concatenate([p[0] for p in pairs])
            ids = np.concatenate([p[1] for p in pairs])
            order = np.argsort(g, kind="stable")
            return ids[order], np.bincount(g, minlength=n_boxes)

        nodes, n_nodes = by_box(accepted)
        leaves, n_leaves = by_box(opened)
        # Expand every opened leaf's sorted-order slice [first, first + count)
        # at once: position k of the output belongs to the leaf whose run
        # covers k, at offset k - (start of that run).  A box's particles are
        # the runs of its leaves, contiguous in the box-sorted leaf list.
        first, count = self.node_first[leaves], self.node_count[leaves]
        run_start = np.cumsum(count) - count
        slots = np.arange(int(count.sum())) + np.repeat(first - run_start, count)
        parts = self.order[slots]
        part_end = np.concatenate([[0], np.cumsum(count)])[np.cumsum(n_leaves)]
        node_splits = np.split(nodes, np.cumsum(n_nodes)[:-1])
        part_splits = np.split(parts, part_end[:-1])
        return list(zip(node_splits, part_splits, strict=True))

    def group_slices(self, n_g: int) -> list[tuple[int, int]]:
        """Contiguous Morton-order slices of at most ``n_g`` particles.

        Because the particles are Morton sorted, each slice is spatially
        compact — these are the interaction groups of the FDPS force loop.
        ``n_g`` is the group size of Sec. 5.2.4: larger groups amortize the
        walk over more targets but lengthen the shared interaction list.
        """
        n = self.n_particles
        bounds = [*range(0, n, n_g), n]
        return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

    def group_box(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Bounding box of a sorted-order particle slice."""
        sl = self.sorted_pos[start:end]
        return sl.min(axis=0), sl.max(axis=0)
