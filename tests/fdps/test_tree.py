"""Octree structural invariants and walk correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdps.tree import Octree
from tests.conftest import plummer_positions


def _build(n=300, leaf_size=8, seed=0):
    rng = np.random.default_rng(seed)
    pos = plummer_positions(n, a=30.0, rng=rng)
    mass = rng.uniform(0.5, 2.0, n)
    return Octree.build(pos, mass, leaf_size=leaf_size), pos, mass


def test_root_covers_everything():
    tree, pos, mass = _build()
    assert tree.node_count[0] == len(pos)
    assert tree.node_mass[0] == pytest.approx(mass.sum())
    com = (mass[:, None] * pos).sum(axis=0) / mass.sum()
    assert np.allclose(tree.node_com[0], com)


def test_children_partition_parent():
    tree, _, _ = _build()
    for node in range(tree.n_nodes):
        if tree.node_is_leaf[node]:
            continue
        kids = tree.node_children[node]
        kids = kids[kids >= 0]
        assert kids.size >= 1
        assert tree.node_count[kids].sum() == tree.node_count[node]
        assert tree.node_mass[kids].sum() == pytest.approx(tree.node_mass[node])


def test_leaves_respect_leaf_size():
    tree, _, _ = _build(leaf_size=8)
    leaves = np.flatnonzero(tree.node_is_leaf)
    assert np.all(tree.node_count[leaves] <= 8)


def test_leaves_partition_particles():
    tree, pos, _ = _build()
    leaves = np.flatnonzero(tree.node_is_leaf)
    covered = np.zeros(len(pos), dtype=int)
    for leaf in leaves:
        s, c = tree.node_first[leaf], tree.node_count[leaf]
        covered[s : s + c] += 1
    assert np.all(covered == 1)


def test_particles_inside_their_nodes():
    tree, _, _ = _build()
    for node in range(tree.n_nodes):
        s, c = tree.node_first[node], tree.node_count[node]
        p = tree.sorted_pos[s : s + c]
        lo = tree.node_center[node] - 0.5 * tree.node_side[node] * (1 + 1e-9)
        hi = tree.node_center[node] + 0.5 * tree.node_side[node] * (1 + 1e-9)
        assert np.all(p >= lo - 1e-9) and np.all(p <= hi + 1e-9)


def test_walk_far_box_accepts_root_or_few_nodes():
    tree, pos, mass = _build()
    far_lo = np.array([1e6, 1e6, 1e6])
    far_hi = far_lo + 1.0
    nodes, parts = tree.walk_box(far_lo, far_hi, theta=0.5)
    assert parts.size == 0
    # All mass should be represented by the accepted monopoles.
    assert tree.node_mass[nodes].sum() == pytest.approx(mass.sum())
    assert len(nodes) <= 8


def test_walk_overlapping_box_opens_to_particles():
    tree, pos, mass = _build()
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    nodes, parts = tree.walk_box(lo, hi, theta=0.5)
    # A box covering everything can never satisfy the MAC (d = 0).
    assert nodes.size == 0
    assert sorted(parts.tolist()) == list(range(len(pos)))


def test_walk_mass_conservation_any_theta():
    tree, pos, mass = _build(n=500)
    for theta in (0.2, 0.5, 1.0):
        nodes, parts = tree.walk_box(
            np.array([40.0, 40.0, 40.0]), np.array([60.0, 60.0, 60.0]), theta
        )
        total = tree.node_mass[nodes].sum() + mass[parts].sum()
        assert total == pytest.approx(mass.sum()), f"theta={theta}"


def test_walk_no_duplicate_particles():
    tree, pos, _ = _build(n=400)
    nodes, parts = tree.walk_box(
        np.array([0.0, 0.0, 0.0]), np.array([10.0, 10.0, 10.0]), 0.6
    )
    assert len(np.unique(parts)) == len(parts)


def test_group_slices_cover_all():
    tree, pos, _ = _build(n=333)
    slices = tree.group_slices(50)
    assert slices[0][0] == 0
    assert slices[-1][1] == len(pos)
    for (_s0, e0), (s1, _e1) in zip(slices, slices[1:]):
        assert e0 == s1
    assert all(e - s <= 50 for s, e in slices)


def test_single_particle_tree():
    tree = Octree.build(np.array([[1.0, 2.0, 3.0]]), np.array([5.0]))
    assert tree.n_nodes == 1
    assert tree.node_is_leaf[0]
    assert tree.node_mass[0] == 5.0


def test_coincident_particles_terminate():
    # Identical positions cannot be separated by subdividing; the max-depth
    # guard must stop the build.
    pos = np.zeros((20, 3))
    tree = Octree.build(pos, np.ones(20), leaf_size=4)
    assert tree.node_count[0] == 20


@given(st.integers(10, 200), st.integers(2, 32))
@settings(max_examples=20, deadline=None)
def test_tree_mass_invariant_property(n, leaf_size):
    rng = np.random.default_rng(n * 31 + leaf_size)
    pos = rng.normal(0.0, 10.0, (n, 3))
    mass = rng.uniform(0.1, 5.0, n)
    tree = Octree.build(pos, mass, leaf_size=leaf_size)
    assert tree.node_mass[0] == pytest.approx(mass.sum())
    leaves = np.flatnonzero(tree.node_is_leaf)
    assert tree.node_count[leaves].sum() == n


def _walk_box_reference(tree, box_lo, box_hi, theta):
    """``Octree.walk_box`` with opened leaves expanded one ``np.arange`` per
    leaf — the loop the repeat/cumsum expansion replaced; kept as its oracle."""
    accepted = []
    leaf_slices = []
    frontier = np.array([0], dtype=np.int64)
    while frontier.size:
        com = tree.node_com[frontier]
        nearest = np.clip(com, box_lo, box_hi)
        d = np.sqrt(np.sum((com - nearest) ** 2, axis=1))
        ok = tree.node_side[frontier] < theta * d
        accepted.append(frontier[ok])
        rest = frontier[~ok]
        if rest.size == 0:
            break
        is_leaf = tree.node_is_leaf[rest]
        for nid in rest[is_leaf]:
            first = int(tree.node_first[nid])
            leaf_slices.append((first, first + int(tree.node_count[nid])))
        kids = tree.node_children[rest[~is_leaf]].ravel()
        frontier = kids[kids >= 0]
    if leaf_slices:
        parts = tree.order[np.concatenate([np.arange(s, e) for s, e in leaf_slices])]
    else:
        parts = np.empty(0, dtype=np.int64)
    return np.concatenate(accepted), parts


@given(
    st.integers(1, 400), st.integers(1, 24), st.floats(0.0, 1.2), st.integers(0, 10_000)
)
@settings(max_examples=60, deadline=None)
def test_walk_box_matches_per_leaf_reference(n, leaf_size, theta, seed):
    rng = np.random.default_rng(seed)
    pos = rng.normal(0.0, 10.0, (n, 3))
    tree = Octree.build(pos, rng.uniform(0.1, 5.0, n), leaf_size=leaf_size)
    # Boxes inside, straddling and far outside the tree (nothing opened).
    for centre, half in ((rng.normal(0.0, 10.0, 3), rng.uniform(0.0, 8.0, 3)),
                         (np.full(3, 1e4), np.ones(3))):
        lo, hi = centre - half, centre + half
        nodes, parts = tree.walk_box(lo, hi, theta)
        ref_nodes, ref_parts = _walk_box_reference(tree, lo, hi, theta)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(parts, ref_parts)
        assert parts.dtype == ref_parts.dtype


@given(
    n=st.integers(1, 700),
    leaf_size=st.integers(1, 24),
    theta=st.floats(0.2, 1.0),
    n_g=st.sampled_from([1, 7, 64, 256, None]),     # None: one group of all N
    keep=st.sampled_from(["all", "some"]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_walk_groups_equals_walk_box_per_group(n, leaf_size, theta, n_g, keep, seed):
    """One traversal for every group gives each group exactly the list —
    node ids and particle indices, in order — of its own walk, also over a
    subset of the groups (the tree pass skips groups without local targets)."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(0.0, 10.0, (n, 3))
    if seed % 3 == 0:
        pos[: n // 2] = pos[0]                      # a clump of coincident points
    tree = Octree.build(pos, rng.uniform(0.1, 5.0, n), leaf_size=leaf_size)
    slices = tree.group_slices(n_g or n)
    if keep == "some":
        slices = [sl for sl in slices if rng.random() < 0.5]
    got = tree.walk_groups(slices, theta)
    assert len(got) == len(slices)
    for (start, end), (nodes, parts) in zip(slices, got):
        box = tree.group_box(start, end)
        for ref_nodes, ref_parts in (tree.walk_box(*box, theta),
                                     _walk_box_reference(tree, *box, theta)):
            assert np.array_equal(nodes, ref_nodes) and nodes.dtype == ref_nodes.dtype
            assert np.array_equal(parts, ref_parts) and parts.dtype == ref_parts.dtype


def _build_per_node_reference(pos, mass, leaf_size=16, pad=1e-3):
    """``Octree.build`` one node at a time — the Python loop the
    level-by-level construction replaced; kept as its oracle."""
    from repro.fdps.morton import MORTON_BITS, morton_keys

    pos = np.ascontiguousarray(pos, dtype=np.float64)
    mass = np.ascontiguousarray(mass, dtype=np.float64)
    n = len(pos)
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
    pm = np.concatenate([[0.0], np.cumsum(smass)])
    pmx = np.concatenate([np.zeros((1, 3)), np.cumsum(smass[:, None] * spos, axis=0)])

    centers, sides, firsts, counts, children, leaf_flags = [], [], [], [], [], []

    def new_node(start, end, clo, cside):
        centers.append(clo + 0.5 * cside)
        sides.append(cside)
        firsts.append(start)
        counts.append(end - start)
        children.append(np.full(8, -1, dtype=np.int64))
        leaf_flags.append(True)
        return len(firsts) - 1

    frontier = [(new_node(0, n, root_lo, side), 0, 0, n, root_lo, side)]
    while frontier:
        nxt = []
        for node, level, start, end, nlo, nside in frontier:
            if end - start <= leaf_size or level >= MORTON_BITS - 1:
                continue
            leaf_flags[node] = False
            shift = np.uint64(3 * (MORTON_BITS - 1 - level))
            octant = ((skeys[start:end] >> shift) & np.uint64(7)).astype(np.int64)
            bounds = np.searchsorted(octant, np.arange(9))
            half = 0.5 * nside
            for oct_id in range(8):
                s = start + bounds[oct_id]
                e = start + bounds[oct_id + 1]
                if e <= s:
                    continue
                off = np.array(
                    [(oct_id >> 2) & 1, (oct_id >> 1) & 1, oct_id & 1], dtype=np.float64
                )
                clo = nlo + off * half
                child = new_node(s, e, clo, half)
                children[node][oct_id] = child
                nxt.append((child, level + 1, s, e, clo, half))
        frontier = nxt

    node_first = np.asarray(firsts, dtype=np.int64)
    node_count = np.asarray(counts, dtype=np.int64)
    node_mass = pm[node_first + node_count] - pm[node_first]
    mx = pmx[node_first + node_count] - pmx[node_first]
    return Octree(
        root_lo=root_lo,
        root_side=side,
        node_center=np.asarray(centers),
        node_side=np.asarray(sides),
        node_com=mx / np.maximum(node_mass, 1e-300)[:, None],
        node_mass=node_mass,
        node_first=node_first,
        node_count=node_count,
        node_children=np.asarray(children),
        node_is_leaf=np.asarray(leaf_flags, dtype=bool),
        order=order,
        sorted_pos=spos,
        sorted_mass=smass,
        leaf_size=leaf_size,
    )


_NODE_ARRAYS = (
    "node_first", "node_count", "node_children", "node_center", "node_side",
    "node_is_leaf", "node_com", "node_mass", "order", "sorted_pos", "sorted_mass",
)


@given(
    st.integers(1, 500),
    st.sampled_from([1, 8, 16]),
    st.sampled_from(["normal", "clustered", "coincident", "some_coincident"]),
    st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_build_matches_per_node_reference(n, leaf_size, shape, seed):
    """Every node array of the level-by-level build equals the per-node
    build exactly: same numbering, same slices, same float geometry."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(0.0, 10.0, (n, 3))
    if shape == "clustered":
        # Ten tight clumps spread over six decades: a deep, uneven tree.
        pos = rng.normal(0.0, 1e3, (10, 3))[rng.integers(0, 10, n)] + pos * 1e-3
    elif shape == "coincident":
        pos[:] = pos[0]
    elif shape == "some_coincident":
        pos[::3] = pos[0]
    mass = rng.uniform(0.1, 5.0, n)
    tree = Octree.build(pos, mass, leaf_size=leaf_size)
    ref = _build_per_node_reference(pos, mass, leaf_size=leaf_size)
    for name in _NODE_ARRAYS:
        got, want = getattr(tree, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert np.array_equal(tree.root_lo, ref.root_lo) and tree.root_side == ref.root_side
