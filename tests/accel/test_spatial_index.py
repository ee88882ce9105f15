"""SpatialIndex: half-pair search parity, cache reuse, explicit invalidation."""

import numpy as np
import pytest

from repro.accel import SpatialIndex
from repro.sph.neighbors import neighbor_pairs


def _brute_half_pairs(pos, radius):
    """Unordered symmetric pairs from an O(N^2) scan."""
    r_arr = np.broadcast_to(np.asarray(radius, dtype=float), (len(pos),))
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    keep = d < np.maximum(r_arr[:, None], r_arr[None, :])
    ii, jj = np.nonzero(keep)
    return {(min(a, b), max(a, b)) for a, b in zip(ii.tolist(), jj.tolist()) if a != b}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_half_pairs_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 10, (250, 3))
    radius = rng.uniform(0.5, 2.0, 250)
    i, j, r = neighbor_pairs(pos, radius, mode="symmetric", half=True)
    got = {(min(a, b), max(a, b)) for a, b in zip(i.tolist(), j.tolist())}
    assert len(got) == len(i)  # every unordered pair emitted exactly once
    assert got == _brute_half_pairs(pos, radius)
    assert np.allclose(r, np.linalg.norm(pos[i] - pos[j], axis=1))


def test_half_pairs_are_half_of_symmetric(rng):
    pos = rng.uniform(0, 6, (180, 3))
    radius = rng.uniform(0.4, 1.8, 180)
    full = neighbor_pairs(pos, radius, mode="symmetric", include_self=False)
    half = neighbor_pairs(pos, radius, mode="symmetric", half=True)
    assert 2 * len(half[0]) == len(full[0])


def test_half_pairs_require_symmetric_mode(rng):
    pos = rng.uniform(0, 5, (30, 3))
    with pytest.raises(ValueError):
        neighbor_pairs(pos, 1.0, mode="gather", half=True)


# --------------------------------------------------------------- index cache
def test_grid_cached_and_reused(rng):
    idx = SpatialIndex()
    pos = rng.uniform(0, 10, (300, 3))
    g1 = idx.grid_for(pos, 1.0)
    g2 = idx.grid_for(pos, 0.7)     # smaller radius: still covered
    assert g2 is g1
    assert idx.stats.grid_builds == 1 and idx.stats.grid_reuses == 1


def test_grid_rebuilt_when_radius_outgrows_cell(rng):
    idx = SpatialIndex()
    pos = rng.uniform(0, 10, (300, 3))
    g1 = idx.grid_for(pos, 1.0)
    g1.compact_self_pairs(np.full(300, 0.5))
    g2 = idx.grid_for(pos, 1.5)     # cell no longer covers the search
    assert g2 is not g1
    assert idx.stats.grid_builds == 2
    # The replaced grid's list goes with it, also where a caller still holds
    # the grid: one candidate list alive at a time.
    assert not g1.has_compact_pairs and not g1.has_reach_list


def test_grid_invalidated_on_position_change(rng):
    idx = SpatialIndex()
    pos = rng.uniform(0, 10, (300, 3))
    g1 = idx.grid_for(pos, 1.0)
    idx.invalidate_positions()
    assert not idx.has_grid
    g2 = idx.grid_for(pos, 1.0)
    assert g2 is not g1


def test_tree_cached_and_invalidated(rng):
    idx = SpatialIndex()
    pos = rng.uniform(0, 10, (500, 3))
    mass = np.ones(500)
    t1 = idx.tree_for(pos, mass)
    t2 = idx.tree_for(pos, mass)
    assert t2 is t1
    assert idx.stats.tree_builds == 1 and idx.stats.tree_reuses == 1
    idx.invalidate_positions()
    t3 = idx.tree_for(pos, mass)
    assert t3 is not t1


def test_tree_rebuilt_on_membership_change(rng):
    idx = SpatialIndex()
    pos = rng.uniform(0, 10, (500, 3))
    t1 = idx.tree_for(pos, np.ones(500))
    # A different particle count never reuses, even without invalidation.
    t2 = idx.tree_for(pos[:250], np.ones(250))
    assert t2 is not t1
    assert idx.stats.tree_builds == 2


def test_tree_rebuilt_on_leaf_size_change(rng):
    idx = SpatialIndex()
    pos = rng.uniform(0, 10, (200, 3))
    t1 = idx.tree_for(pos, np.ones(200), leaf_size=16)
    t2 = idx.tree_for(pos, np.ones(200), leaf_size=8)
    assert t2 is not t1


def test_move_points_edits_the_grid_through_the_scope_and_drops_the_tree(rng):
    """Global rows are mapped to grid rows through the scope; the edited grid
    is the next ``grid_for``'s answer and holds the new positions, the
    octree is gone, and the edit is counted."""
    idx = SpatialIndex()
    all_pos = rng.uniform(0, 10, (400, 3))
    scope = np.flatnonzero(all_pos[:, 0] > 3.0)
    grid = idx.grid_for(all_pos[scope], 1.0, scope=scope)
    grid.compact_self_pairs()
    idx.tree_for(all_pos, np.ones(400))
    rows = scope[[3, 50, 51]]
    all_pos[rows] = rng.uniform(4.0, 9.0, (3, 3))
    assert idx.move_points(rows, all_pos[rows])
    assert not idx.has_tree and idx.stats.grid_repairs == 1
    assert idx.grid_for(all_pos[scope], 0.9, scope=scope) is grid
    assert idx.stats.grid_builds == 1
    assert np.array_equal(grid.pos, all_pos[scope])

    stats = idx.stats.as_dict()
    assert stats["grid_repairs"] == 1 and stats["grid_builds"] == 1
    idx.stats.reset()
    assert set(idx.stats.as_dict().values()) == {0}


def test_move_points_that_cannot_repair_leaves_nothing_cached(rng):
    idx = SpatialIndex()
    all_pos = rng.uniform(0, 10, (400, 3))
    scope = np.flatnonzero(all_pos[:, 0] > 3.0)
    outside = np.flatnonzero(all_pos[:, 0] <= 3.0)[:1]
    for prepare, rows in (
        (lambda g: g.compact_self_pairs(), outside),        # not in the scope
        (lambda g: None, scope[:2]),                        # no list to repair
    ):
        prepare(idx.grid_for(all_pos[scope], 1.0, scope=scope))
        idx.tree_for(all_pos, np.ones(400))
        assert not idx.move_points(rows, all_pos[rows])
        assert not idx.has_grid and not idx.has_tree
    assert not idx.move_points(scope[:2], all_pos[scope[:2]])    # nothing cached
    assert idx.stats.grid_repairs == 0
