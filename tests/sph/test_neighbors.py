"""Cell-linked-list neighbor search vs brute force and scipy."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.accel.backends import get_backend
from repro.sph.neighbors import (
    NeighborGrid,
    half_pairs_from_gather,
    neighbor_counts,
    neighbor_pairs,
)
from tests.conftest import pairs_by_key


def _brute_pairs(pos, radius, mode):
    r_arr = np.broadcast_to(np.asarray(radius, dtype=float), (len(pos),))
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    if mode == "gather":
        keep = d < r_arr[:, None]
    else:
        keep = d < np.maximum(r_arr[:, None], r_arr[None, :])
    return {(i, j) for i, j in zip(*np.nonzero(keep))}


def _stencil_pairs_reference(grid, query_pos=None):
    """(i, j, r): every (query, point) pair with the point in one of the 27
    cells around the query's cell, unfiltered — per offset (x-major) the
    queries in the order given (``None``: the grid's own points), each with
    its cell's points in cell order; ``r`` by an ``einsum`` over (n_pairs, 3)
    rows.  The full candidate list the compacted one is the ``r < cell``
    cut of."""
    q = grid.pos if query_pos is None else np.asarray(query_pos, dtype=np.float64)
    qc = grid._query_cells(q)
    out_i, out_j = [], []
    for off in itertools.product((-1, 0, 1), repeat=3):
        c = qc + np.array(off)
        valid = np.all((c >= 0) & (c < grid.dims), axis=1)
        keys = (c[valid, 0] * grid.dims[1] + c[valid, 1]) * grid.dims[2] + c[valid, 2]
        starts = np.searchsorted(grid.sorted_keys, keys, side="left")
        lens = np.searchsorted(grid.sorted_keys, keys, side="right") - starts
        slots = np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
        out_i.append(np.repeat(np.flatnonzero(valid), lens))
        out_j.append(grid.order[slots])
    i, j = np.concatenate(out_i), np.concatenate(out_j)
    d = q[i] - grid.pos[j]
    return i, j, np.sqrt(np.einsum("ij,ij->i", d, d))


@pytest.mark.parametrize("mode", ["gather", "symmetric"])
def test_matches_brute_force_fixed_radius(rng, mode):
    pos = rng.uniform(0, 10, (200, 3))
    i, j, r = neighbor_pairs(pos, 1.3, mode=mode, include_self=True)
    got = set(zip(i.tolist(), j.tolist()))
    assert got == _brute_pairs(pos, 1.3, mode)


@pytest.mark.parametrize("mode", ["gather", "symmetric"])
def test_matches_brute_force_variable_radius(rng, mode):
    pos = rng.uniform(0, 10, (150, 3))
    radius = rng.uniform(0.5, 2.0, 150)
    i, j, _ = neighbor_pairs(pos, radius, mode=mode, include_self=True)
    got = set(zip(i.tolist(), j.tolist()))
    assert got == _brute_pairs(pos, radius, mode)


def test_matches_scipy_kdtree(rng):
    pos = rng.uniform(0, 20, (500, 3))
    radius = 2.1
    i, j, _ = neighbor_pairs(pos, radius, mode="gather", include_self=True)
    tree = cKDTree(pos)
    ref_counts = np.array([len(x) for x in tree.query_ball_point(pos, radius)])
    # cKDTree uses <=; we use <. Perturbed random data has no exact ties.
    counts = np.bincount(i, minlength=len(pos))
    assert np.array_equal(counts, ref_counts)


def test_distances_returned_correctly(rng):
    pos = rng.uniform(0, 5, (80, 3))
    i, j, r = neighbor_pairs(pos, 1.0, include_self=False)
    ref = np.linalg.norm(pos[i] - pos[j], axis=1)
    assert np.allclose(r, ref)
    assert np.all(r < 1.0)
    assert np.all(r > 0.0)


def test_include_self_toggle(rng):
    pos = rng.uniform(0, 5, (50, 3))
    i1, j1, _ = neighbor_pairs(pos, 1.0, include_self=True)
    i0, j0, _ = neighbor_pairs(pos, 1.0, include_self=False)
    assert np.sum(i1 == j1) == 50
    assert np.sum(i0 == j0) == 0
    assert len(i1) == len(i0) + 50


def test_symmetric_mode_is_symmetric(rng):
    pos = rng.uniform(0, 8, (120, 3))
    radius = rng.uniform(0.3, 2.5, 120)
    i, j, _ = neighbor_pairs(pos, radius, mode="symmetric", include_self=False)
    pairs = set(zip(i.tolist(), j.tolist()))
    assert all((j_, i_) in pairs for i_, j_ in pairs)


def test_neighbor_counts(rng):
    pos = rng.uniform(0, 6, (100, 3))
    counts = neighbor_counts(pos, 1.5)
    d = np.linalg.norm(pos[:, None] - pos[None, :], axis=2)
    assert np.array_equal(counts, (d < 1.5).sum(axis=1))


def test_zero_radius_rejected():
    with pytest.raises(ValueError):
        neighbor_pairs(np.zeros((3, 3)), 0.0)


def test_grid_handles_single_point():
    i, j, r = neighbor_pairs(np.array([[1.0, 2.0, 3.0]]), 1.0)
    assert list(i) == [0] and list(j) == [0] and r[0] == 0.0


def test_candidates_superset_of_true_pairs(rng):
    """The full stencil holds every true pair; its ``r < cell`` cut, the
    compacted list, holds exactly them."""
    pos = rng.uniform(0, 10, (100, 3))
    grid = NeighborGrid.build(pos, 1.0)
    ci, cj, _ = _stencil_pairs_reference(grid)
    true = _brute_pairs(pos, 1.0, "gather")
    assert true <= set(zip(ci.tolist(), cj.tolist()))
    i, j, _ = grid.compact_self_pairs()
    assert set(zip(i.tolist(), j.tolist())) == true


@given(st.integers(2, 60), st.floats(0.3, 3.0), st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_pair_count_property(n, radius, seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 5, (n, 3))
    i, j, _ = neighbor_pairs(pos, radius, mode="gather", include_self=True)
    assert len(i) == len(_brute_pairs(pos, radius, "gather"))


@given(
    n=st.integers(1, 80),
    extent=st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0), st.floats(0.0, 6.0)),
    cell=st.floats(0.4, 8.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_compact_self_pairs_are_the_filtered_self_pairs(n, extent, cell, seed):
    """The coordinate-plane candidate search against the full-stencil
    reference cut at ``r < cell``: the same (i, j) keys, r to 2 ulp.
    Extents below one cell give one-cell grids and flat (n, 1, 1) ones where
    most offsets are empty; a zero extent stacks every point on one site
    (r = 0 throughout)."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, (n, 3)) * np.array(extent)
    i, j, r = _stencil_pairs_reference(NeighborGrid.build(pos, cell))
    keep = r < cell
    ci, cj, cr = pairs_by_key(NeighborGrid.build(pos, cell).compact_self_pairs())
    i, j, r = pairs_by_key((i[keep], j[keep], r[keep]))
    assert ci.dtype == i.dtype and cj.dtype == j.dtype and cr.dtype == r.dtype
    assert np.array_equal(ci, i) and np.array_equal(cj, j)
    assert np.all(np.abs(cr - r) <= 2 * np.spacing(r))


def _points_on_cell_faces(rng, n, cell):
    """Coordinates on the cell faces of the grid built over them (a quarter
    of the points stacked on the origin, the lowest point, so the grid's
    ``lo`` is ``-1e-9``), the others inside a cell: points on faces, edges
    and corners, some exactly ``cell`` apart along an axis."""
    face = -1e-9 + rng.integers(1, 4, (n, 3)) * cell
    pos = np.where(rng.random((n, 3)) < 0.5, face, rng.uniform(0.0, 3.0 * cell, (n, 3)))
    pos[: max(1, n // 4)] = 0.0
    return pos


@given(
    n=st.integers(1, 80),
    shape=st.sampled_from(["uniform", "one_cell", "flat", "stacked", "faces"]),
    cell=st.floats(0.4, 4.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_half_stencil_list_is_the_mirrored_row_walk(n, shape, cell, seed):
    """The half stencil against the row walk over every point (all 27
    offsets of each point): the same (i, j) keys with bit-equal r, laid out
    as a forward block, its mirror with equal r, then each self pair once at
    r = 0.  Run on 1-cell grids, flat (n, 1, 1) ones, points stacked on one
    site, and points on cell faces, edges and corners."""
    rng = np.random.default_rng(seed)
    extent = {
        "uniform": np.full(3, 4.0 * cell), "one_cell": np.full(3, 0.5 * cell),
        "flat": np.array([6.0 * cell, 0.0, 0.0]), "stacked": np.zeros(3),
        "faces": np.zeros(3),
    }[shape]
    pos = rng.uniform(0.0, 1.0, (n, 3)) * extent
    if shape == "faces":
        pos = _points_on_cell_faces(rng, n, cell)
    grid = NeighborGrid.build(pos, cell)
    i, j, r = grid.compact_self_pairs()
    for got, want in zip(pairs_by_key((i, j, r)), pairs_by_key(grid._pairs_within_cell(np.arange(n)))):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    f = (len(i) - n) // 2
    assert len(i) == 2 * f + n
    assert np.all(i[:f] != j[:f])
    assert np.array_equal(i[f:2 * f], j[:f]) and np.array_equal(j[f:2 * f], i[:f])
    assert np.array_equal(r[f:2 * f], r[:f])
    assert np.array_equal(i[2 * f:], np.arange(n)) and np.array_equal(j[2 * f:], np.arange(n))
    assert np.all(r[2 * f:] == 0.0)
    # Each unordered pair once in the forward block.
    assert len({(min(a, b), max(a, b)) for a, b in zip(i[:f].tolist(), j[:f].tolist())}) == f


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_rejects_a_non_finite_coordinate(rng, bad):
    pos = rng.uniform(0.0, 10.0, (50, 3))
    pos[17, 1] = bad
    with pytest.raises(ValueError, match="non-finite coordinate.*point 17"):
        NeighborGrid.build(pos, 1.0)


@pytest.mark.parametrize("cell", [0.0, -1.0, np.inf, np.nan])
def test_build_rejects_a_cell_that_is_not_positive_and_finite(rng, cell):
    with pytest.raises(ValueError, match="cell size must be positive and finite"):
        NeighborGrid.build(rng.uniform(0.0, 10.0, (50, 3)), cell)


def test_build_rejects_a_cell_whose_keys_overflow(rng):
    """1e-12 over a 10-unit box is ~1e13 cells per axis: the keys would wrap."""
    with pytest.raises(ValueError, match="overflow the int64 cell keys"):
        NeighborGrid.build(rng.uniform(0.0, 10.0, (50, 3)), 1e-12)


def test_grid_callers_pass_the_build_checks_on_valid_input(rng):
    """What the solve and the searches hand the grid — one point, stacked
    points, a flat cloud, a cell far below the extent — builds."""
    from repro.accel.index import SpatialIndex

    for pos, radius in (
        (np.array([[1.0, 2.0, 3.0]]), 1.0),
        (np.zeros((5, 3)), 0.5),
        (np.column_stack([rng.uniform(0.0, 10.0, 40), np.zeros(40), np.zeros(40)]), 0.3),
        (rng.uniform(0.0, 10.0, (40, 3)), 1e-4),
    ):
        h = np.full(len(pos), radius)
        grid = SpatialIndex().grid_for(pos, radius)
        i, _, _ = neighbor_pairs(pos, h, grid=grid)
        brute = cKDTree(pos).query_ball_point(pos, radius * (1 - 1e-12), return_length=True)
        assert np.array_equal(np.bincount(i, minlength=len(pos)), brute)
        half = get_backend("numpy")._half_pairs(pos, h, grid)
        assert 2 * len(half[0]) + len(pos) == len(i)


@given(
    n=st.integers(2, 90),
    extent=st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0), st.floats(0.0, 6.0)),
    h_lo=st.floats(0.2, 3.0),
    h_spread=st.sampled_from([1.0, 3.0, 10.0]),
    n_edge=st.integers(0, 10),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_half_pairs_from_gather_are_the_searched_half_pairs(
    n, extent, h_lo, h_spread, n_edge, seed
):
    """Derived from the gather list == searched in the candidate list: the
    same (i, j) keys with bit-equal r, for the full-stencil reference and the
    compacted list (``neighbor_pairs`` and the numpy backend's search).
    ``h`` spans up to 10x across particles; zero extents stack points on one
    site or a line; small extents give a single cell; ``n_edge`` particles
    get an ``h`` exactly equal to one of their pair separations, the
    ``r < h_i`` / ``r >= h_j`` edge of the derivation."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, (n, 3)) * np.array(extent)
    h = h_lo * rng.uniform(1.0, h_spread, n)
    grid = NeighborGrid.build(pos, float(h.max()))
    ci, _, cr = grid.compact_self_pairs()
    in_reach = np.flatnonzero(cr > 0)
    if n_edge and in_reach.size:
        edge = rng.choice(in_reach, size=min(n_edge, in_reach.size), replace=False)
        h[ci[edge]] = cr[edge]          # below the cell: the grid still covers h

    i, j, r = _stencil_pairs_reference(grid)
    full_gather, full_searched = (
        (i[keep], j[keep], r[keep])
        for keep in (r < h[i], (r < np.maximum(h[i], h[j])) & (i < j))
    )
    compact_searched = neighbor_pairs(pos, h, mode="symmetric", grid=grid, half=True)
    for a, b in zip(compact_searched, get_backend("numpy")._half_pairs(pos, h, grid)):
        assert np.array_equal(a, b)
    for gather, searched in (
        (full_gather, full_searched),
        (neighbor_pairs(pos, h, mode="gather", include_self=True, grid=grid), compact_searched),
    ):
        for got, want in zip(pairs_by_key(half_pairs_from_gather(gather, h)), pairs_by_key(searched)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


# ------------------------------------------------------ local edits of a grid
def _fresh_on_same_binning(grid: NeighborGrid, pos: np.ndarray) -> NeighborGrid:
    """A grid over ``pos`` binned on ``grid``'s ``lo``/``cell``/``dims``."""
    keys = NeighborGrid._keys_of(pos, grid.lo, grid.cell, grid.dims)
    order = np.argsort(keys, kind="stable")
    return NeighborGrid(
        lo=grid.lo, cell=grid.cell, dims=grid.dims, order=order,
        sorted_keys=keys[order], pos=pos.copy(),
    )


def _assert_grids_answer_alike(got: NeighborGrid, want: NeighborGrid, rng) -> None:
    """Same candidate set with bit-equal r, same binning, same box and
    external-query answers."""
    for a, b in zip(pairs_by_key(got.compact_self_pairs()), pairs_by_key(want.compact_self_pairs())):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(got.pos, want.pos)
    assert np.array_equal(got.order, want.order)
    assert np.array_equal(got.sorted_keys, want.sorted_keys)
    lo, hi = np.sort(rng.uniform(want.pos.min() - 1.0, want.pos.max() + 1.0, (2, 3)), axis=0)
    assert np.array_equal(got.points_in_box(lo, hi), want.points_in_box(lo, hi))
    queries = rng.uniform(want.pos.min() - 1.0, want.pos.max() + 1.0, (7, 3))
    for a, b in zip(_stencil_pairs_reference(got, queries), _stencil_pairs_reference(want, queries)):
        assert np.array_equal(a, b)


@given(
    n=st.integers(1, 90),
    extent=st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0), st.floats(0.0, 6.0)),
    cell=st.floats(0.4, 8.0),
    moved=st.sampled_from(["none", "one", "4%", "55%", "all"]),
    onto_another=st.booleans(),
    n_duplicates=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_move_points_repairs_to_the_fresh_candidate_list(
    n, extent, cell, moved, onto_another, n_duplicates, seed
):
    """After ``move_points`` the compact list, sorted by (i, j), equals a
    fresh generation on the same binning — keys exact, r bit-equal — and box
    and external queries answer alike.  Zero extents stack every point on
    one site or a line, small ones give a single cell; ``onto_another`` lands
    one moved point exactly on an unmoved one; duplicate rows repeat a moved
    point (same position: the last one given wins anyway)."""
    rng = np.random.default_rng(seed)
    scale = np.array(extent)
    pos = rng.uniform(0.0, 1.0, (n, 3)) * scale
    grid = NeighborGrid.build(pos, cell)
    grid.compact_self_pairs()
    k = {"none": 0, "one": 1, "4%": max(1, round(0.04 * n)),
         "55%": max(1, round(0.55 * n)), "all": n}[moved]
    rows = rng.choice(n, size=k, replace=False)
    # Anywhere inside the grid's box, which reaches a little beyond the points.
    box_hi = grid.lo + grid.dims * grid.cell
    new_pos = np.clip(rng.uniform(-0.2, 1.2, (k, 3)) * scale, grid.lo, box_hi - 1e-6)
    stayed = np.setdiff1d(np.arange(n), rows)
    if onto_another and k and stayed.size:
        new_pos[0] = pos[stayed[0]]
    if k:
        again = rng.integers(0, k, n_duplicates)
        rows, new_pos = np.concatenate([rows, rows[again]]), np.concatenate([new_pos, new_pos[again]])

    caller_pos = pos.copy()
    assert grid.move_points(rows, new_pos)
    assert np.array_equal(pos, caller_pos)          # the grid owns its copy
    edited = pos.copy()
    edited[rows] = new_pos
    _assert_grids_answer_alike(grid, _fresh_on_same_binning(grid, edited), rng)


@given(
    n=st.integers(2, 70),
    cell=st.floats(0.5, 3.0),
    n_moved=st.integers(1, 12),
    sides=st.tuples(*[st.sampled_from([-1, 0, 1])] * 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_move_points_outside_the_box_stays_exact(n, cell, n_moved, sides, seed):
    """Moved points may land up to 3 cells outside the box of the first
    binning — beyond a face, an edge or a corner (``sides``: which way per
    axis) — and are binned to the edge cell: the repaired list is the fresh
    one on the same binning (keys exact, r bit-equal), and it is the truth —
    every pair closer than ``cell``, found by brute force."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 6.0, (n, 3))
    grid = NeighborGrid.build(pos, cell)
    grid.compact_self_pairs()
    rows = rng.choice(n, size=min(n_moved, n), replace=False)
    box_lo, box_hi = grid.lo, grid.lo + grid.dims * grid.cell
    out = rng.uniform(0.0, 3.0 * cell, (len(rows), 3))
    inside = rng.uniform(box_lo, box_hi, (len(rows), 3))
    side = np.array(sides)
    new_pos = np.where(side < 0, box_lo - out, np.where(side > 0, box_hi + out, inside))
    assert grid.move_points(rows, new_pos)
    edited = pos.copy()
    edited[rows] = new_pos
    _assert_grids_answer_alike(grid, _fresh_on_same_binning(grid, edited), rng)
    r = np.linalg.norm(edited[:, None, :] - edited[None, :, :], axis=2)
    want_i, want_j = np.nonzero(r < cell)
    got_i, got_j, got_r = pairs_by_key(grid.compact_self_pairs())
    assert np.array_equal(got_i, want_i) and np.array_equal(got_j, want_j)
    np.testing.assert_allclose(got_r, r[want_i, want_j], rtol=1e-14, atol=1e-14)
    lo, hi = new_pos.min(axis=0), new_pos.max(axis=0)
    assert np.array_equal(
        np.sort(grid.points_in_box(lo, hi)),
        np.flatnonzero(np.all((edited >= lo) & (edited <= hi), axis=1)),
    )


def test_move_points_refuses_what_it_cannot_answer_exactly(rng):
    """No cached list, a row that is no point of the grid, a position that is
    not finite: ``False``, and the grid is untouched.  (A finite position
    outside the box is answered: see the test above.)"""
    pos = rng.uniform(0.0, 10.0, (120, 3))
    grid = NeighborGrid.build(pos, 1.5)
    inside = np.array([[5.0, 5.0, 5.0]])
    assert not grid.move_points(np.array([3]), inside)         # nothing cached yet
    before = [a.copy() for a in grid.compact_self_pairs()]
    order, keys = grid.order.copy(), grid.sorted_keys.copy()
    for rows, new_pos in (
        (np.array([120]), inside),
        (np.array([-1]), inside),
        (np.array([3]), np.array([[np.inf, 5.0, 5.0]])),
        (np.array([3]), np.array([[5.0, -np.inf, 5.0]])),
        (np.array([3, 4]), np.array([[5.0, 5.0, 5.0], [5.0, np.nan, 5.0]])),
    ):
        assert not grid.move_points(rows, new_pos)
        assert np.array_equal(grid.pos, pos)
        assert np.array_equal(grid.order, order) and np.array_equal(grid.sorted_keys, keys)
        for got, want in zip(grid.compact_self_pairs(), before):
            assert np.array_equal(got, want)
    grid.release_pairs()
    assert not grid.move_points(np.array([3]), inside)         # released again


def test_move_points_twice_and_full_list_dropped(rng):
    """Edits compose (two SN returns on one grid), and the full stencil
    walked over the edited grid is the fresh grid's, in the same order."""
    pos = rng.uniform(0.0, 8.0, (300, 3))
    grid = NeighborGrid.build(pos, 1.2)
    grid.compact_self_pairs()
    edited = pos.copy()
    for rows in (np.arange(10, 40), np.arange(30, 55)):        # overlapping sets
        new_pos = rng.uniform(0.5, 7.5, (len(rows), 3))
        assert grid.move_points(rows, new_pos)
        edited[rows] = new_pos
    fresh = _fresh_on_same_binning(grid, edited)
    _assert_grids_answer_alike(grid, fresh, rng)
    for a, b in zip(_stencil_pairs_reference(grid), _stencil_pairs_reference(fresh)):
        assert np.array_equal(a, b)
