"""Tree gravity vs direct summation, LET-based distributed forces."""

import numpy as np
import pytest

from repro.fdps.comm import SimComm
from repro.fdps.domain import DomainDecomposition
from repro.fdps.interaction import InteractionCounter
from repro.fdps.let import build_let_exports, exchange_let
from repro.fdps.tree import Octree
from repro.gravity.kernels import accel_direct
from repro.gravity.treegrav import tree_accel
from tests.conftest import plummer_positions


@pytest.fixture(scope="module")
def cluster():
    rng = np.random.default_rng(11)
    pos = plummer_positions(1500, a=40.0, rng=rng)
    mass = rng.uniform(0.5, 2.0, 1500)
    eps = np.full(1500, 0.5)
    return pos, mass, eps


def _rel_err(a, b):
    scale = np.linalg.norm(b, axis=1)
    return np.linalg.norm(a - b, axis=1) / np.maximum(scale, 1e-300)


def test_tree_matches_direct_small_theta(cluster):
    pos, mass, eps = cluster
    ref = accel_direct(pos, mass, eps)
    res = tree_accel(pos, mass, eps, theta=0.2, n_g=64)
    assert np.median(_rel_err(res.acc, ref)) < 1e-3
    assert np.percentile(_rel_err(res.acc, ref), 99) < 1e-2


def test_tree_error_decreases_with_theta(cluster):
    pos, mass, eps = cluster
    ref = accel_direct(pos, mass, eps)
    errs = []
    for theta in (1.0, 0.6, 0.3):
        res = tree_accel(pos, mass, eps, theta=theta, n_g=64)
        errs.append(np.median(_rel_err(res.acc, ref)))
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("mixed", [False, True], ids=["float64", "mixed"])
def test_p99_force_error_vs_opening_angle(cluster, mixed):
    """The accuracy gate of the tile: tree against float64 direct summation,
    99th-percentile relative force error monotone in theta and under the
    e2e benchmark's 5e-3 bound at the production theta = 0.5, in both tile
    precisions (the mixed tile's own error sits two decades below)."""
    pos, mass, eps = cluster
    ref = accel_direct(pos, mass, eps)
    p99 = [
        np.percentile(
            _rel_err(tree_accel(pos, mass, eps, theta=theta, mixed_precision=mixed).acc, ref),
            99,
        )
        for theta in (0.3, 0.5, 0.7)
    ]
    assert p99[0] < p99[1] < p99[2]
    assert p99[1] <= 5e-3


def test_theta_zero_is_exact_direct(cluster):
    pos, mass, eps = cluster
    ref = accel_direct(pos, mass, eps)
    res = tree_accel(pos, mass, eps, theta=0.0, n_g=128)
    assert np.allclose(res.acc, ref, rtol=1e-12, atol=1e-14)


def test_larger_ng_longer_lists(cluster):
    # The n_g trade-off of Sec. 5.2.4: bigger groups -> fewer walks but
    # longer average interaction lists.
    pos, mass, eps = cluster
    r_small = tree_accel(pos, mass, eps, theta=0.5, n_g=32)
    r_large = tree_accel(pos, mass, eps, theta=0.5, n_g=512)
    assert r_large.n_groups < r_small.n_groups
    assert r_large.mean_list_length > r_small.mean_list_length


def test_interaction_counter_threaded(cluster):
    pos, mass, eps = cluster
    c = InteractionCounter()
    res = tree_accel(pos, mass, eps, theta=0.5, n_g=128, counter=c)
    assert c.interactions("gravity") == res.interactions
    assert res.interactions < len(pos) ** 2  # beat direct summation
    assert res.interactions > 0


def test_mixed_precision_tree(cluster):
    pos, mass, eps = cluster
    ref = accel_direct(pos, mass, eps)
    res = tree_accel(pos, mass, eps, theta=0.3, n_g=128, mixed_precision=True)
    assert np.median(_rel_err(res.acc, ref)) < 5e-3


def test_let_exports_conserve_mass(cluster):
    pos, mass, eps = cluster
    tree = Octree.build(pos, mass, leaf_size=16)
    exp = build_let_exports(tree, np.array([200.0] * 3), np.array([260.0] * 3), 0.5)
    assert exp.mass.sum() == pytest.approx(mass.sum())
    assert exp.n_pseudo > 0
    # pack/unpack round-trip
    back = exp.unpack(exp.pack())
    assert np.allclose(back.pos, exp.pos)
    assert np.allclose(back.mass, exp.mass)


def test_distributed_let_forces_match_global(cluster):
    """End-to-end FDPS pipeline: decompose, exchange LETs, compute forces.

    Per-rank forces using local + imported LET matter must agree with the
    global tree result at tree-code accuracy.
    """
    pos, mass, eps = cluster
    ref = accel_direct(pos, mass, eps)
    theta = 0.35

    dd = DomainDecomposition.fit(pos, (2, 2, 1), sample=None)
    ranks = dd.assign(pos)
    comm = SimComm(dd.n_domains)
    glo, ghi = pos.min(axis=0), pos.max(axis=0)

    trees = []
    for r in range(dd.n_domains):
        sel = ranks == r
        trees.append(Octree.build(pos[sel], mass[sel], leaf_size=16))
    imports = exchange_let(comm, trees, dd, glo, ghi, theta)

    acc = np.zeros_like(pos)
    for r in range(dd.n_domains):
        sel = ranks == r
        res = tree_accel(
            pos[sel],
            mass[sel],
            eps[sel],
            theta=theta,
            n_g=64,
            extra_pos=imports[r].pos,
            extra_mass=imports[r].mass,
        )
        acc[sel] = res.acc
    err = _rel_err(acc, ref)
    assert np.median(err) < 5e-3
    assert np.percentile(err, 99) < 5e-2


def test_let_cheaper_than_full_exchange(cluster):
    pos, mass, eps = cluster
    dd = DomainDecomposition.fit(pos, (2, 2, 1), sample=None)
    ranks = dd.assign(pos)
    comm = SimComm(dd.n_domains)
    glo, ghi = pos.min(axis=0), pos.max(axis=0)
    trees = [
        Octree.build(pos[ranks == r], mass[ranks == r], leaf_size=16)
        for r in range(dd.n_domains)
    ]
    exchange_let(comm, trees, dd, glo, ghi, theta=0.5)
    sent = comm.stats["exchange_let"].bytes_total
    full = pos.nbytes + mass.nbytes
    # Each rank would need the full remote complement: (p-1) * full ~ 3*full.
    assert sent < 3 * full
