"""Distributed FDPS pipeline: the multi-rank integration test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.fdps.distributed import DistributedGravity
from repro.fdps.domain import DomainDecomposition
from repro.fdps.interaction import InteractionCounter
from repro.fdps.particles import FIELDS, ParticleSet, packed_width
from repro.gravity.kernels import accel_direct
from tests.conftest import plummer_positions


def _cluster(n=800, seed=21):
    rng = np.random.default_rng(seed)
    pos = plummer_positions(n, a=30.0, rng=rng)
    ps = ParticleSet.from_arrays(
        pos=pos,
        mass=rng.uniform(0.5, 2.0, n),
        eps=np.full(n, 0.5),
        pid=np.arange(n),
    )
    ps.vel[:] = rng.normal(0, 0.5, (n, 3))
    return ps


def _rel_err(a, b):
    scale = np.maximum(np.linalg.norm(b, axis=1), 1e-300)
    return np.linalg.norm(a - b, axis=1) / scale


@pytest.mark.parametrize("n_ranks", [1, 4, 8])
def test_distributed_matches_direct(n_ranks):
    ps = _cluster()
    ref = accel_direct(ps.pos, ps.mass, ps.eps)
    driver = DistributedGravity(n_ranks=n_ranks, theta=0.3)
    acc = driver.global_accel(ps.copy())
    err = _rel_err(acc, ref)
    assert np.median(err) < 5e-3
    # Tail errors come from boundary particles whose remote matter arrives
    # as borderline-accepted monopoles; 99th percentile stays below 10%.
    assert np.percentile(err, 99) < 1e-1


def test_torus_routing_gives_same_forces():
    ps = _cluster(seed=22)
    flat = DistributedGravity(n_ranks=8, theta=0.35, use_torus=False)
    torus = DistributedGravity(n_ranks=8, theta=0.35, use_torus=True)
    a_flat = flat.global_accel(ps.copy())
    a_torus = torus.global_accel(ps.copy())
    assert np.allclose(a_flat, a_torus)
    # The torus route shows up in its own stats label.
    assert "exchange_let" in torus.comm.stats


def test_scatter_gather_roundtrip():
    ps = _cluster(seed=23)
    driver = DistributedGravity(n_ranks=6)
    decomp, locals_ = driver.scatter(ps)
    assert sum(len(l) for l in locals_) == len(ps)
    back = driver.gather(locals_)
    assert np.array_equal(np.sort(back.pid), np.sort(ps.pid))
    assert back.total_mass() == pytest.approx(ps.total_mass())


def test_exchange_particles_moves_emigrants():
    ps = _cluster(seed=24)
    driver = DistributedGravity(n_ranks=4)
    decomp, locals_ = driver.scatter(ps)
    # Push particles of rank 0 far along +x so they belong elsewhere.
    locals_[0].pos[:, 0] += 100.0
    merged_pos = np.concatenate([l.pos for l in locals_])
    from repro.fdps.domain import DomainDecomposition

    new_decomp = DomainDecomposition.fit(merged_pos, driver.grid)
    moved = driver.exchange_particles(locals_, new_decomp)
    assert sum(len(l) for l in moved) == len(ps)
    # Every particle now sits in its owner's domain.
    for rank, loc in enumerate(moved):
        if len(loc) == 0:
            continue
        assert np.all(new_decomp.assign(loc.pos) == rank)
    # Communication was counted.
    assert driver.comm.stats["exchange_particles"].n_messages > 0


def test_interaction_counter_collects():
    ps = _cluster(n=400, seed=27)
    driver = DistributedGravity(n_ranks=4, theta=0.4)
    decomp, locals_ = driver.scatter(ps)
    counter = InteractionCounter()
    driver.forces(locals_, decomp, counter=counter)
    assert counter.interactions("gravity") > 0
    assert counter.flops("gravity") == 27 * counter.interactions("gravity")


def _expected_exchange_bytes(driver, locals_, decomp):
    """Sum of packed payload bytes, weighted by torus forwarding phases."""
    topo = driver.comm.topology
    total = 0
    for src in range(driver.n_ranks):
        ps = locals_[src]
        owner = decomp.assign(ps.pos)
        for dst in range(driver.n_ranks):
            if dst == src:
                continue
            n_moving = int((owner == dst).sum())
            if n_moving == 0:
                continue
            nbytes = n_moving * packed_width() * 8
            if topo is None:
                total += nbytes
            else:
                ca, cb = topo.coords(src), topo.coords(dst)
                total += nbytes * sum(a != b for a, b in zip(ca, cb))
    return total


@pytest.mark.parametrize("use_torus", [False, True])
def test_exchange_particles_byte_ledger_exact(use_torus):
    ps = _cluster(seed=31)
    driver = DistributedGravity(n_ranks=8, use_torus=use_torus)
    decomp, locals_ = driver.scatter(ps)
    # Displace rank 0 so a real migration happens.
    locals_[0].pos[:, 0] += 80.0
    merged_pos = np.concatenate([loc.pos for loc in locals_])
    new_decomp = DomainDecomposition.fit(merged_pos, driver.grid)
    expected = _expected_exchange_bytes(driver, locals_, new_decomp)
    assert expected > 0
    driver.comm.reset_stats()
    moved = driver.exchange_particles(locals_, new_decomp)
    assert driver.comm.stats["exchange_particles"].bytes_total == expected
    assert sum(len(loc) for loc in moved) == len(ps)


def test_exchange_particles_carries_full_payload():
    """Migrated particles keep every field: velocity, type, metals, pids."""
    rng = np.random.default_rng(32)
    n = 120
    ps = ParticleSet.from_arrays(
        pos=rng.uniform(-50, 50, (n, 3)),
        vel=rng.normal(0, 1, (n, 3)),
        mass=rng.uniform(0.5, 2.0, n),
        u=rng.uniform(1, 10, n),
        zmet=rng.uniform(0, 0.02, (n, 4)),
        ptype=rng.integers(0, 3, n),
        pid=rng.permutation(10 * n)[:n],
    )
    driver = DistributedGravity(n_ranks=4)
    decomp, locals_ = driver.scatter(ps.copy())
    locals_[0].pos[:, 0] += 200.0
    merged_pos = np.concatenate([loc.pos for loc in locals_])
    new_decomp = DomainDecomposition.fit(merged_pos, driver.grid)
    moved = driver.exchange_particles(locals_, new_decomp)
    back = driver.gather(moved)
    order = np.argsort(ps.pid, kind="stable")
    for name in ("vel", "mass", "u", "zmet", "ptype"):
        assert np.array_equal(back.data[name], ps.data[name][order]), name


def test_repeated_forces_reuse_every_cached_tree():
    """A force pass builds one tree per rank; a re-evaluation at unchanged
    positions reuses every one of them.  (One build per rank per *step* is
    pinned on the step host, in ``tests/core/test_coupled.py``.)"""
    ps = _cluster(n=600, seed=33)
    driver = DistributedGravity(n_ranks=4, theta=0.35)
    decomp, locals_ = driver.scatter(ps)
    driver.forces(locals_, decomp)
    assert [i.stats.tree_builds for i in driver.indices] == [1] * 4
    driver.forces(locals_, decomp)
    assert [i.stats.tree_builds for i in driver.indices] == [1] * 4
    assert [i.stats.tree_reuses for i in driver.indices] == [1] * 4


def _rows_sorted(buf):
    """Packed particle rows in lexicographic order: a set's field multiset."""
    return buf[np.lexsort(buf.T[::-1])]


@given(
    grid=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_decomposition_is_an_exact_partition(grid, data):
    """Any positions, weights, process grid and subsample: ``assign`` puts
    every point in exactly one domain — the one whose box holds it — and
    ``exchange_particles`` hands back every particle with every field
    intact, each on the rank that owns it."""
    n = data.draw(st.integers(1, 200), label="n")
    coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    pos = data.draw(hnp.arrays(np.float64, (n, 3), elements=coord), label="pos")
    weights = data.draw(
        st.none() | hnp.arrays(np.float64, n, elements=st.floats(0.0, 100.0)),
        label="weights",
    )
    sample = data.draw(st.none() | st.integers(1, n), label="sample")
    seed = data.draw(st.none() | st.integers(0, 2**32 - 1), label="seed")
    rng = None if seed is None else np.random.default_rng(seed)
    decomp = DomainDecomposition.fit(pos, grid, weights=weights, sample=sample, rng=rng)

    n_ranks = decomp.n_domains
    owner = decomp.assign(pos)
    holds = np.array([
        np.all((pos >= lo) & (pos < hi), axis=1)
        for lo, hi in map(decomp.domain_box, range(n_ranks))
    ])
    assert np.array_equal(holds.sum(axis=0), np.ones(n))
    assert np.array_equal(np.argmax(holds, axis=0), owner)

    fill = np.random.default_rng(n)
    ps = ParticleSet.from_arrays(pos=pos)
    for name, (shape, dtype, _) in FIELDS.items():
        if name != "pos":
            ps.data[name][...] = fill.normal(0.0, 10.0, (n, *shape)).astype(dtype)
    ps.pid[:] = fill.integers(0, n, n)  # repeats allowed: a multiset
    driver = DistributedGravity(
        n_ranks=n_ranks, use_torus=data.draw(st.booleans(), label="torus")
    )
    # Start from another owner map (the mirrored fit) so particles migrate.
    before = DomainDecomposition.fit(-pos, grid).assign(pos)
    moved = driver.exchange_particles(
        [ps.select(before == r) for r in range(n_ranks)], decomp
    )
    for rank, loc in enumerate(moved):
        assert np.all(decomp.assign(loc.pos) == rank)
        assert all(loc.data[k].dtype == FIELDS[k][1] for k in FIELDS)
    back = driver.gather(moved)
    assert np.array_equal(np.sort(back.pid), np.sort(ps.pid))
    assert np.array_equal(_rows_sorted(back.pack()), _rows_sorted(ps.pack()))


def test_global_accel_row_order_with_shuffled_pids():
    """Regression pin: global_accel aligns to input rows, not pid order."""
    ps = _cluster(n=300, seed=35)
    rng = np.random.default_rng(36)
    ps.pid[:] = rng.permutation(5000)[:300]  # unique, shuffled, sparse
    ref = accel_direct(ps.pos, ps.mass, ps.eps)
    driver = DistributedGravity(n_ranks=4, theta=0.3)
    acc = driver.global_accel(ps.copy())
    assert np.median(_rel_err(acc, ref)) < 5e-3


def test_empty_rank_is_tolerated():
    # All particles in one octant: some ranks may end up (nearly) empty.
    rng = np.random.default_rng(28)
    ps = ParticleSet.from_arrays(
        pos=rng.uniform(0, 1, (50, 3)),
        mass=np.ones(50),
        eps=np.full(50, 0.05),
        pid=np.arange(50),
    )
    driver = DistributedGravity(n_ranks=8, theta=0.2)
    acc = driver.global_accel(ps)
    ref = accel_direct(ps.pos, ps.mass, ps.eps)
    assert np.median(_rel_err(acc, ref)) < 2e-2
