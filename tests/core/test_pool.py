"""PoolManager: dispatch/collect protocol, latency, overflow handling."""

import numpy as np
import pytest

from repro.core.pool import PoolManager
from repro.fdps.comm import SimComm
from repro.fdps.particles import ParticleSet, ParticleType
from repro.serve import SurrogateServer
from repro.surrogate.model import SedovBlastOracle, SNSurrogate


def _region(n=50, seed=0):
    rng = np.random.default_rng(seed)
    ps = ParticleSet.from_arrays(
        pos=rng.uniform(-25, 25, (n, 3)),
        mass=np.full(n, 1.0),
        pid=np.arange(n) + 1000 * seed,
        ptype=np.full(n, int(ParticleType.GAS)),
    )
    ps.u[:] = 25.0
    ps.h[:] = 8.0
    return ps


@pytest.fixture
def manager():
    surr = SNSurrogate(oracle=SedovBlastOracle(t_after=0.1), n_grid=8, side=60.0)
    return PoolManager(server=SurrogateServer(surrogate=surr), n_pool=4, latency_steps=5, seed=0)


def test_dispatch_assigns_round_robin(manager):
    ranks = []
    for k in range(4):
        e = manager.dispatch(_region(seed=k), np.zeros(3), star_pid=k, time=0.0, step=0)
        ranks.append(e.pool_rank)
    assert sorted(ranks) == [0, 1, 2, 3]
    assert manager.n_in_flight == 4


def test_collect_respects_latency(manager):
    manager.dispatch(_region(), np.zeros(3), star_pid=1, time=0.0, step=0)
    for step in range(5):
        assert manager.collect(step) == []
    results = manager.collect(5)
    assert len(results) == 1
    event, predicted = results[0]
    assert event.returned
    assert event.in_flight_steps == 5
    assert len(predicted) == 50


def test_prediction_preserves_ids_and_mass(manager):
    region = _region(seed=3)
    manager.dispatch(region, np.zeros(3), star_pid=2, time=0.0, step=0)
    [(event, predicted)] = manager.collect(10)
    assert np.array_equal(np.sort(predicted.pid), np.sort(region.pid))
    assert predicted.total_mass() == pytest.approx(region.total_mass())


def test_pool_node_frees_after_return(manager):
    manager.dispatch(_region(seed=0), np.zeros(3), star_pid=1, time=0.0, step=0)
    assert manager.free_pool_rank(0) == 1  # rank 0 busy
    manager.collect(5)
    assert manager.free_pool_rank(5) in (0, 1, 2, 3)
    # After latency elapsed, rank 0 is free again.
    e = manager.dispatch(_region(seed=1), np.zeros(3), star_pid=2, time=0.0, step=6)
    assert e.pool_rank is not None


def test_overflow_counted():
    surr = SNSurrogate(oracle=SedovBlastOracle(), n_grid=8, side=60.0)
    m = PoolManager(server=SurrogateServer(surrogate=surr), n_pool=2, latency_steps=10, seed=0)
    for k in range(3):  # 3 SNe, 2 pool nodes, all in one step
        m.dispatch(_region(seed=k), np.zeros(3), star_pid=k, time=0.0, step=0)
    assert m.n_overflow == 1


def test_paper_sizing_no_overflow_for_one_sn_per_step():
    # n_pool = latency = 50: one SN per step never overflows (Sec. 3.2).
    surr = SNSurrogate(oracle=SedovBlastOracle(), n_grid=8, side=60.0)
    m = PoolManager(server=SurrogateServer(surrogate=surr), n_pool=50, latency_steps=50, seed=0)
    for step in range(120):
        m.dispatch(_region(seed=step % 5), np.zeros(3), star_pid=step, time=0.0, step=step)
        m.collect(step)
    assert m.n_overflow == 0


def test_comm_traffic_counted():
    world = SimComm(1 + 2)  # 1 main + 2 pool
    surr = SNSurrogate(oracle=SedovBlastOracle(), n_grid=8, side=60.0)
    m = PoolManager(
        server=SurrogateServer(surrogate=surr), n_pool=2, latency_steps=1, seed=0, comm=world
    )
    m.dispatch(_region(), np.zeros(3), star_pid=1, time=0.0, step=0)
    m.collect(1)
    stat = world.stats["pool_p2p"]
    assert stat.n_messages == 2  # region out, prediction back
    # The ledger charges the full wire buffers: header + packed FIELDS
    # payload, both ways (50 particles x 29 float64 columns + headers).
    from repro.fdps.particles import packed_width

    expected = (12 + 50 * packed_width()) * 8 + (6 + 50 * packed_width()) * 8
    assert stat.bytes_total == expected


def test_summary(manager):
    manager.dispatch(_region(), np.zeros(3), star_pid=1, time=0.0, step=0)
    manager.collect(5)
    s = manager.summary()
    assert s["n_events"] == 1
    assert s["n_returned"] == 1
    assert s["n_in_flight"] == 0
    assert s["total_region_particles"] == 50


def test_one_pool_serves_two_main_ranks_without_double_booking():
    """Main ranks 0 and 1 dispatch through one pool in one latency window:
    distinct pool nodes, the round robin running on across ranks, and each
    request in its pool node's mailbox from the rank that sent it."""
    base, n_pool, latency = 2, 3, 5
    comm = SimComm(base + n_pool)
    surr = SNSurrogate(oracle=SedovBlastOracle(t_after=0.1), n_grid=8, side=60.0)
    pool = PoolManager(
        server=SurrogateServer(surrogate=surr), n_pool=n_pool,
        latency_steps=latency, comm=comm, pool_rank_base=base,
    )
    with pool:
        events = [
            pool.dispatch(_region(seed=k), np.zeros(3), k, 0.0, step=k, main_rank=r)
            for k, r in enumerate([0, 1, 0])
        ]
        assert [e.main_rank for e in events] == [0, 1, 0]
        assert [e.pool_rank for e in events] == [0, 1, 2]
        assert pool.free_pool_rank(2) is None         # every node booked
        assert pool.free_pool_rank(latency) == 0      # the first back first
        for e in events:
            assert comm.recv(base + e.pool_rank, src=1 - e.main_rank) is None
            assert comm.recv(base + e.pool_rank, src=e.main_rank) is not None
        # The next dispatch continues the round robin, whichever rank sends.
        late = pool.dispatch(_region(seed=3), np.zeros(3), 3, 0.0, step=latency, main_rank=0)
        assert late.pool_rank == 0 and late.handling == "pooled"
        done = pool.collect(latency + 2)
        assert [e.event_id for e, _ in done] == [e.event_id for e in events]
        # Each prediction went back to its own rank, and was drained there.
        assert all(comm.pending(r) == 0 for r in range(base))
        assert comm.stats["pool_p2p"].n_messages == 2 * len(events) + 1
