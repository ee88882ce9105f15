"""Backpressure: pool-rank exhaustion.

When every pool node is busy an SN queues on the next one and is counted;
*no SN event is ever dropped* — every dispatch yields a prediction.
"""

import numpy as np

from repro.core.pool import PoolManager
from repro.fdps.particles import ParticleSet, ParticleType
from repro.surrogate.model import SedovBlastOracle, SNSurrogate


def _region(n=30, seed=0):
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


def _manager(n_pool=2, latency=10):
    surr = SNSurrogate(oracle=SedovBlastOracle(t_after=0.1), n_grid=8, side=60.0)
    return PoolManager(surrogate=surr, n_pool=n_pool, latency_steps=latency, seed=0)


def _flood(m, n, step=0):
    return [
        m.dispatch(_region(seed=k), np.zeros(3), star_pid=k, time=0.0, step=step)
        for k in range(n)
    ]


def test_free_pool_rank_exhaustion():
    m = _manager()
    _flood(m, 2)
    assert m.free_pool_rank(0) is None          # both ranks busy
    assert m.free_pool_rank(10) is not None     # free again after latency


def test_queue_policy_counts_overflow_and_returns_everything():
    m = _manager()
    events = _flood(m, 3)
    assert m.n_overflow == 1
    assert [e.handling for e in events] == ["pooled", "pooled", "queued"]
    returned = m.collect(10)
    assert len(returned) == 3
    assert all(e.returned for e in events)


def test_no_event_dropped_under_sustained_overload():
    # 2 pool nodes, latency 4, two SNe per step for 8 steps: overloaded by
    # design.  Every event must come back.
    m = _manager(n_pool=2, latency=4)
    events = []
    step = 0
    for step in range(8):
        for j in range(2):
            events.append(
                m.dispatch(_region(seed=10 * step + j), np.zeros(3),
                           star_pid=10 * step + j, time=0.0, step=step)
            )
        m.collect(step)
    last = max(e.return_step for e in events)
    for s in range(step + 1, last + 1):
        m.collect(s)
    assert all(e.returned for e in events)
    assert m.n_in_flight == 0
    assert m.n_overflow > 0
    summary = m.summary()
    assert summary["n_returned"] == len(events)
