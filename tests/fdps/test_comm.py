"""Simulated MPI: delivery semantics, torus metric, 3D alltoallv equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdps.comm import SimComm, TorusTopology


def _random_send_matrix(p, rng, empty_prob=0.3):
    send = [[None] * p for _ in range(p)]
    for s in range(p):
        for d in range(p):
            if rng.uniform() > empty_prob:
                send[s][d] = rng.normal(size=rng.integers(1, 20)).astype(np.float64)
    return send


def test_alltoallv_transposes():
    p = 4
    comm = SimComm(p)
    send = [[np.array([float(s * 10 + d)]) for d in range(p)] for s in range(p)]
    recv = comm.alltoallv(send, label="alltoallv")
    for d in range(p):
        for s in range(p):
            assert recv[d][s][0] == s * 10 + d


def test_alltoallv_none_passthrough():
    comm = SimComm(2)
    send = [[None, np.ones(3)], [None, None]]
    recv = comm.alltoallv(send, label="alltoallv")
    assert recv[1][0].sum() == 3.0
    assert recv[0][0] is None and recv[0][1] is None


def test_torus_hops_wraparound():
    topo = TorusTopology((4, 4, 4))
    a = topo.rank((0, 0, 0))
    b = topo.rank((3, 0, 0))
    assert topo.hops(a, b) == 1  # wraps around
    c = topo.rank((2, 2, 2))
    assert topo.hops(a, c) == 6


def test_torus_coords_roundtrip():
    topo = TorusTopology((3, 4, 5))
    for r in range(topo.n_ranks):
        assert topo.rank(topo.coords(r)) == r


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2), (4, 1, 2)])
def test_3d_alltoallv_matches_flat(dims):
    topo = TorusTopology(dims)
    p = topo.n_ranks
    rng = np.random.default_rng(p)
    comm = SimComm(p, topology=topo)
    send = _random_send_matrix(p, rng)
    flat = SimComm(p, topology=topo).alltoallv(send, label="alltoallv")
    routed = comm.alltoallv_3d(send, label="alltoallv_3d")
    for d in range(p):
        for s in range(p):
            if flat[d][s] is None:
                assert routed[d][s] is None
            else:
                assert np.array_equal(flat[d][s], routed[d][s])


@given(st.integers(2, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_3d_alltoallv_delivery_property(qx, qy, qz, seed):
    topo = TorusTopology((qx, qy, qz))
    p = topo.n_ranks
    rng = np.random.default_rng(seed)
    comm = SimComm(p, topology=topo)
    send = _random_send_matrix(p, rng, empty_prob=0.5)
    routed = comm.alltoallv_3d(send, label="alltoallv_3d")
    for d in range(p):
        for s in range(p):
            ref = send[s][d]
            if ref is None:
                assert routed[d][s] is None
            else:
                assert np.array_equal(routed[d][s], ref)


def test_3d_alltoallv_fewer_peers_per_phase():
    # The point of the algorithm: per-rank peer count per phase is the line
    # length (p^{1/3}), so total distinct messages shrink vs flat all-to-all.
    topo = TorusTopology((4, 4, 4))
    p = topo.n_ranks
    send = [
        [np.ones(4) if s != d else None for d in range(p)] for s in range(p)
    ]
    flat_comm = SimComm(p, topology=topo)
    flat_comm.alltoallv(send, label="alltoallv")
    torus_comm = SimComm(p, topology=topo)
    torus_comm.alltoallv_3d(send, label="alltoallv_3d")
    flat_msgs = flat_comm.stats["alltoallv"].n_messages
    routed_msgs = torus_comm.stats["alltoallv_3d"].n_messages
    assert flat_msgs == p * (p - 1)
    # 3 phases x p ranks x (q-1) peers = 3 * 64 * 3 = 576 < 4032.
    assert routed_msgs <= 3 * p * (max(topo.dims) - 1)
    assert routed_msgs < flat_msgs


def test_stats_byte_accounting():
    comm = SimComm(2)
    send = [[None, np.zeros(10)], [np.zeros(5), None]]
    comm.alltoallv(send, label="alltoallv")
    st_ = comm.stats["alltoallv"]
    assert st_.bytes_total == 15 * 8
    assert st_.n_messages == 2
    assert st_.max_bytes_per_rank == 80


def test_p2p_send_recv_tags():
    comm = SimComm(3)
    comm.send(0, 2, np.array([1.0]), tag=7, label="p2p")
    comm.send(1, 2, np.array([2.0]), tag=9, label="p2p")
    assert comm.recv(2, tag=9)[0] == 2.0
    assert comm.recv(2, src=0)[0] == 1.0
    assert comm.recv(2) is None
    assert comm.pending(2) == 0


def test_allreduce_sum():
    comm = SimComm(3)
    vals = [np.array([1.0, 2.0]), np.array([10.0, 20.0]), np.array([100.0, 200.0])]
    out = comm.allreduce_sum(vals, label="allreduce")
    assert np.array_equal(out, [111.0, 222.0])


@pytest.mark.parametrize("call", [
    lambda c, m: c.send(0, 1, m[0][1]),
    lambda c, m: c.alltoallv(m),
    lambda c, m: c.alltoallv_3d(m),
    lambda c, m: c.allgather([m[0][1], m[1][0]]),
    lambda c, m: c.allreduce_sum([m[0][1], m[1][0]]),
], ids=["send", "alltoallv", "alltoallv_3d", "allgather", "allreduce_sum"])
def test_every_ledger_call_requires_a_label_keyword(call):
    # No default row: a call that names none fails before it moves a byte.
    comm = SimComm(2, topology=TorusTopology((2, 1, 1)))
    send = [[None, np.ones(2)], [np.ones(2), None]]
    with pytest.raises(TypeError, match="label"):
        call(comm, send)
    assert comm.stats == {} and comm.pending(1) == 0
