"""PoolManager and SimComm validation paths and edge cases."""

import numpy as np
import pytest

from repro.core.pool import PoolManager
from repro.fdps.comm import SimComm, TorusTopology
from repro.serve import SurrogateServer
from repro.surrogate.model import SedovBlastOracle, SNSurrogate


def _surr():
    return SNSurrogate(oracle=SedovBlastOracle(), n_grid=8, side=60.0)


def test_pool_rejects_zero_nodes():
    with pytest.raises(ValueError):
        PoolManager(server=SurrogateServer(surrogate=_surr()), n_pool=0)


def test_pool_rejects_undersized_communicator():
    with pytest.raises(ValueError):
        PoolManager(server=SurrogateServer(surrogate=_surr()), n_pool=4, comm=SimComm(3))


def test_comm_rejects_zero_ranks():
    with pytest.raises(ValueError):
        SimComm(0)


def test_comm_rejects_mismatched_topology():
    with pytest.raises(ValueError):
        SimComm(5, topology=TorusTopology((2, 2, 2)))


def test_alltoallv_validates_matrix_shape():
    comm = SimComm(3)
    with pytest.raises(ValueError):
        comm.alltoallv([[None] * 3] * 2, label="alltoallv")  # wrong row count
    with pytest.raises(ValueError):
        comm.alltoallv([[None] * 2] * 3, label="alltoallv")  # wrong row length


def test_alltoallv_3d_requires_topology():
    comm = SimComm(8)
    with pytest.raises(RuntimeError):
        comm.alltoallv_3d([[None] * 8 for _ in range(8)], label="alltoallv_3d")


def test_stats_reset():
    comm = SimComm(2)
    comm.alltoallv([[None, np.ones(2)], [None, None]], label="alltoallv")
    assert comm.stats
    comm.reset_stats()
    assert not comm.stats


def test_allgather_delivers_everything():
    comm = SimComm(3)
    vals = [np.full(2, float(r)) for r in range(3)]
    out = comm.allgather(vals, label="allgather")
    for dst in range(3):
        for src in range(3):
            assert np.all(out[dst][src] == src)
