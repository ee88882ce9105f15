"""Shared-memory transport: ring mechanics, parity, block lifetime."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro.serve.server
import repro.serve.shm
from repro.fdps.particles import ParticleSet, ParticleType
from repro.perf.costmodel import serve_summary
from repro.serve import SurrogateServer
from repro.surrogate.model import SedovBlastOracle, SNSurrogate
from repro.util.shm import SharedMemoryRing
from tests.serve.test_faults import assert_no_block_linked, recorded_blocks

N_WORKERS = 2


def _region(n=40, seed=0):
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


def _surr():
    return SNSurrogate(oracle=SedovBlastOracle(t_after=0.1), n_grid=8, side=60.0)


def _submit(server, k, step=0, return_step=5):
    return server.submit(
        _region(seed=k), np.zeros(3), star_pid=k,
        dispatch_step=step, return_step=return_step, base_seed=0,
    )


def _reference(n_events, return_step=5):
    out = {}
    with SurrogateServer(surrogate=_surr(), transport="sync", max_batch=2) as srv:
        for k in range(n_events):
            _submit(srv, k, return_step=return_step)
        for res in srv.collect(return_step):
            out[res.event_id] = res.particles
    return out


def _assert_equal(particles, reference):
    for name, arr in reference.data.items():
        assert np.array_equal(particles.data[name], arr), name


# ------------------------------------------------------------------- the ring
def test_ring_write_and_view_roundtrip():
    ring = SharedMemoryRing(n_slots=4, slot_floats=16)
    try:
        buf = np.arange(10, dtype=np.float64)
        assert ring.write(2, buf) == 10
        assert np.array_equal(ring.slot(2, 10), buf)
        # a second mapping of the same segment sees the bytes (zero-copy)
        other = SharedMemoryRing(n_slots=4, slot_floats=16, name=ring.name)
        assert np.array_equal(other.slot(2, 10), buf)
        other.slot(2)[0] = -1.0
        assert ring.slot(2, 1)[0] == -1.0
        other.close()
    finally:
        ring.close()


def test_ring_close_is_idempotent_and_unlinks():
    ring = SharedMemoryRing(n_slots=1, slot_floats=8)
    name = ring.name
    ring.close()
    ring.close()
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_ring_validates_geometry():
    with pytest.raises(ValueError):
        SharedMemoryRing(n_slots=0, slot_floats=8)
    with pytest.raises(ValueError):
        SharedMemoryRing(n_slots=2, slot_floats=0)


# ------------------------------------------------------------------ transport
def test_shm_bit_identical_to_sync():
    reference = _reference(5)
    with SurrogateServer(
        surrogate=_surr(), transport="shm", n_workers=N_WORKERS, max_batch=2
    ) as srv:
        for k in range(5):
            _submit(srv, k)
        srv.tick(0)
        results = srv.collect(5)
        assert len(results) == 5
        for res in results:
            _assert_equal(res.particles, reference[res.event_id])
        assert srv.metrics.n_shm_fallback == 0


def test_shm_collect_all_drains_outstanding():
    with recorded_blocks() as blocks, SurrogateServer(
        surrogate=_surr(), transport="shm", n_workers=N_WORKERS, max_batch=8
    ) as srv:
        for k in range(3):
            _submit(srv, k, return_step=100)
        out = srv.collect_all()
        assert len(out) == 3
        assert srv.n_outstanding == 0
    assert_no_block_linked(blocks)


def test_shm_metrics_and_summary():
    with SurrogateServer(
        surrogate=_surr(), transport="shm", n_workers=1, max_batch=2
    ) as srv:
        for k in range(4):
            _submit(srv, k)
        srv.collect(5)
        m = srv.metrics_dict()
        summary = serve_summary(m)
    assert m["n_completed"] == 4
    assert m["n_shm_slot"] == 4
    assert m["n_shm_fallback"] == 0
    assert m["bytes_in"] > 0 and m["bytes_out"] > 0
    assert summary["shm_zero_copy_fraction"] == 1.0
    assert summary["transport_bytes"] == m["bytes_in"] + m["bytes_out"]


_FRESH_SERVER = """
import numpy as np
from repro.serve import SurrogateServer
from tests.serve.test_shm import _submit, _surr

with SurrogateServer(surrogate=_surr(), transport="shm", n_workers=1) as srv:
    for k in range(3):
        _submit(srv, k)
    assert len(srv.collect(5)) == 3
"""


def test_shm_workers_share_the_parent_resource_tracker():
    """In a fresh process the workers fork before the first block exists.
    They must still share the parent's resource tracker: one of their own
    would warn about, and unlink, the parent's blocks when a worker exits."""
    root = os.path.join(os.path.dirname(__file__), "..", "..")
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_SERVER],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"), root])},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert "resource_tracker" not in out.stderr


def test_shm_close_is_idempotent():
    srv = SurrogateServer(surrogate=_surr(), transport="shm", n_workers=1)
    _submit(srv, 0)
    srv.collect(5)
    srv.close()
    srv.close()


def test_shm_worker_exception_propagates_and_frees_slots():
    with recorded_blocks() as blocks, SurrogateServer(
        surrogate=_surr(), transport="shm", n_workers=1, max_batch=1
    ) as srv:
        request = _submit(srv, 0)
        # Corrupt the queued wire buffer's magic: the worker's decode fails
        # and the failure must come back as an exception, not a hang.
        request.to_buffer()[0] = -1.0
        with pytest.raises(RuntimeError, match="serve worker"):
            srv.collect(5)
        # The exception row unlinked the batch's block at once.
        assert_no_block_linked(blocks)


def test_ring_slot_validates_index_and_nfloats():
    ring = SharedMemoryRing(n_slots=4, slot_floats=16)
    try:
        for bad_index in (4, -1, 100):
            with pytest.raises(ValueError, match="slot index"):
                ring.slot(bad_index)
        for bad_nfloats in (0, -3, 17):
            with pytest.raises(ValueError, match="payload length"):
                ring.slot(0, bad_nfloats)
        assert ring.slot(0, 16).size == 16
    finally:
        ring.close()
    with pytest.raises(ValueError):
        ring.slot(0)


def _overlong(surrogate, block, sizes):
    return [block.slot_floats + 1 for _ in sizes]


def _short(surrogate, block, sizes, _serve=repro.serve.shm.serve_batch_in_place):
    return _serve(surrogate, block, sizes)[:-1]


def test_a_reply_longer_than_its_slot_loses_the_worker_and_unlinks_the_block(monkeypatch):
    # The worker (which inherits the patch at the fork) reports a response
    # one float longer than its slot, so the copy-out on main raises.
    _assert_bad_reply_loses_the_worker(monkeypatch, _overlong)


def test_a_reply_short_of_its_slots_loses_the_worker_and_unlinks_the_block(monkeypatch):
    # The worker lists one response length fewer than the block has slots,
    # so one event would never resolve.  A low progress timeout makes that
    # fail fast instead of after WORKER_TIMEOUT_S.
    monkeypatch.setattr(repro.serve.server, "WORKER_TIMEOUT_S", 5.0)
    _assert_bad_reply_loses_the_worker(monkeypatch, _short)


def _assert_bad_reply_loses_the_worker(monkeypatch, reply):
    """The worker is lost, the batch resolves inline bit-identically, and
    the block is unlinked all the same."""
    monkeypatch.setattr(repro.serve.shm, "serve_batch_in_place", reply)
    with recorded_blocks() as blocks, SurrogateServer(
        surrogate=_surr(), transport="shm", n_workers=1, max_batch=2
    ) as srv:
        _submit(srv, 0)
        _submit(srv, 1)
        got = {res.event_id: res.particles for res in srv.collect(5)}
        assert srv.metrics.n_workers_lost == 1 and srv.degraded
        assert srv.metrics.n_fault_oracle == 2
        assert_no_block_linked(blocks)
    reference = _reference(2)
    assert sorted(got) == sorted(reference)
    for eid, ref in reference.items():
        _assert_equal(got[eid], ref)
