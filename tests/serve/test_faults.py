"""Chaos suite: injected worker faults recover bit-identically.

Every test drives a :class:`SurrogateServer` through a scripted
:class:`FaultPlan` (SIGKILL mid-flight, hang past the batch deadline,
corrupt response, raise in predict, dropped response) and asserts the
headline invariant of the fault-tolerance work: the delivered predictions
are byte-for-byte what the deterministic ``sync`` transport produces, with
the recovery visible only in the :class:`ServiceMetrics` counters — and
with every shared block the server created unlinked after close.  Every
fault loses its worker for good: the batches it held resolve inline on the
main rank, nothing is re-dispatched or restarted, and no later batch is
sent to it.
"""

from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro.serve.server
import repro.serve.shm
from repro.fdps.particles import ParticleSet, ParticleType
from repro.obs.trace import Tracer
from repro.serve import Fault, FaultPlan, SurrogateServer
from repro.surrogate.model import SedovBlastOracle, SNSurrogate
from repro.util.shm import SharedMemoryRing

#: The transports with workers to fault (``sync`` has none).
TRANSPORTS = ["shm"]

#: Per-batch deadline of the chaos runs: tests must not wait out the
#: production one.
FAST_DEADLINE_S = 2.0


@pytest.fixture(autouse=True)
def fast_deadline(monkeypatch):
    monkeypatch.setattr(repro.serve.server, "BATCH_DEADLINE_S", FAST_DEADLINE_S)


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


def _run_rounds(srv, rounds=((0, 5, 4),)):
    """Submit/collect ``rounds`` of ``(step, return_step, n_events)``.

    Event seeds/pids are globally unique across rounds so the per-event
    RNG — and therefore the prediction bytes — match between any two runs
    with the same rounds, transport-independent.
    """
    out = {}
    k0 = 0
    for step, return_step, n_events in rounds:
        for k in range(k0, k0 + n_events):
            srv.submit(
                _region(seed=k), np.zeros(3), star_pid=k,
                dispatch_step=step, return_step=return_step, base_seed=0,
            )
        k0 += n_events
        for res in srv.collect(return_step):
            out[res.event_id] = res.particles
    return out


def _reference(rounds):
    with SurrogateServer(surrogate=_surr(), transport="sync", max_batch=2) as srv:
        return _run_rounds(srv, rounds)


def _assert_bit_identical(got, reference):
    assert sorted(got) == sorted(reference)
    for eid, ref in reference.items():
        for name, arr in ref.data.items():
            assert np.array_equal(got[eid].data[name], arr), (eid, name)


def _chaos_server(transport, plan, **kw):
    return SurrogateServer(
        surrogate=_surr(), transport=transport, n_workers=2, max_batch=2,
        fault_plan=plan, **kw,
    )


@contextmanager
def recorded_blocks():
    """The names of the shared blocks the serve transport creates in this
    process while the context is open (a worker's attachments excluded)."""
    names: list[str] = []

    class Recording(SharedMemoryRing):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self._owner:
                names.append(self.name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.serve.shm, "SharedMemoryRing", Recording)
        yield names


def assert_no_block_linked(names):
    assert names, "the transport created no block"
    assert [n for n in names if (Path("/dev/shm") / n.lstrip("/")).exists()] == []


def assert_nothing_retried(m):
    assert m.n_redispatch == 0 and m.n_worker_restarts == 0


def _dispatched(tr):
    """Batch id -> the worker the server sent it to."""
    return {r.attrs["batch"]: r.attrs["worker"] for r in tr.records if r.name == "serve.dispatch"}


def assert_worker_0_lost(tr, m):
    """Worker 0 was lost once, and every batch dispatched after that went
    to worker 1."""
    assert m.n_workers_lost == 1
    serve = [r for r in tr.records if r.cat == "serve"]
    lost = [i for i, r in enumerate(serve) if r.name == "serve.worker_lost"]
    assert len(lost) == 1 and serve[lost[0]].attrs["worker"] == 0
    later = [r.attrs["worker"] for r in serve[lost[0]:] if r.name == "serve.dispatch"]
    assert later and set(later) == {1}


#: Two rounds of two batches: one for each worker, then two for whichever
#: is left.
TWO_ROUNDS = ((0, 5, 4), (6, 11, 4))


# ---------------------------------------------------------------- fault plan
def test_faultplan_parse_roundtrip():
    plan = FaultPlan.parse("kill@w0:b1, hang@w1:b2:0.5, corrupt@w0:b3")
    assert plan.faults == (
        Fault("kill", 0, 1),
        Fault("hang", 1, 2, 0.5),
        Fault("corrupt", 0, 3),
    )
    assert FaultPlan.parse(",".join(f.as_str() for f in plan.faults)) == plan
    assert [f.action for f in plan.for_worker(0)] == ["kill", "corrupt"]
    assert plan.for_worker(2) == ()


def test_faultplan_parse_rejects_garbage():
    for bad in ("explode@w0:b1", "kill@w0", "kill@wx:b1", "kill@w0:b0"):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)


def test_faultplan_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_SERVE_FAULTS", raising=False)
    assert FaultPlan.from_env() is None
    monkeypatch.setenv("REPRO_SERVE_FAULTS", "kill@w1:b2")
    assert FaultPlan.from_env() == FaultPlan((Fault("kill", 1, 2),))


# -------------------------------------------------------------- chaos: kill
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_kill_mid_flight_bit_identical_and_worker_lost(transport):
    # Two rounds: the first absorbs the kill (the lost batch resolves
    # inline), the second proves the surviving worker carries on.
    rounds = ((0, 5, 4), (6, 11, 4))
    with recorded_blocks() as blocks, _chaos_server(transport, "kill@w0:b1") as srv:
        got = _run_rounds(srv, rounds)
        m = srv.metrics
        assert m.n_workers_lost == 1
        assert m.n_fault_oracle >= 1
        assert_nothing_retried(m)
        assert not srv.degraded
    _assert_bit_identical(got, _reference(rounds))
    assert_no_block_linked(blocks)


def test_lost_worker_stays_lost():
    # Worker 0 dies on its first batch; every batch after that is sent to
    # worker 1, and nothing takes worker 0's place.
    rounds = ((0, 5, 4), (6, 11, 4), (12, 17, 4))
    tr = Tracer(run_id="lost-stays-lost")
    with recorded_blocks() as blocks, _chaos_server("shm", "kill@w0:b1", tracer=tr) as srv:
        got = _run_rounds(srv, rounds)
        m = srv.metrics
        degraded = srv.degraded
    _assert_bit_identical(got, _reference(rounds))
    assert list(_dispatched(tr).values()) == [0, 1, 1, 1, 1, 1]
    assert_worker_0_lost(tr, m)
    assert not degraded
    assert m.n_worker_restarts == 0
    assert_no_block_linked(blocks)


# -------------------------------------------------------------- chaos: hang
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_hang_past_deadline_resolves_inline(transport):
    tr = Tracer(run_id="hang")
    with recorded_blocks() as blocks, _chaos_server(
        transport, "hang@w0:b1:30.0", tracer=tr,
    ) as srv:
        got = _run_rounds(srv, TWO_ROUNDS)
        m = srv.metrics
        assert m.n_batch_timeouts == 1
        assert m.n_fault_oracle == 2
        assert_nothing_retried(m)
    assert_worker_0_lost(tr, m)             # late, so killed at the deadline
    _assert_bit_identical(got, _reference(TWO_ROUNDS))
    assert_no_block_linked(blocks)


# ----------------------------------------------------------- chaos: corrupt
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_corrupt_response_resolves_inline(transport):
    tr = Tracer(run_id="corrupt")
    with recorded_blocks() as blocks, _chaos_server(
        transport, "corrupt@w0:b1", tracer=tr,
    ) as srv:
        got = _run_rounds(srv, TWO_ROUNDS)
        m = srv.metrics
        assert m.n_fault_oracle == 2        # the whole batch, good buffers too
        assert_nothing_retried(m)
    assert_worker_0_lost(tr, m)
    _assert_bit_identical(got, _reference(TWO_ROUNDS))
    assert_no_block_linked(blocks)


# -------------------------------------------------------------- chaos: drop
def test_dropped_response_recovers_via_timeout():
    tr = Tracer(run_id="drop")
    with recorded_blocks() as blocks, _chaos_server("shm", "drop@w0:b1", tracer=tr) as srv:
        got = _run_rounds(srv, TWO_ROUNDS)
        m = srv.metrics
        assert m.n_batch_timeouts == 1
        assert m.n_fault_oracle == 2
        assert_nothing_retried(m)
    assert_worker_0_lost(tr, m)
    _assert_bit_identical(got, _reference(TWO_ROUNDS))
    # The dropped batch's block was unlinked when its worker was lost.
    assert_no_block_linked(blocks)


# ------------------------------------------- chaos: queued behind a hang
def test_a_batch_queued_behind_a_hung_one_resolves_inline_with_it():
    # Four batches in one flush, round robin: 0 and 2 to worker 0, 1 and 3
    # to worker 1.  Worker 0 hangs on batch 0 with batch 2 waiting in its
    # pipe; at batch 0's deadline it is lost with both, and both resolve
    # inline while worker 1 serves its own two.
    rounds = ((0, 5, 8),)
    tr = Tracer(run_id="queued-behind-a-hang")
    with recorded_blocks() as blocks, _chaos_server(
        "shm", "hang@w0:b1:30.0", tracer=tr,
    ) as srv:
        got = _run_rounds(srv, rounds)
        m = srv.metrics
        assert m.n_batch_timeouts == 1
        assert m.n_workers_lost == 1
        assert m.n_fault_oracle == 4
        assert m.n_worker_errors == 0
        assert_nothing_retried(m)
    _assert_bit_identical(got, _reference(rounds))
    assert _dispatched(tr) == {0: 0, 1: 1, 2: 0, 3: 1}
    lost = [r.attrs["batches"] for r in tr.records if r.name == "serve.worker_lost"]
    assert lost == [[0, 2]]
    served = {r.attrs["batch"]: r.attrs["worker"] for r in tr.records if r.name == "serve.batch"}
    assert served == {1: 1, 3: 1}
    assert_no_block_linked(blocks)


# ----------------------------------------------------- chaos: worker raises
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_raise_in_predict_resolves_inline(transport):
    tr = Tracer(run_id="raise")
    with recorded_blocks() as blocks, _chaos_server(
        transport, "raise@w0:b1", tracer=tr,
    ) as srv:
        got = _run_rounds(srv, TWO_ROUNDS)
        m = srv.metrics
        assert m.n_worker_errors == 1
        assert m.n_fault_oracle == 2
        assert_nothing_retried(m)
    assert_worker_0_lost(tr, m)
    _assert_bit_identical(got, _reference(TWO_ROUNDS))
    assert_no_block_linked(blocks)


# -------------------------------------------------------- chaos: degradation
def test_losing_the_last_worker_degrades_to_inline():
    # The only worker SIGKILLs itself on its first batch: the pool is
    # empty, every batch in flight and every later one resolves inline,
    # and the run still finishes bit-identically.
    rounds = ((0, 5, 4), (6, 11, 4))
    with recorded_blocks() as blocks, SurrogateServer(
        surrogate=_surr(), transport="shm", n_workers=1, max_batch=2,
        fault_plan="kill@w0:b1",
    ) as srv:
        got = _run_rounds(srv, rounds)
        m = srv.metrics
        assert srv.degraded and m.degraded
        assert m.n_workers_lost == 1
        assert m.n_fault_oracle == 8
        assert_nothing_retried(m)
        # Degrading unlinked every block while the server was still open.
        assert_no_block_linked(blocks)
    _assert_bit_identical(got, _reference(rounds))


# ------------------------------------------------------------ env threading
def test_env_fault_plan_reaches_workers(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_FAULTS", "raise@w0:b1")
    rounds = ((0, 5, 4),)
    with recorded_blocks() as blocks, SurrogateServer(
        surrogate=_surr(), transport="shm", n_workers=2, max_batch=2,
    ) as srv:
        got = _run_rounds(srv, rounds)
        assert srv.metrics.n_worker_errors >= 1
    _assert_bit_identical(got, _reference(rounds))
    assert_no_block_linked(blocks)
