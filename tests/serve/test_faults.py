"""Chaos suite: injected worker faults recover bit-identically.

Every test drives a :class:`SurrogateServer` through a scripted
:class:`FaultPlan` (SIGKILL mid-flight, hang past the batch deadline,
corrupt response, raise in predict, dropped response) and asserts the
headline invariant of the fault-tolerance work: the delivered predictions
are byte-for-byte what the deterministic ``sync`` transport produces, with
the recovery visible only in the :class:`ServiceMetrics` counters — and
with every ring slot back on the free stack afterwards.
"""

import time

import numpy as np
import pytest

from repro.fdps.particles import ParticleSet, ParticleType
from repro.serve import (
    Fault,
    FaultPlan,
    SupervisionConfig,
    SurrogateServer,
)
from repro.surrogate.model import SedovBlastOracle, SNSurrogate

#: The transports with workers to fault (``sync`` has none).
TRANSPORTS = ["shm"]

#: Fast-recovery knobs: tests must not wait out production timeouts.
FAST = SupervisionConfig(
    max_consecutive_failures=3,
    backoff_base_s=0.05,
    backoff_cap_s=0.2,
    batch_timeout_s=2.0,
)


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


def _await_restart(srv, deadline_s=5.0):
    """Drive supervision until the scheduled restart fires.

    The restart backoff is wall-clock; a fast machine finishes the whole
    workload inside it, and supervision only runs while the server is
    polled — without this the restart assertion races the scheduler.
    """
    deadline = time.monotonic() + deadline_s
    while srv.metrics.n_worker_restarts < 1 and time.monotonic() < deadline:
        time.sleep(0.005)
        srv.supervise()


def _assert_bit_identical(got, reference):
    assert sorted(got) == sorted(reference)
    for eid, ref in reference.items():
        for name, arr in ref.data.items():
            assert np.array_equal(got[eid].data[name], arr), (eid, name)


def _chaos_server(transport, plan, **kw):
    kw.setdefault("supervision", FAST)
    return SurrogateServer(
        surrogate=_surr(), transport=transport, n_workers=2, max_batch=2,
        shm_slots=8, fault_plan=plan, **kw,
    )


def _assert_slots_free(srv):
    assert srv._transport.n_free_slots == srv.metrics.shm_n_slots


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
def test_kill_mid_flight_bit_identical_with_restart(transport):
    # Two rounds: the first absorbs the kill (lost batch re-dispatches or
    # resolves inline), the second proves service continues; the explicit
    # supervision drain then makes the dead worker's restart observable.
    rounds = ((0, 5, 4), (6, 11, 4))
    with _chaos_server(transport, "kill@w0:b1") as srv:
        got = _run_rounds(srv, rounds)
        _await_restart(srv)
        m = srv.metrics
        assert m.n_redispatch + m.n_fault_oracle >= 1
        assert m.n_worker_restarts >= 1
        assert m.recovery_s and all(t >= 0.0 for t in m.recovery_s)
        assert not srv.degraded
    _assert_bit_identical(got, _reference(rounds))
    _assert_slots_free(srv)


# -------------------------------------------------------------- chaos: hang
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_hang_past_deadline_redispatches(transport):
    rounds = ((0, 5, 4),)
    with _chaos_server(transport, "hang@w0:b1:30.0") as srv:
        got = _run_rounds(srv, rounds)
        m = srv.metrics
        assert m.n_batch_timeouts >= 1
        assert m.n_redispatch + m.n_fault_oracle >= 1
    _assert_bit_identical(got, _reference(rounds))
    # The hung worker may still hold its (zombie) leases until close
    # terminates it — only after close must every slot be home.
    _assert_slots_free(srv)


# ----------------------------------------------------------- chaos: corrupt
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_corrupt_response_redispatches(transport):
    rounds = ((0, 5, 4),)
    with _chaos_server(transport, "corrupt@w0:b1") as srv:
        got = _run_rounds(srv, rounds)
        assert srv.metrics.n_redispatch + srv.metrics.n_fault_oracle >= 1
    _assert_bit_identical(got, _reference(rounds))
    _assert_slots_free(srv)


# -------------------------------------------------------------- chaos: drop
def test_dropped_response_recovers_via_timeout():
    rounds = ((0, 5, 4),)
    with _chaos_server("shm", "drop@w0:b1") as srv:
        got = _run_rounds(srv, rounds)
        assert srv.metrics.n_batch_timeouts >= 1
    _assert_bit_identical(got, _reference(rounds))
    # The dropped batch's leases park as zombies until the worker's next
    # claim or close; either way every slot is home afterwards.
    _assert_slots_free(srv)


# ----------------------------------------------------- chaos: worker raises
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_raise_in_predict_resolves_inline(transport):
    rounds = ((0, 5, 4),)
    with _chaos_server(transport, "raise@w0:b1") as srv:
        got = _run_rounds(srv, rounds)
        m = srv.metrics
        assert m.n_worker_errors >= 1
        assert m.n_fault_oracle >= 1      # request-dependent: no retry
    _assert_bit_identical(got, _reference(rounds))
    _assert_slots_free(srv)


# -------------------------------------------------------- chaos: degradation
def test_repeated_kills_degrade_to_inline_and_finish():
    # A single worker whose every incarnation SIGKILLs itself on its first
    # claim: the supervisor restarts it until max_consecutive_failures,
    # then abandons the pool; the run must still finish bit-identically.
    rounds = ((0, 5, 4), (6, 11, 4))
    supervision = SupervisionConfig(
        max_consecutive_failures=2,
        backoff_base_s=0.02,
        backoff_cap_s=0.05,
        batch_timeout_s=2.0,
    )
    with SurrogateServer(
        surrogate=_surr(), transport="shm", n_workers=1, max_batch=2,
        shm_slots=8, fault_plan="kill@w0:b1", supervision=supervision,
    ) as srv:
        got = _run_rounds(srv, rounds)
        m = srv.metrics
        assert srv.degraded and m.degraded
        assert m.n_worker_restarts >= 1
        assert m.n_fault_oracle >= 1
        # Degrading took back every lease while the server was still open.
        _assert_slots_free(srv)
    _assert_bit_identical(got, _reference(rounds))
    _assert_slots_free(srv)


# ------------------------------------------------------------ env threading
def test_env_fault_plan_reaches_workers(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_FAULTS", "raise@w0:b1")
    rounds = ((0, 5, 4),)
    with SurrogateServer(
        surrogate=_surr(), transport="shm", n_workers=2, max_batch=2,
        shm_slots=8, supervision=FAST,
    ) as srv:
        got = _run_rounds(srv, rounds)
        assert srv.metrics.n_worker_errors >= 1
    _assert_bit_identical(got, _reference(rounds))
    _assert_slots_free(srv)
