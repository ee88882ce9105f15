"""Chaos tracing: recovery spans line up with the ServiceMetrics counters.

A killed worker leaves a visible trail — ``serve.worker_lost`` /
``serve.inline_recovery`` span events — and
every one of those trails must agree, count for count, with the
:class:`~repro.serve.metrics.ServiceMetrics` ledger the fault-tolerance
suite asserts on.  One story, two witnesses.
"""

import pytest

import repro.serve.server
from repro.obs.export import write_run
from repro.obs.report import report_run
from repro.obs.trace import Tracer
from repro.serve import SurrogateServer
from tests.serve.test_faults import (
    FAST_DEADLINE_S, _chaos_server, _run_rounds, _surr, assert_no_block_linked,
    recorded_blocks,
)


def _spans(tr, name):
    return [r for r in tr.records if r.name == name and r.cat == "serve"]


@pytest.fixture(scope="module")
def chaos_trace():
    """One killed-worker run: (tracer, final metrics, server knobs)."""
    tr = Tracer(run_id="chaos")
    rounds = ((0, 5, 4), (6, 11, 4))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.serve.server, "BATCH_DEADLINE_S", FAST_DEADLINE_S)
        with recorded_blocks() as blocks, _chaos_server(
            "shm", "kill@w0:b1", tracer=tr,
        ) as srv:
            _run_rounds(srv, rounds)
            metrics = srv.metrics
            tr.attach_meta("service_metrics", metrics.to_dict(
                max_batch=srv.scheduler.max_batch, n_workers=srv.n_workers,
            ))
    assert_no_block_linked(blocks)
    return tr, metrics


def test_recovery_spans_match_metrics_counters(chaos_trace):
    tr, m = chaos_trace
    lost = _spans(tr, "serve.worker_lost")
    assert len(lost) == m.n_workers_lost == 1   # the kill actually happened
    assert lost[0].attrs["worker"] == 0
    assert "died" in lost[0].attrs["cause"]
    # Inline fallbacks resolve whole batches; their event counts sum to the
    # oracle counter exactly.
    inline = _spans(tr, "serve.inline_recovery")
    assert sum(r.attrs["events"] for r in inline) == m.n_fault_oracle >= 1
    assert m.n_redispatch == m.n_worker_restarts == 0


def test_dispatch_spans_equal_flushed_batches(chaos_trace):
    tr, m = chaos_trace
    # One instant per transport dispatch, one per scheduler flush: a lost
    # batch is never dispatched again.
    assert len(_spans(tr, "serve.dispatch")) == m.n_batches


def test_exposed_wait_spans_sum_to_metric(chaos_trace):
    tr, m = chaos_trace
    waits = _spans(tr, "serve.exposed_wait")
    assert waits  # collect() blocked at least once
    assert sum(r.dur for r in waits) == pytest.approx(m.exposed_wait_s)


def test_batch_spans_ride_worker_lanes(chaos_trace):
    tr, _m = chaos_trace
    batches = _spans(tr, "serve.batch")
    assert batches
    assert all(r.tid.startswith("worker-") or r.tid == "inline"
               for r in batches)
    assert all(r.dur >= 0.0 for r in batches)
    # Every batch is sent to a worker, which its batch span's lane names.
    sent = {r.attrs["batch"]: r.attrs["worker"] for r in _spans(tr, "serve.dispatch")}
    assert set(sent.values()) <= {0, 1}
    assert all(r.tid == f"worker-{sent[r.attrs['batch']]}" for r in batches)


def test_shm_transport_traces_zero_copy_encode():
    tr = Tracer(run_id="shm")
    with SurrogateServer(
        surrogate=_surr(), transport="shm", n_workers=2, max_batch=2, tracer=tr,
    ) as srv:
        _run_rounds(srv)
        m = srv.metrics
    encodes = _spans(tr, "serve.shm.encode")
    assert encodes
    # The slot attrs sum to the transport counter exactly; nothing falls back.
    assert sum(r.attrs["slots"] for r in encodes) == m.n_shm_slot
    assert m.n_shm_fallback == 0


def test_chaos_report_carries_recovery_story(chaos_trace, tmp_path):
    tr, m = chaos_trace
    write_run(tr, tmp_path)
    report = report_run(tmp_path)
    assert "serve.exposed_wait" in report.serve_spans
    # The attached versioned metrics price into the hidden/exposed summary
    # (exposed = inline time + blocking wait, capped at actual worker time).
    assert report.serve_summary
    expected_exposed = m.inline_predict_s + min(
        m.exposed_wait_s, sum(m.worker_busy_s.values())
    )
    assert report.serve_summary["inference_exposed_s"] == pytest.approx(
        expected_exposed
    )
    text = report.to_text()
    assert "surrogate serving" in text
    assert "overlap efficiency" in text
