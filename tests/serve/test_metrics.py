"""ServiceMetrics export: the versioned dict, safe at any lifecycle point."""

import time

import pytest

from repro.serve.metrics import METRICS_SCHEMA_VERSION, ServiceMetrics


def _busy_metrics():
    m = ServiceMetrics()
    m.n_submitted = 6
    m.record_batch(2)
    m.record_batch(1)
    m.record_completion(0, 5)
    m.record_completion(0, 7)
    m.add_worker_busy(0, 0.4)
    m.add_worker_busy(1, 0.2)
    m.exposed_wait_s = 0.1
    m.n_worker_restarts = 1
    m.n_batch_timeouts = 1
    m.n_redispatch = 2
    return m


# ------------------------------------------------------------------ to_dict
def test_to_dict_stamps_schema_version():
    d = _busy_metrics().to_dict(max_batch=2, n_workers=2)
    assert d["schema"] == METRICS_SCHEMA_VERSION


def test_to_dict_is_json_plain():
    import json

    json.dumps(ServiceMetrics().to_dict())
    json.dumps(_busy_metrics().to_dict(max_batch=2, n_workers=2))


# ------------------------------------------------------------ lifecycle
def _at(point):
    if point == "before_any_activity":
        return ServiceMetrics()
    m = _busy_metrics()
    if point == "mid_flight":
        m.started_at = time.perf_counter() - 1.0
    else:  # a supervisor restart can reset started_at past stopped_at
        m.started_at, m.stopped_at = 100.0, 99.0
    return m


@pytest.mark.parametrize(
    "point", ["before_any_activity", "mid_flight", "after_restart_reset_window"]
)
def test_to_dict_at_any_lifecycle_point(point):
    d = _at(point).to_dict(max_batch=2, n_workers=2)
    if point == "mid_flight":
        # stopped_at unset: the utilization window ends now.
        assert 0.0 < d["worker_utilization"] <= 1.0
        assert d["n_batches"] == 2
        assert d["batch_occupancy"] == pytest.approx(1.5 / 2)
        assert d["latency_steps_p50"] == pytest.approx(6.0)
    else:
        # No window, or one a restart reset: zero, never negative.
        assert d["worker_utilization"] == 0.0
    if point == "before_any_activity":
        assert d["n_submitted"] == 0
        assert d["latency_steps_p50"] == 0.0
        assert d["degraded"] is False
