"""Tracer core: spans, nesting, the disabled tracer, counters, rank override."""

import time

import pytest

from repro.obs.trace import Tracer


def test_span_records_name_cat_attrs():
    tr = Tracer(rank=2, run_id="r")
    with tr.span("gravity", cat="sim", step=7, backend="numpy"):
        pass
    [rec] = tr.records
    assert rec.name == "gravity"
    assert rec.cat == "sim"
    assert rec.rank == 2
    assert rec.attrs == {"step": 7, "backend": "numpy"}
    assert rec.dur >= 0.0
    assert rec.t0 >= 0.0


def test_spans_nest_with_depth():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    inner, outer = tr.records  # inner closes (and records) first
    assert inner.name == "inner" and inner.depth == 1
    assert outer.name == "outer" and outer.depth == 0
    # Nesting containment: inner lies within outer's interval.
    assert outer.t0 <= inner.t0
    assert inner.t0 + inner.dur <= outer.t0 + outer.dur + 1e-9
    # A handle that is never opened records nothing and shifts no depth.
    with tr.span("outer"):
        tr.span("never")
        assert tr._stack == ["outer"]
        with tr.span("inner"):
            pass
    tr.span("never")
    assert tr._stack == []
    assert [(r.name, r.depth) for r in tr.records] == [
        ("inner", 1), ("outer", 0), ("inner", 1), ("outer", 0)]
    assert "never" not in tr.totals()


def test_span_records_on_exception_and_stack_unwinds():
    tr = Tracer()
    with pytest.raises(ValueError):
        with tr.span("boom"):
            raise ValueError("x")
    [rec] = tr.records
    assert rec.name == "boom"
    assert tr._stack == []


def test_span_set_attaches_attrs_while_open():
    tr = Tracer()
    with tr.span("op") as sp:
        sp.set(bytes=128)
    assert tr.records[0].attrs["bytes"] == 128


def test_rank_keyword_overrides_record_rank():
    tr = Tracer(rank=0)
    with tr.span("phase", rank=3):
        pass
    tr.span_at("done", 0.0, 0.1, rank=5)
    assert tr.records[0].rank == 3
    assert tr.records[1].rank == 5
    # The override is consumed, not duplicated into attrs.
    assert "rank" not in tr.records[0].attrs
    assert "rank" not in tr.records[1].attrs


def test_span_at_and_instant():
    tr = Tracer()
    tr.span_at("batch", 1.0, 0.5, cat="serve", tid="worker-1", events=4)
    tr.instant("dispatch", cat="serve", batch=9)
    batch, inst = tr.records
    assert (batch.t0, batch.dur, batch.tid) == (1.0, 0.5, "worker-1")
    assert inst.dur == 0.0
    assert inst.attrs == {"batch": 9}


def test_now_is_monotonic_epoch_relative():
    tr = Tracer()
    a = tr.now()
    time.sleep(0.002)
    b = tr.now()
    assert 0.0 <= a < b < 60.0


def test_counters_accumulate_and_gauges_keep_last():
    tr = Tracer()
    tr.count("sn_events")
    tr.count("sn_events", 2)
    tr.gauge("queue_depth", 5)
    tr.gauge("queue_depth", 3)
    assert tr.counters == {"sn_events": 3.0}
    assert tr.gauges == {"queue_depth": 3.0}


def test_attach_meta_last_write_wins():
    tr = Tracer()
    tr.attach_meta("service_metrics", {"a": 1})
    tr.attach_meta("service_metrics", {"b": 2})
    assert tr.meta == {"service_metrics": {"b": 2}}


def test_totals_sums_per_name_and_filters_cat():
    tr = Tracer()
    with tr.span("a", cat="sim"):
        pass
    with tr.span("a", cat="sim"):
        pass
    tr.span_at("x", 0.0, 2.0, cat="comm")
    totals = tr.totals()
    assert set(totals) == {"a", "x"}
    assert tr.totals(cat="comm") == {"x": 2.0}
    assert tr.totals(cat="sim").keys() == {"a"}


def test_disabled_tracer_keeps_only_span_sums():
    tr = Tracer(enabled=False)
    assert tr.enabled is False
    with tr.span("anything", cat="serve", bytes=1) as sp:
        sp.set(more=2)
    tr.span_at("x", 0.0, 1.0, rank=3)
    tr.instant("y")
    tr.count("c")
    tr.gauge("g", 1.0)
    tr.attach_meta("k", {})
    assert (tr.records, tr.counters, tr.gauges, tr.meta) == ([], {}, {}, {})
    assert tr._stack == []
    assert tr.totals(cat="serve").keys() == {"anything"}
    assert tr.totals(rank=3) == {"x": 1.0}
    assert tr.counts() == {"anything": 1, "x": 1, "y": 1}


def test_disabled_tracer_totals_are_the_enabled_tracers_record_sums():
    """The same spans on both kinds of tracer: a disabled tracer's sums are
    the per-name sums of an enabled tracer's records, and the enabled
    tracer's own sums are too."""
    enabled, disabled = Tracer(), Tracer(enabled=False)
    for tr in (enabled, disabled):
        for k in range(5):
            tr.span_at("Calc_Force", 0.1 * k, 0.01 * (k + 1), rank=k % 2)
            tr.span_at("Exchange_LET", 0.1 * k, 0.003, cat="sim")
            tr.span_at("pool_p2p", 0.1 * k, 0.002 * k, cat="comm")
    sums, counts = {}, {}
    for rec in enabled.records:
        sums[rec.name] = sums.get(rec.name, 0.0) + rec.dur
        counts[rec.name] = counts.get(rec.name, 0) + 1
    for tr in (enabled, disabled):
        assert tr.totals().keys() == sums.keys()
        for name, seconds in sums.items():
            assert tr.totals()[name] == pytest.approx(seconds, rel=1e-12)
        assert tr.counts() == counts
    assert disabled.totals(rank=1) == pytest.approx({"Calc_Force": 0.02 + 0.04})
    assert disabled.counts(cat="sim", rank=0) == {"Calc_Force": 3, "Exchange_LET": 5}


def test_tracing_leaves_the_particle_state_unchanged():
    """An enabled tracer reads clocks, never physics: three steps of a small
    galaxy end byte-equal with and without one."""
    from repro import GalaxySimulation, make_mw_mini

    states = []
    for tracer in (None, Tracer()):
        with GalaxySimulation(make_mw_mini(900, seed=3), dt=2e-3, tracer=tracer) as sim:
            sim.run(3)
            states.append(sim.ps.pack().tobytes())
    assert len(sim.tracer.records) > 3 * 5  # the traced run did record spans
    assert states[0] == states[1]
