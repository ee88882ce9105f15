"""Exporter round-trips: JSONL streams and Chrome/Perfetto trace JSON."""

import json

import pytest

from repro.obs.export import (
    JSONL_SCHEMA_VERSION,
    load_jsonl,
    load_run,
    to_chrome_trace,
    trace_path,
    write_chrome_trace,
    write_jsonl,
    write_run,
)
from repro.obs.trace import Tracer


def _traced(rank=0):
    tr = Tracer(rank=rank, run_id="round-trip")
    with tr.span("step", cat="sim", step=0):
        with tr.span("gravity", cat="sim", backend="numpy"):
            pass
    tr.span_at("pool_p2p", 0.1, 0.02, cat="comm", bytes=256, messages=1,
               critical_bytes=256)
    tr.instant("serve.dispatch", cat="serve", tid="main", batch=0)
    tr.count("sn_events", 2)
    tr.gauge("queue_depth", 4)
    tr.attach_meta("service_metrics", {"schema": 1, "n_completed": 2})
    return tr


def test_jsonl_round_trip(tmp_path):
    tr = _traced(rank=3)
    path = write_jsonl(tr, tmp_path / "t.jsonl")
    loaded = load_jsonl(path)
    assert loaded.run_id == "round-trip"
    assert loaded.rank == 3
    assert loaded.schema == JSONL_SCHEMA_VERSION
    assert len(loaded.records) == len(tr.records)
    for got, want in zip(loaded.records, tr.records):
        assert got.name == want.name
        assert got.cat == want.cat
        assert got.rank == want.rank
        assert got.tid == want.tid
        assert got.depth == want.depth
        assert got.attrs == want.attrs
        assert got.t0 == pytest.approx(want.t0)
        assert got.dur == pytest.approx(want.dur)
    assert loaded.counters == {"sn_events": 2.0}
    assert loaded.gauges == {"queue_depth": 4.0}
    assert loaded.meta["service_metrics"] == {"schema": 1, "n_completed": 2}


def test_first_line_is_versioned_meta(tmp_path):
    path = write_jsonl(_traced(), tmp_path / "t.jsonl")
    first = json.loads(path.read_text().splitlines()[0])
    assert first["type"] == "meta"
    assert first["schema"] == JSONL_SCHEMA_VERSION


def test_write_run_uses_canonical_rank_paths(tmp_path):
    assert write_run(_traced(rank=2), tmp_path) == trace_path(tmp_path, 2)
    assert (tmp_path / "trace-rank2.jsonl").exists()


def test_load_run_directory_sorts_by_rank(tmp_path):
    write_run(_traced(rank=1), tmp_path)
    write_run(_traced(rank=0), tmp_path)
    traces = load_run(tmp_path)
    assert [t.rank for t in traces] == [0, 1]


def test_load_run_single_file_and_missing_dir(tmp_path):
    path = write_jsonl(_traced(), tmp_path / "solo.jsonl")
    assert len(load_run(path)) == 1
    with pytest.raises(FileNotFoundError):
        load_run(tmp_path / "empty-dir-without-streams")


def test_chrome_trace_events(tmp_path):
    tr = _traced(rank=1)
    doc = to_chrome_trace([load_jsonl(write_jsonl(tr, tmp_path / "t.jsonl"))])
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert any(e["name"] == "process_name"
               and e["args"]["name"] == "rank 1" for e in meta)
    assert all(e["pid"] == 1 for e in complete + instants)
    # Timestamps are microseconds; attrs ride in args.
    comm = next(e for e in complete if e["name"] == "pool_p2p")
    assert comm["ts"] == pytest.approx(0.1 * 1e6)
    assert comm["dur"] == pytest.approx(0.02 * 1e6)
    assert comm["args"]["bytes"] == 256
    assert any(e["name"] == "serve.dispatch" for e in instants)
    json.dumps(doc)  # the whole document must be JSON-serializable


def test_chrome_trace_names_every_simulated_rank_and_lane():
    """Simulated ranks record on one tracer (the ``rank=`` override): each
    rank the events use is a named process, each lane a named thread."""
    from repro.fdps.distributed import DistributedGravity
    from repro.ic.galaxy import make_mw_mini

    tr = Tracer(run_id="two-ranks")
    DistributedGravity(n_ranks=2, tracer=tr).global_accel(make_mw_mini(1500, seed=1))
    events = to_chrome_trace(tr)["traceEvents"]
    used = [e for e in events if e["ph"] != "M"]
    processes = {e["pid"] for e in events if e["name"] == "process_name"}
    lanes = {(e["pid"], e["tid"]) for e in events if e["name"] == "thread_name"}
    assert {e["pid"] for e in used} == processes == {0, 1}
    assert {(e["pid"], e["tid"]) for e in used} == lanes


def test_chrome_trace_accepts_live_tracer(tmp_path):
    out = write_chrome_trace(_traced(), tmp_path / "chrome.json")
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
