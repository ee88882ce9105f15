"""Trace exporters and loaders: per-rank JSONL and Chrome/Perfetto JSON.

The on-disk run layout is one directory per run containing one
``trace-rank<r>.jsonl`` stream per rank (single-rank runs write exactly
one).  Each line is a self-describing JSON object:

========= ==============================================================
``type``  contents
========= ==============================================================
meta      ``run_id``, ``rank``, ``schema`` — always the first line
span      one :class:`~repro.obs.trace.SpanRecord` (``name``, ``cat``,
          ``t0``, ``dur``, ``rank``, ``tid``, ``depth``, ``attrs``)
counters  the tracer's accumulated counters (one line per stream)
gauges    last-value gauges (one line per stream)
attach    one attached meta blob (``key`` + ``values``), e.g. the serve
          pipeline's ``service_metrics``
========= ==============================================================

``to_chrome_trace`` renders the same records as a Chrome Trace Event JSON
(open in Perfetto — https://ui.perfetto.dev — or ``chrome://tracing``):
complete events (``ph: "X"``) with ``pid`` = rank and ``tid`` = the span's
thread lane ("main", "worker-0", ...), microsecond timestamps, span attrs
in ``args``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.trace import SpanRecord, Tracer

__all__ = [
    "JSONL_SCHEMA_VERSION",
    "LoadedTrace",
    "load_jsonl",
    "load_run",
    "to_chrome_trace",
    "trace_path",
    "write_chrome_trace",
    "write_jsonl",
    "write_run",
]

#: Version stamp written into every stream's meta line; bump on any
#: incompatible change to the line shapes above.
JSONL_SCHEMA_VERSION = 1


def trace_path(run_dir: str | Path, rank: int = 0) -> Path:
    """Canonical per-rank stream path inside a run directory."""
    return Path(run_dir) / f"trace-rank{int(rank)}.jsonl"


def write_jsonl(tracer: Tracer, path: str | Path) -> Path:
    """Write one tracer's records as a JSONL stream; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps({
        "type": "meta",
        "schema": JSONL_SCHEMA_VERSION,
        "run_id": tracer.run_id,
        "rank": tracer.rank,
    })]
    lines.extend(json.dumps(rec.to_json_obj()) for rec in tracer.records)
    if tracer.counters:
        lines.append(json.dumps({"type": "counters", "values": tracer.counters}))
    if tracer.gauges:
        lines.append(json.dumps({"type": "gauges", "values": tracer.gauges}))
    for key, values in tracer.meta.items():
        lines.append(json.dumps({"type": "attach", "key": key, "values": values}))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_run(tracer: Tracer, run_dir: str | Path) -> Path:
    """Write a single-tracer run directory; returns the stream path."""
    return write_jsonl(tracer, trace_path(run_dir, tracer.rank))


class LoadedTrace:
    """One parsed JSONL stream: records + counters/gauges/meta."""

    def __init__(self) -> None:
        self.run_id: str = "run"
        self.rank: int = 0
        self.schema: int = JSONL_SCHEMA_VERSION
        self.records: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.meta: dict[str, dict] = {}


def load_jsonl(path: str | Path) -> LoadedTrace:
    """Parse one stream back into records (inverse of :func:`write_jsonl`)."""
    out = LoadedTrace()
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.get("type")
            if kind == "meta":
                out.run_id = obj.get("run_id", "run")
                out.rank = int(obj.get("rank", 0))
                out.schema = int(obj.get("schema", JSONL_SCHEMA_VERSION))
            elif kind == "span":
                out.records.append(SpanRecord(
                    name=obj["name"], cat=obj.get("cat", "sim"),
                    t0=float(obj["t0"]), dur=float(obj["dur"]),
                    rank=int(obj.get("rank", out.rank)),
                    tid=str(obj.get("tid", "main")),
                    depth=int(obj.get("depth", 0)),
                    attrs=obj.get("attrs", {}),
                ))
            elif kind == "counters":
                out.counters.update(obj.get("values", {}))
            elif kind == "gauges":
                out.gauges.update(obj.get("values", {}))
            elif kind == "attach":
                out.meta[obj["key"]] = obj.get("values", {})
    return out


def load_run(path: str | Path) -> list[LoadedTrace]:
    """Load a run: a directory of ``trace-rank*.jsonl`` or a single file.

    Returns one :class:`LoadedTrace` per rank stream, rank-sorted.
    """
    p = Path(path)
    if p.is_dir():
        streams = sorted(p.glob("trace-rank*.jsonl")) or sorted(p.glob("*.jsonl"))
        if not streams:
            raise FileNotFoundError(f"no trace-rank*.jsonl streams under {p}")
        return sorted((load_jsonl(s) for s in streams), key=lambda t: t.rank)
    return [load_jsonl(p)]


def to_chrome_trace(traces: list[LoadedTrace] | Tracer) -> dict:
    """Chrome Trace Event JSON for one run (pid=rank, tid=worker/phase)."""
    if isinstance(traces, Tracer):
        snapshot = LoadedTrace()
        snapshot.run_id = traces.run_id
        snapshot.rank = traces.rank
        snapshot.records = list(traces.records)
        snapshot.counters = dict(traces.counters)
        traces = [snapshot]
    records = [rec for trace in traces for rec in trace.records]
    # One process per rank and one named lane per (rank, tid) the events
    # use: simulated ranks record on one stream through the ``rank=``
    # override.  A tid keeps its lane number in every process.
    tid_index = {tid: i for i, tid in enumerate(sorted({rec.tid for rec in records}))}
    pids = sorted({trace.rank for trace in traces} | {rec.rank for rec in records})
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": f"rank {pid}"}}
        for pid in pids
    ]
    events += [
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid_index[tid],
         "args": {"name": tid}}
        for pid, tid in sorted({(rec.rank, rec.tid) for rec in records})
    ]
    for rec in records:
        event = {
            "name": rec.name,
            "cat": rec.cat,
            "ph": "X" if rec.dur > 0.0 else "i",
            "ts": rec.t0 * 1e6,
            "pid": rec.rank,
            "tid": tid_index[rec.tid],
        }
        if rec.dur > 0.0:
            event["dur"] = rec.dur * 1e6
        else:
            event["s"] = "t"  # instant scope: thread
        if rec.attrs:
            event["args"] = rec.attrs
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(traces: list[LoadedTrace] | Tracer,
                       path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(traces)))
    return path
