"""Span tracing: the one clock and the one store of a run's timed intervals.

One :class:`Tracer` collects everything a run emits on one rank:

* **spans** — ``with tracer.span("gravity", cat="sim", step=n):`` records a
  ``(name, cat, t0, dur, rank, tid, depth, attrs)`` row when the block
  exits.  Spans nest (the tracer keeps a stack; ``depth`` and the Chrome
  exporter's flame view come from it) and carry arbitrary key/value
  attributes — ``bytes=...`` on comm spans, ``backend=...`` on kernel
  spans, ``worker=...`` on serve spans.
* **completed spans** — ``tracer.span_at(name, t0, dur, ...)`` records an
  interval measured elsewhere (the serve pipeline brackets batches by
  dispatch/done timestamps it already tracks).
* **instants** — ``tracer.instant(name, ...)`` is a zero-duration marker
  (dispatches, lost workers).
* **counters / gauges** — ``tracer.count(name, n)`` accumulates;
  ``tracer.gauge(name, v)`` keeps the last value.  Point metrics that are
  not worth a span land here instead of in ad-hoc dicts.
* **meta** — ``tracer.attach_meta(key, mapping)`` stores one JSON-able
  blob per key (the serve pipeline attaches its
  :meth:`~repro.serve.metrics.ServiceMetrics.to_dict` export so the run
  report can price hidden vs exposed inference).

Every span, also on a disabled tracer (``Tracer(enabled=False)``, what an
untraced run gets), adds its seconds and a count to a per-``(cat, rank,
name)`` sum: :meth:`Tracer.totals` / :meth:`Tracer.counts` are the in-process
Table-3 rows, and the step host, the force engine and the multi-rank driver
keep no timers of their own.  A disabled tracer keeps only those sums — no
records, counters, gauges or meta — so ``enabled`` lets the hottest paths
skip building what it would drop.

Clocks: all timestamps are ``time.monotonic()`` seconds relative to the
tracer's construction epoch (:meth:`Tracer.now`), and main-process code
takes its durations from it too.  Nothing here reads the absolute wall
clock — the repo's determinism rule (``repro.lint`` R1) applies to this
package too, and traces from two runs are comparable by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Span", "SpanRecord", "Tracer"]


@dataclass
class SpanRecord:
    """One closed span: what the exporters and the run report consume."""

    name: str
    cat: str
    t0: float          # seconds since the tracer epoch (monotonic)
    dur: float         # seconds
    rank: int
    tid: str           # Chrome-trace thread lane: "main", "worker-0", ...
    depth: int         # nesting depth at open time (0 = top level)
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_json_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "cat": self.cat,
            "t0": self.t0,
            "dur": self.dur,
            "rank": self.rank,
            "tid": self.tid,
            "depth": self.depth,
        }
        if self.attrs:
            obj["attrs"] = self.attrs
        return obj


class Span:
    """A live span handle: context manager that records itself on exit."""

    __slots__ = ("_tracer", "name", "cat", "tid", "rank", "attrs",
                 "_t0", "_depth")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: str,
                 rank: int, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.tid = tid
        self.rank = rank
        self.attrs = attrs
        self._t0 = 0.0
        self._depth = 0

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes while the span is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tr = self._tracer
        self._depth = len(tr._stack)
        tr._stack.append(self.name)
        self._t0 = tr.now()
        return self

    def __exit__(self, *exc: object) -> bool:
        tr = self._tracer
        dur = tr.now() - self._t0
        tr._stack.pop()
        tr._close(self.name, self.cat, self._t0, dur, self.rank, self.tid,
                  self._depth, self.attrs)
        return False


class Tracer:
    """Collects spans, counters, gauges, and meta blobs for one rank.

    Parameters
    ----------
    rank : the MPI-style rank this tracer records for (Chrome-trace pid).
    run_id : free-form run label carried into every export.
    enabled : keep records, counters, gauges and meta; a disabled tracer
        keeps only the per-``(cat, rank, name)`` span sums.
    """

    def __init__(self, rank: int = 0, run_id: str = "run", enabled: bool = True) -> None:
        self.rank = int(rank)
        self.run_id = str(run_id)
        self.enabled = bool(enabled)
        self.records: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.meta: dict[str, dict[str, Any]] = {}
        self._stack: list[str] = []
        #: (cat, rank, name) -> [seconds, count] of every closed span.
        self._sums: dict[tuple[str, int, str], list[float]] = {}
        # Monotonic epoch: every timestamp is relative to this instant.
        self._epoch = time.monotonic()

    # ------------------------------------------------------------------ time
    def now(self) -> float:
        """Seconds since the tracer epoch (monotonic clock only)."""
        return time.monotonic() - self._epoch

    def at(self, stamp: float) -> float:
        """The :meth:`now` reading of a ``time.monotonic()`` stamp taken in
        this process or in a child it forked (they share the clock)."""
        return stamp - self._epoch

    # ----------------------------------------------------------------- spans
    def span(self, name: str, cat: str = "sim", tid: str | None = None,
             **attrs: Any) -> Span:
        """An unopened span handle; use as ``with tracer.span(...) as sp:``.

        A ``rank=`` keyword overrides the recorded rank for this span —
        simulated-MPI code records per-rank spans on one shared tracer.
        """
        rank = int(attrs.pop("rank", self.rank))
        return Span(self, name, cat, tid if tid is not None else "main",
                    rank, attrs)

    def span_at(self, name: str, t0: float, dur: float, cat: str = "sim",
                tid: str | None = None, **attrs: Any) -> None:
        """Record an interval measured externally (timestamps from
        :meth:`now`); it does not interact with the nesting stack."""
        rank = int(attrs.pop("rank", self.rank))
        self._close(name, cat, float(t0), float(dur), rank,
                    tid if tid is not None else "main", len(self._stack), attrs)

    def instant(self, name: str, cat: str = "sim", tid: str | None = None,
                **attrs: Any) -> None:
        """A zero-duration marker event."""
        self.span_at(name, self.now(), 0.0, cat=cat, tid=tid, **attrs)

    def _close(self, name: str, cat: str, t0: float, dur: float, rank: int,
               tid: str, depth: int, attrs: dict[str, Any]) -> None:
        """Add a closed span to its sum and, when enabled, keep its record."""
        acc = self._sums.get((cat, rank, name))
        if acc is None:
            self._sums[(cat, rank, name)] = [dur, 1.0]
        else:
            acc[0] += dur
            acc[1] += 1.0
        if self.enabled:
            self.records.append(SpanRecord(
                name=name, cat=cat, t0=t0, dur=dur, rank=rank, tid=tid,
                depth=depth, attrs=attrs,
            ))

    # ------------------------------------------------------ counters / gauges
    def count(self, name: str, n: float = 1.0) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0.0) + n

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.gauges[name] = float(value)

    def attach_meta(self, key: str, values: dict[str, Any]) -> None:
        """Store one JSON-able mapping under ``key`` (last write wins)."""
        if self.enabled:
            self.meta[str(key)] = dict(values)

    # ------------------------------------------------------------- summaries
    def _sum(self, slot: int, cat: str | None, rank: int | None) -> dict[str, float]:
        out: dict[str, float] = {}
        for (c, r, name), acc in self._sums.items():
            if (cat is None or c == cat) and (rank is None or r == rank):
                out[name] = out.get(name, 0.0) + acc[slot]
        return out

    def totals(self, cat: str | None = None, rank: int | None = None) -> dict[str, float]:
        """Summed span seconds per name, optionally of one category and one
        rank (every span counts, enabled or not; names are distinct across
        nesting levels in the repo's taxonomy, so nothing is counted twice)."""
        return self._sum(0, cat, rank)

    def counts(self, cat: str | None = None, rank: int | None = None) -> dict[str, int]:
        """Closed spans per name, filtered as :meth:`totals`."""
        return {name: int(n) for name, n in self._sum(1, cat, rank).items()}
