"""Span tracing: nested, attributed, monotonic-clock wall-time records.

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

Clocks: all timestamps are ``time.monotonic()`` seconds relative to the
tracer's construction epoch.  Nothing here reads the absolute wall clock —
the repo's determinism rule (``repro.lint`` R1) applies to this package
too, and traces from two runs are comparable by construction.

:class:`NullTracer` is the default everywhere a tracer can be passed: every
method is a no-op returning a shared null span, so an untraced hot path
pays one attribute load and one call — the <5% overhead budget of
``benchmarks/bench_obs_overhead.py`` is enforced against the *enabled*
tracer; the null path is free for all practical purposes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["NULL_TRACER", "NullTracer", "Span", "SpanRecord", "Tracer"]


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


class _NullSpan:
    """The shared no-op span: context manager + attribute sink."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


class NullTracer:
    """Disabled tracer: every call is a no-op (the default everywhere).

    ``enabled`` is False so instrumented code can skip even argument
    construction on its hottest paths (``if tracer.enabled: ...``).
    """

    enabled = False
    rank = 0

    def span(self, name: str, cat: str = "sim", tid: str | None = None,
             **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def span_at(self, name: str, t0: float, dur: float, cat: str = "sim",
                tid: str | None = None, **attrs: Any) -> None:
        pass

    def instant(self, name: str, cat: str = "sim", tid: str | None = None,
                **attrs: Any) -> None:
        pass

    def count(self, name: str, n: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def attach_meta(self, key: str, values: dict) -> None:
        pass

    def now(self) -> float:
        return 0.0


_NULL_SPAN = _NullSpan()

#: The shared disabled tracer — pass this (or None, which resolves to it)
#: anywhere tracing is optional.
NULL_TRACER = NullTracer()


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
        tr.records.append(SpanRecord(
            name=self.name, cat=self.cat, t0=self._t0, dur=dur,
            rank=self.rank, tid=self.tid, depth=self._depth,
            attrs=self.attrs,
        ))
        return False


class Tracer:
    """Collects spans, counters, gauges, and meta blobs for one rank.

    Parameters
    ----------
    rank : the MPI-style rank this tracer records for (Chrome-trace pid).
    run_id : free-form run label carried into every export.
    """

    enabled = True

    def __init__(self, rank: int = 0, run_id: str = "run") -> None:
        self.rank = int(rank)
        self.run_id = str(run_id)
        self.records: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.meta: dict[str, dict] = {}
        self._stack: list[str] = []
        # Monotonic epoch: every timestamp is relative to this instant.
        self._epoch = time.monotonic()

    # ------------------------------------------------------------------ time
    def now(self) -> float:
        """Seconds since the tracer epoch (monotonic clock only)."""
        return time.monotonic() - self._epoch

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
        self.records.append(SpanRecord(
            name=name, cat=cat, t0=float(t0), dur=float(dur), rank=rank,
            tid=tid if tid is not None else "main", depth=len(self._stack),
            attrs=attrs,
        ))

    def instant(self, name: str, cat: str = "sim", tid: str | None = None,
                **attrs: Any) -> None:
        """A zero-duration marker event."""
        self.span_at(name, self.now(), 0.0, cat=cat, tid=tid, **attrs)

    # ------------------------------------------------------ counters / gauges
    def count(self, name: str, n: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + n

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def attach_meta(self, key: str, values: dict) -> None:
        """Store one JSON-able mapping under ``key`` (last write wins)."""
        self.meta[str(key)] = dict(values)

    # ------------------------------------------------------------- summaries
    def totals(self, cat: str | None = None) -> dict[str, float]:
        """Summed span seconds per name (optionally one category only).

        Nested spans each contribute their own duration — names are
        distinct across nesting levels in the repo's taxonomy, so per-name
        sums match what a :class:`repro.util.timers.TimerRegistry` would
        have accumulated for the same brackets.
        """
        out: dict[str, float] = {}
        for rec in self.records:
            if cat is not None and rec.cat != cat:
                continue
            out[rec.name] = out.get(rec.name, 0.0) + rec.dur
        return out
