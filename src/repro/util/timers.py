"""Wall-clock timers mirroring the paper's MPI_Wtime instrumentation.

The paper brackets every critical routine with MPI_Barrier/MPI_Wtime and
reports the slowest rank (Table 3 footnote).  ``TimerRegistry`` reproduces
that bookkeeping: named accumulating timers, per-step snapshots, and a
"slowest rank" merge for the simulated-MPI runs.

A registry can additionally feed a :class:`repro.obs.trace.Tracer`: set
``registry.tracer`` (plus optional ``cat``/``rank``) and every
``measure()`` bracket also emits a span carrying the same name, so the
``python -m repro.obs report`` breakdown and the in-process timers are two
views of the same brackets.  With the default :data:`~repro.obs.trace
.NULL_TRACER` the bridge costs one attribute load per bracket.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.obs.trace import NullTracer, Tracer


def _null_tracer() -> "NullTracer":
    from repro.obs.trace import NULL_TRACER

    return NULL_TRACER


@dataclass
class Timer:
    """A single accumulating wall-clock timer.

    ``start``/``stop`` pairs may nest (recursive phases, a phase measured
    inside itself via two code paths): only the *outermost* interval is
    accumulated, so re-entry neither clobbers the start stamp nor double
    counts the enclosed time.
    """

    name: str
    total: float = 0.0
    count: int = 0
    _t0: float | None = None
    _depth: int = 0

    def start(self) -> None:
        if self._depth == 0:
            self._t0 = time.perf_counter()
        self._depth += 1

    def stop(self) -> float:
        if self._depth == 0 or self._t0 is None:
            raise RuntimeError(f"timer {self.name!r} stopped before start")
        self._depth -= 1
        if self._depth > 0:
            return 0.0
        dt = time.perf_counter() - self._t0
        self.total += dt
        self.count += 1
        self._t0 = None
        return dt

    @property
    def running(self) -> bool:
        return self._depth > 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class TimerRegistry:
    """A named collection of timers with context-manager access."""

    timers: dict[str, Timer] = field(default_factory=dict)
    #: Optional span-trace bridge: when set, every ``measure()`` bracket
    #: also opens a span of the same name on this tracer.
    tracer: Any = field(default_factory=_null_tracer, repr=False)
    #: Span category for bridged spans ("sim" for integrator/engine phases).
    cat: str = "sim"
    #: Rank attribute stamped onto bridged spans (multi-rank registries).
    rank: int | None = None

    def get(self, name: str) -> Timer:
        if name not in self.timers:
            self.timers[name] = Timer(name)
        return self.timers[name]

    @contextmanager
    def measure(self, name: str, **attrs: Any):
        t = self.get(name)
        tracer = self.tracer
        if tracer.enabled:
            if self.rank is not None:
                attrs.setdefault("rank", self.rank)
            with tracer.span(name, cat=self.cat, **attrs):
                t.start()
                try:
                    yield t
                finally:
                    t.stop()
        else:
            t.start()
            try:
                yield t
            finally:
                t.stop()

    def record(self, name: str, started: float, seconds: float, **attrs: Any) -> None:
        """Charge ``seconds`` measured elsewhere (another process, which
        began at ``time.monotonic()`` stamp ``started``) to timer ``name``,
        as one :meth:`measure` bracket would, span included."""
        t = self.get(name)
        t.total += seconds
        t.count += 1
        tracer = self.tracer
        if tracer.enabled:
            if self.rank is not None:
                attrs.setdefault("rank", self.rank)
            t0 = tracer.now() - (time.monotonic() - started)
            tracer.span_at(name, t0, seconds, cat=self.cat, **attrs)

    def totals(self) -> dict[str, float]:
        return {k: v.total for k, v in self.timers.items()}

    def reset(self) -> None:
        for t in self.timers.values():
            t.total = 0.0
            t.count = 0

    @staticmethod
    def slowest(registries: list["TimerRegistry"]) -> dict[str, float]:
        """Per-item maximum across ranks — the paper's 'slowest MPI process'."""
        merged: dict[str, float] = {}
        for reg in registries:
            for name, total in reg.totals().items():
                merged[name] = max(merged.get(name, 0.0), total)
        return merged
