"""The harness's own span recorder: layers are measured from outside.

Nothing under ``src/`` knows about this module.  :meth:`SpanRecorder.install`
replaces the public entry points of each layer *on the live instances* with
wrappers that record one span per call — name, start, end, the span that
caused it, and the step it belongs to — and :meth:`SpanRecorder.remove`
deletes the instance attributes again, so the class methods show through
unchanged.  Spans stay in memory until the run ends.

A layer's **self time** is its span's duration minus the part its child
spans cover, so the self times of one step partition that step exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: span name -> the per-layer metric its self time is charged to.  Several
#: spans may feed one metric; every wrapped span feeds exactly one, so the
#: metrics of a step sum to the step.
METRIC_OF = {
    "core.step": "core.step_self_s",
    "core.compute_forces": "core.step_self_s",
    "core.refresh_hydro": "core.step_self_s",
    "core.flush_pools": "core.step_self_s",
    "core.kick": "core.kick_drift_s",
    "core.drift": "core.kick_drift_s",
    "core.identify_sne": "core.identify_sne_s",
    "core.send_sne": "core.send_sne_s",
    "core.receive_sne": "core.receive_sne_s",
    "core.redistribute": "core.redistribute_s",
    "physics.star_formation": "physics.star_formation_s",
    "physics.cooling": "physics.cooling_s",
    "accel.gravity": "accel.gravity_s",
    "accel.hydro": "accel.hydro_s",
    "accel.refresh_hydro": "accel.refresh_hydro_s",
    "serve.submit": "serve.submit_s",
    "serve.tick": "serve.tick_s",
    "serve.collect": "serve.collect_s",
    "fdps.decompose": "fdps.decompose_s",
    "fdps.exchange_particles": "fdps.exchange_particles_s",
    "fdps.region_ghost": "fdps.region_ghost_s",
    "fdps.forces": "fdps.forces_s",
}

#: (attribute path from the simulation, method, span name).  A path that
#: does not exist on this simulation (``driver`` on a single-rank run) is
#: skipped.
HOOKS = (
    *(
        ("integrator", hook, f"core.{hook}")
        for hook in (
            "identify_sne", "send_sne", "flush_pools", "compute_forces", "kick",
            "drift", "receive_sne", "redistribute", "refresh_hydro",
        )
    ),
    ("integrator", "apply_star_formation", "physics.star_formation"),
    ("integrator", "apply_cooling", "physics.cooling"),
    ("integrator.engine", "gravity", "accel.gravity"),
    ("integrator.engine", "hydro", "accel.hydro"),
    ("integrator.engine", "refresh_hydro", "accel.refresh_hydro"),
    ("server", "submit", "serve.submit"),
    ("server", "tick", "serve.tick"),
    ("server", "collect", "serve.collect"),
    ("integrator.driver", "decompose", "fdps.decompose"),
    ("integrator.driver", "exchange_particles", "fdps.exchange_particles"),
    ("integrator.driver", "exchange_region_ghosts", "fdps.region_ghost"),
    ("integrator.driver", "forces", "fdps.forces"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None    # index into the recorder's span list
    step: int


class SpanRecorder:
    """Records nested spans on one clock; wraps and unwraps live objects."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.step = -1
        self._open: list[int] = []
        self._wrapped: list[tuple[object, str]] = []

    # ------------------------------------------------------------- recording
    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.step))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    # -------------------------------------------------------------- wrapping
    def wrap(self, obj: object, attr: str, name: str) -> None:
        fn = getattr(obj, attr)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr))

    def install(self, sim) -> None:
        """Wrap every layer entry point that exists on ``sim``."""
        for path, attr, name in HOOKS:
            obj = sim
            for part in path.split("."):
                obj = getattr(obj, part, None)
            if obj is not None:
                self.wrap(obj, attr, name)

    def remove(self) -> None:
        """Delete the instance attributes: the class methods show through."""
        for obj, attr in self._wrapped:
            delattr(obj, attr)
        self._wrapped.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_seconds(spans: list[Span]) -> dict[int, dict[str, float]]:
    """step -> per-layer metric -> summed self seconds of that step."""
    out: dict[int, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.step, {})
        metric = METRIC_OF[span.name]
        row[metric] = row.get(metric, 0.0) + own
    return out


def fastpath_share(spans: list[Span]) -> float:
    """Refreshes served from cached pairs / refresh calls.

    A miss is visible in the span tree: the integrator's ``refresh_hydro``
    falls back to a full ``engine.hydro`` pass, which then has
    ``core.refresh_hydro`` as its parent.
    """
    calls = sum(1 for s in spans if s.name == "accel.refresh_hydro")
    misses = sum(
        1
        for s in spans
        if s.name == "accel.hydro"
        and s.parent is not None
        and spans[s.parent].name == "core.refresh_hydro"
    )
    return 1.0 - misses / calls if calls else 0.0
