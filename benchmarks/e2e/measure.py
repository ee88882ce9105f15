"""One workload in this process: set-up, timed steps, the metrics of a run.

**The clock.**  Every duration is wall time (``time.perf_counter``): a step
is timed around ``sim.run(1)``, a set-up around IC build, construction and
warm-up, so whatever the main loop waits for — a late prediction, a queue,
a worker starting, a child doing its work for it — costs what it costs the
user.  CPU seconds of the main process are kept beside it as an unbounded
diagnostic (``obs.step_cpu_s``, ``obs.descheduled_share``).  What keeps the
wall clock steady here is CPU pinning (``provenance.pin_main`` /
``pin_workers``), medians over many steps, and several set-ups per run.

**Run length.**  ``--seconds`` fixes the *number* of timed steps (at the
nominal ``STEPS_PER_SECOND`` every workload is sized for), so the same seed
gives the same work, the same final state and the same ledger counts on
every run and every commit.

**Realisations.**  ``setup_s`` has to be a median of several set-ups in one
run, so a run sets the workload up ``REALISATIONS`` times (sub-seeds of
``--seed``); each simulation is then timed for its share of the steps and
all timed steps are pooled.  Step cost is partly a property of the draw
(tree shape, grid alignment, where the SNe land), so three draws per run
also make runs on different seeds more alike than one draw would.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from benchmarks.e2e.spans import METRIC_OF, SpanRecorder, fastpath_share, layer_seconds
from benchmarks.e2e.workloads import MAX_STEPS, Workload
from repro import GalaxySimulation
from repro.fdps.particles import ParticleSet, ParticleType

REALISATIONS = 3
#: Timed steps per second of ``--seconds``: the workloads are sized to step
#: in 0.26-0.38 s on the 2-core reference box.  ``BENCHMARK.json``'s 18 s
#: make 54 steps (tail: their 44th order statistic, p81) and a run of
#: 24-31 s, the longest that four workloads fit into the contract's time cap:
#: host noise comes in bursts of 5-60 s, and a median moves only when a burst
#: covers half the run.
STEPS_PER_SECOND = 3.0
#: Fewest timed steps of a full run: the tail statistic needs ten samples
#: beyond it and must still sit above the median.
MIN_STEPS = 24
SMOKE_WARMUP, SMOKE_STEPS = 2, 4


def steps_per_realisation(w: Workload, seconds: float) -> int:
    n = max(MIN_STEPS, round(seconds * STEPS_PER_SECOND))
    return min(math.ceil(n / REALISATIONS), MAX_STEPS - w.warmup_steps)


def state_digest(ps: ParticleSet) -> str:
    return hashlib.sha256(ps.pack().tobytes()).hexdigest()


def tail(values: list[float]) -> tuple[float, float]:
    """The (n-10)-th order statistic and the percentile it stands for.

    That is the highest percentile with ten samples beyond it (p75 of 40
    steps, p83 of 60); it never drops below the median on short runs.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 10, (n + 1) // 2)
    return ordered[k - 1], 100.0 * k / n


def peak_rss_mb() -> float:
    """High-water RSS of this process or any reaped child (the serve worker)."""
    kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kb / 1024.0


# ------------------------------------------------------------------ set-up
@dataclass
class SetUp:
    """Wall seconds of one set-up, by part."""

    ic_s: float
    construct_s: float
    warmup_s: float

    @property
    def seconds(self) -> float:
        return self.ic_s + self.construct_s + self.warmup_s


def set_up(
    w: Workload, seed: int, warmup_steps: int | None = None
) -> tuple[GalaxySimulation, SetUp]:
    """IC build, ``GalaxySimulation()`` (worker spawn, shm ring), warm-up
    steps (cold h-solve, start-up forces, first predictions in flight)."""
    t0 = time.perf_counter()
    ps = w.build(seed)
    t1 = time.perf_counter()
    sim = w.simulation(ps)
    t2 = time.perf_counter()
    try:
        sim.run(w.warmup_steps if warmup_steps is None else warmup_steps)
    except BaseException:
        sim.close()
        raise
    return sim, SetUp(t1 - t0, t2 - t1, time.perf_counter() - t2)


# ------------------------------------------------------------- timed steps
@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Run:
    """What timing the realisations of one run produced, pooled."""

    wall_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    n_particles: list[int] = field(default_factory=list)
    particle_steps: int = 0
    #: Counter deltas over the timed steps, summed over the realisations.
    moved: dict[str, float] = field(default_factory=dict)
    #: sha256 over the realisations' final-state digests, in order.
    digest: str = ""
    checks: list[Check] = field(default_factory=list)
    sn_attempted: int = 0
    sn_failed: int = 0
    sn_events: list[str] = field(default_factory=list)
    #: Steps that raised or left non-finite state (the rest of that
    #: realisation is abandoned and counted failed as well).
    failed_steps: int = 0
    error: str | None = None


def _state_finite(ps: ParticleSet) -> bool:
    return bool(
        np.isfinite(ps.pos).all() and np.isfinite(ps.vel).all() and np.isfinite(ps.u).all()
    )


def run_steps(
    sim: GalaxySimulation, n: int, run: Run, recorder: SpanRecorder | None = None
) -> None:
    """``n`` steps, each timed around ``sim.run(1)``, appended to ``run``.

    With a recorder every other step runs wrapped, so traced and untraced
    steps sample the same stretch of the run and their ratio is the cost of
    the wrappers, not of the workload drifting.  Spans carry the step's
    index in ``run.wall_s``.
    """
    for k in range(n):
        traced = recorder is not None and k % 2 == 0
        if traced:
            recorder.step = len(run.wall_s)
            recorder.install(sim)
        error = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if traced:
                root = recorder.begin("core.step")
                try:
                    sim.run(1)
                finally:
                    recorder.end(root)
            else:
                sim.run(1)
        except Exception as exc:        # boundary: a failed step is a result
            error = f"step {k}: {type(exc).__name__}: {exc}"
        finally:
            c1, w1 = time.process_time(), time.perf_counter()
            if traced:
                recorder.remove()
        if error is None and not _state_finite(sim.ps):
            error = f"step {k}: non-finite pos/vel/u"
        if error is not None:
            run.error = run.error or error
            run.failed_steps += n - k
            return
        run.wall_s.append(w1 - w0)
        run.cpu_s.append(c1 - c0)
        run.traced.append(traced)


# ---------------------------------------------------------------- counters
def counters(sim: GalaxySimulation) -> dict[str, float]:
    """Every public counter the per-layer metrics are deltas of."""
    integ = sim.integrator
    indices = [integ.engine.index, *getattr(getattr(integ, "driver", None), "indices", [])]
    m = sim.server.metrics
    out = {
        "tree_builds": sum(i.stats.tree_builds for i in indices),
        "grid_builds": sum(i.stats.grid_builds for i in indices),
        "gravity_interactions": integ.counter.interactions("gravity"),
        "exposed_wait_s": m.exposed_wait_s,
        "inline_predict_s": m.inline_predict_s,
        "worker_busy_s": sum(m.worker_busy_s.values()),
        "n_batches": m.n_batches,
        "batch_events": sum(m.batch_sizes),
        "queue_samples": len(m.queue_depth_samples),
        "queue_depth": sum(m.queue_depth_samples),
        "wire_bytes": m.bytes_in + m.bytes_out,
        # Requests are counted at dispatch, a fixed point of the step;
        # responses when a poll happens to find them, which on an async
        # transport is a matter of timing at the edges of the timed window.
        "wire_bytes_in": m.bytes_in,
        "n_submitted": m.n_submitted,
        "n_shm_slot": m.n_shm_slot,
        "n_shm_fallback": m.n_shm_fallback,
        "n_redispatch": m.n_redispatch,
        "n_worker_restarts": m.n_worker_restarts,
        "comm_messages": 0,
    }
    for label in ("exchange_let", "exchange_particles", "region_ghost", "pool_p2p"):
        out[f"{label}_bytes"] = 0
    if hasattr(integ, "comm_stats"):
        for label, stat in integ.comm_stats().items():
            out[f"{label}_bytes"] = stat.bytes_total
            out["comm_messages"] += stat.n_messages
        for rank, timers in enumerate(integ.driver.timers):
            out[f"rank{rank}_force_s"] = timers.totals().get("Calc_Force", 0.0)
    return out


#: The counts that must repeat bit-for-bit between two runs of one commit.
LEDGER = (
    "tree_builds", "grid_builds", "gravity_interactions", "comm_messages",
    "exchange_let_bytes", "exchange_particles_bytes", "region_ghost_bytes",
    "pool_p2p_bytes", "n_submitted", "wire_bytes_in",
)


# ----------------------------------------------------------------- metrics
def end_to_end_metrics(run: Run, setup_s: float) -> dict[str, tuple[float, str]]:
    """The metrics a user of the system would see."""
    return {
        "step_s": (statistics.median(run.wall_s), "s"),
        "particle_steps_per_s": (run.particle_steps / sum(run.wall_s), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_metrics(run: Run, recorder: SpanRecorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the timed steps: span self times (median over
    the traced steps) and counter deltas per step (over all timed steps)."""
    n, moved = len(run.wall_s), run.moved
    per_step = layer_seconds(recorder.spans)
    out: dict[str, tuple[float, str]] = {}
    for metric in sorted(set(METRIC_OF.values())):
        out[metric] = (
            statistics.median(row.get(metric, 0.0) for row in per_step.values()),
            "s",
        )
    # Each traced step against the untraced step right after it: neighbours
    # in one simulation, so the ratio is the wrappers' cost and nothing else.
    overhead = [
        run.wall_s[k] / run.wall_s[k + 1]
        for k in range(n - 1)
        if run.traced[k] and not run.traced[k + 1]
    ]
    gravity_s = out["accel.gravity_s"][0] + out["fdps.forces_s"][0]
    wall, cpu = sum(run.wall_s), sum(run.cpu_s)
    rank_force = [v / n for k, v in sorted(moved.items()) if k.endswith("_force_s")]
    busy_s = moved["worker_busy_s"]
    out.update(
        {
            "core.step_tail_s": (tail(run.wall_s)[0], "s"),
            "accel.tree_builds_per_step": (moved["tree_builds"] / n, "count"),
            "accel.grid_builds_per_step": (moved["grid_builds"] / n, "count"),
            "accel.fastpath_share": (fastpath_share(recorder.spans), "ratio"),
            "accel.gravity_interactions_per_step": (moved["gravity_interactions"] / n, "count"),
            "accel.gravity_rate": (_ratio(moved["gravity_interactions"] / n, gravity_s), "1/s"),
            "fdps.rank_force_slowest_s": (max(rank_force, default=0.0), "s"),
            "fdps.rank_imbalance": (
                _ratio(max(rank_force, default=0.0), statistics.fmean(rank_force or [0.0])),
                "ratio",
            ),
            "fdps.let_bytes_per_step": (moved["exchange_let_bytes"] / n, "B"),
            "fdps.exchange_bytes_per_step": (moved["exchange_particles_bytes"] / n, "B"),
            "fdps.region_ghost_bytes_per_step": (moved["region_ghost_bytes"] / n, "B"),
            "fdps.pool_p2p_bytes_per_step": (moved["pool_p2p_bytes"] / n, "B"),
            "fdps.comm_messages_per_step": (moved["comm_messages"] / n, "count"),
            "serve.exposed_wait_s_per_step": (moved["exposed_wait_s"] / n, "s"),
            "serve.inline_predict_s_per_step": (moved["inline_predict_s"] / n, "s"),
            "serve.worker_busy_s_per_step": (busy_s / n, "s"),
            "serve.overlap_efficiency": (
                1.0 - moved["exposed_wait_s"] / busy_s if busy_s else 0.0, "ratio",
            ),
            "serve.worker_utilization": (_ratio(busy_s, wall), "ratio"),
            "serve.mean_batch_size": (_ratio(moved["batch_events"], moved["n_batches"]), "count"),
            "serve.queue_depth_mean": (
                _ratio(moved["queue_depth"], moved["queue_samples"]), "count",
            ),
            "serve.wire_bytes_per_event": (_ratio(moved["wire_bytes"], moved["n_submitted"]), "B"),
            "serve.shm_fallback_share": (
                _ratio(moved["n_shm_fallback"], moved["n_shm_slot"] + moved["n_shm_fallback"]),
                "ratio",
            ),
            "serve.redispatch_count": (moved["n_redispatch"], "count"),
            "serve.worker_restarts": (moved["n_worker_restarts"], "count"),
            "obs.trace_overhead_ratio": (statistics.median(overhead), "ratio"),
            "obs.step_cpu_s": (statistics.median(run.cpu_s), "s"),
            "obs.descheduled_share": (max(0.0, 1.0 - cpu / wall), "ratio"),
        }
    )
    return out


# ------------------------------------------------------------------ checks
def span_sum_check(run: Run, recorder: SpanRecorder) -> Check:
    """Self times of a traced step sum to the step as timed around it."""
    worst = 0.0
    for k, row in layer_seconds(recorder.spans).items():
        worst = max(worst, abs(sum(row.values()) - run.wall_s[k]) / run.wall_s[k])
    return Check("span self times sum to the step", worst <= 0.02, f"worst {worst:.2e}")


def layer_checks(w: Workload, metrics: dict[str, tuple[float, str]]) -> list[Check]:
    """The shares and values the workload is named for (``Workload.min_step_share``
    of the traced step, i.e. of the span layers' sum, and ``Workload.exact``)."""
    step = sum(metrics[m][0] for m in set(METRIC_OF.values()))
    out = []
    for metric, least in w.min_step_share.items():
        share = metrics[metric][0] / step
        out.append(Check(f"{metric} >= {least:.0%} of the step", share >= least, f"{share:.1%}"))
    for metric, value in w.exact.items():
        got = metrics[metric][0]
        out.append(Check(f"{metric} == {value:g}", got == value, f"{got:g}"))
    return out


def sn_accounting(sim: GalaxySimulation, ic: ParticleSet) -> tuple[int, int, str]:
    """(attempted, failed, detail) SN events due by the last step.

    Failed: a planted star that was due and not dispatched, a prediction
    due back and not applied, or an event served by a fallback path.
    """
    planted = ic.where_type(ParticleType.STAR) & np.isfinite(ic.tsn)
    due = int((ic.tsn[planted] < sim.time).sum())
    if due == 0:
        return 0, 0, ""
    integ = sim.integrator
    pools = [sim.pool] if sim.pool is not None else integ.pools
    events = [e for pool in pools for e in pool.events]
    last = sim.step_count - 1
    late = sum(1 for e in events if e.return_step <= last and not e.returned)
    m = sim.server.metrics
    fallbacks = m.n_oracle_fallback + m.n_fault_oracle + m.n_shm_fallback + m.n_overflow
    failed = abs(due - len(events)) + late + fallbacks
    return due, failed, f"{due} due, {len(events)} dispatched, {late} late, {fallbacks} fallback"


def state_checks(w: Workload, sim: GalaxySimulation, ic: ParticleSet) -> list[Check]:
    ps = sim.ps
    mass0, mass1 = ic.total_mass(), ps.total_mass()
    out = [
        Check("final pos/vel/u finite", _state_finite(ps)),
        Check("pids unique", len(np.unique(ps.pid)) == len(ps)),
        Check(
            "total mass conserved to 1e-9",
            math.isclose(mass0, mass1, rel_tol=1e-9),
            f"{mass0!r} -> {mass1!r}",
        ),
    ]
    if not w.star_formation:
        out.append(
            Check("particle count unchanged", len(ps) == len(ic), f"{len(ic)} -> {len(ps)}")
        )
    return out


# ------------------------------------------------------------ realisations
def time_realisation(
    w: Workload, sim: GalaxySimulation, seed: int, n_steps: int, run: Run,
    recorder: SpanRecorder | None = None,
) -> None:
    """Time ``n_steps`` of one set-up simulation and pool the result into ``run``."""
    n_particles = len(sim.ps)
    done_before = len(run.wall_s)
    before = counters(sim)
    run_steps(sim, n_steps, run, recorder)
    for key, value in counters(sim).items():
        run.moved[key] = run.moved.get(key, 0) + value - before[key]
    run.n_particles.append(n_particles)
    run.particle_steps += n_particles * (len(run.wall_s) - done_before)
    run.digest = hashlib.sha256((run.digest + state_digest(sim.ps)).encode()).hexdigest()
    ic = w.build(seed)      # the simulation mutated its own copy in place
    run.checks += state_checks(w, sim, ic)
    attempted, failed, detail = sn_accounting(sim, ic)
    run.sn_attempted += attempted
    run.sn_failed += failed
    run.sn_events.append(detail)
