"""The run report: a Table-3-style per-routine breakdown from a trace.

The paper's Table 3 is a per-routine wall-clock breakdown measured with
MPI_Wtime/MPI_Barrier brackets and reduced to the *slowest* MPI process
(its footnote).  :func:`report_run` reproduces that accounting from a
recorded trace:

* every ``sim``-category span name becomes one breakdown row; per-rank
  totals are rebuilt into :class:`repro.util.timers.TimerRegistry` objects
  and merged with :meth:`TimerRegistry.slowest` — literally the same
  reduction the in-process timers use;
* ``comm``-category spans (one per labelled :class:`~repro.fdps.comm
  .SimComm` ledger row) aggregate into per-label seconds, bytes, messages,
  and critical-path bytes — the byte figures match the
  :class:`~repro.fdps.comm.CommStats` ledger exactly because the spans are
  emitted at the same merge points;
* the ``service_metrics`` attachment (a versioned
  :meth:`~repro.serve.metrics.ServiceMetrics.to_dict` export) is priced by
  :func:`repro.perf.costmodel.serve_summary` into hidden vs exposed
  inference seconds — the paper's "DL fully overlaps" claim, checked
  against this run;
* the ``accel.grid_*`` counters of :class:`repro.accel.ForceEngine` become
  neighbor-grid builds / repairs / reuses per step — a step whose SN
  replacement was a local edit of the grid shows as a repair and a reuse
  where it used to show a second build — and, on the same line, the
  candidate lists generated per step (``accel.candidate_generations``),
  their pairs per step (``accel.candidate_pairs``) and the megabytes of the
  last list (the ``accel.candidate_bytes`` gauge: the step's largest
  transient); ``accel.density_sweeps`` over
  ``accel.density_passes`` is the kernel-size solve's sweeps per pass, and
  any ``accel.h_unconverged`` is flagged;
* ``accel.gravity_pairs`` over the ``Calc_Force`` span seconds (every rank)
  is the force pass's pair rate, printed with the gravity tile workspace's
  bytes (the ``accel.grav_workspace_bytes`` gauge: the scratch a pass
  holds, one pair block whatever N) and, when the passes were split with
  the gravity helper (``accel.grav_split_passes``), the busy milliseconds
  of main and helper in the last such pass (the
  ``accel.grav_main_busy_s`` / ``accel.grav_helper_busy_s`` gauges);
* :func:`diff_reports` lines two runs up row by row for regression triage
  (``python -m repro.obs report A --diff B``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.export import LoadedTrace, load_run
from repro.util.timers import TimerRegistry

__all__ = ["RunReport", "diff_reports", "report_run", "report_traces"]

#: Umbrella spans excluded from the breakdown rows (they *contain* the
#: breakdown; adding them would double-count every phase).
_UMBRELLA_NAMES = {"step"}


@dataclass
class RunReport:
    """Everything the report CLI prints, in structured form."""

    run_id: str = "run"
    n_ranks: int = 1
    n_steps: int = 0
    wall_s: float = 0.0
    #: name -> {"slowest", "mean", "count"} over ranks (Table-3 rows).
    breakdown: dict[str, dict[str, float]] = field(default_factory=dict)
    #: label -> {"seconds", "bytes", "messages", "critical_bytes", "calls"}.
    comm: dict[str, dict[str, float]] = field(default_factory=dict)
    #: serve span totals (name -> seconds) + priced summary.
    serve_spans: dict[str, float] = field(default_factory=dict)
    serve_summary: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    #: Seconds in ``Calc_Force`` spans, summed over every rank.
    gravity_s: float = 0.0

    def neighbor_grid_per_step(self) -> dict[str, float]:
        """Neighbor-grid builds / repairs / reuses per step, from the force
        engine's ``accel.grid_*`` counters (empty when the run emitted none)."""
        steps = max(self.n_steps, 1)
        return {
            kind: self.counters[f"accel.grid_{kind}"] / steps
            for kind in ("builds", "repairs", "reuses")
            if f"accel.grid_{kind}" in self.counters
        }

    def candidates_per_step(self) -> dict[str, float]:
        """Candidate lists generated per step, their pairs per step, and the
        bytes of the last list a pass ran on (empty when the run emitted no
        ``accel.candidate_*`` counters)."""
        if "accel.candidate_generations" not in self.counters:
            return {}
        steps = max(self.n_steps, 1)
        return {
            "generations": self.counters["accel.candidate_generations"] / steps,
            "kpairs": self.counters.get("accel.candidate_pairs", 0.0) / steps / 1e3,
            "mb": self.gauges.get("accel.candidate_bytes", 0.0) / 1e6,
        }

    def gravity_per_pass(self) -> dict[str, float]:
        """Pair rate and tile workspace of the gravity passes (empty when
        the run traced none); for a run whose passes were split with the
        gravity helper, also the busy milliseconds of each process in the
        last split pass — main's walk and run against the helper's build,
        walk and run, so an unbalanced cut shows."""
        passes = self.counters.get("accel.gravity_passes")
        if not passes:
            return {}
        pairs = self.counters.get("accel.gravity_pairs", 0.0)
        out = {
            "passes": passes,
            "mpair_per_s": pairs / self.gravity_s / 1e6 if self.gravity_s > 0 else 0.0,
            "workspace_mb": self.gauges.get("accel.grav_workspace_bytes", 0.0) / 1e6,
        }
        split = self.counters.get("accel.grav_split_passes")
        if split:
            out["split_passes"] = split
            out["main_ms"] = self.gauges.get("accel.grav_main_busy_s", 0.0) * 1e3
            out["helper_ms"] = self.gauges.get("accel.grav_helper_busy_s", 0.0) * 1e3
        return out

    # -------------------------------------------------------------- exports
    def to_json_obj(self) -> dict:
        return {
            "run_id": self.run_id,
            "n_ranks": self.n_ranks,
            "n_steps": self.n_steps,
            "wall_s": self.wall_s,
            "breakdown": self.breakdown,
            "comm": self.comm,
            "serve_spans": self.serve_spans,
            "serve_summary": self.serve_summary,
            "counters": self.counters,
            "gauges": self.gauges,
            "neighbor_grid_per_step": self.neighbor_grid_per_step(),
            "candidates_per_step": self.candidates_per_step(),
            "gravity_per_pass": self.gravity_per_pass(),
        }

    def to_text(self) -> str:
        lines = [
            f"run report: {self.run_id}  "
            f"(ranks={self.n_ranks}, steps={self.n_steps}, "
            f"wall={self.wall_s:.3f}s)",
            "",
            "time breakdown (slowest rank, Table-3 reduction)",
            f"  {'part':<34} {'slowest [s]':>12} {'mean [s]':>10} {'calls':>8}",
        ]
        total = 0.0
        for name, row in sorted(
            self.breakdown.items(), key=lambda kv: -kv[1]["slowest"]
        ):
            total += row["slowest"]
            lines.append(
                f"  {name:<34} {row['slowest']:>12.4f} "
                f"{row['mean']:>10.4f} {int(row['count']):>8d}"
            )
        lines.append(f"  {'TOTAL':<34} {total:>12.4f}")
        if self.comm:
            lines += ["", "communication (per ledger label)",
                      f"  {'label':<22} {'seconds':>9} {'bytes':>12} "
                      f"{'critical':>12} {'msgs':>8} {'calls':>7}"]
            for label, row in sorted(self.comm.items()):
                lines.append(
                    f"  {label:<22} {row['seconds']:>9.4f} "
                    f"{int(row['bytes']):>12d} {int(row['critical_bytes']):>12d} "
                    f"{int(row['messages']):>8d} {int(row['calls']):>7d}"
                )
        if self.serve_spans or self.serve_summary:
            lines += ["", "surrogate serving"]
            for name, seconds in sorted(self.serve_spans.items()):
                lines.append(f"  {name:<34} {seconds:>12.4f}")
            summary = self.serve_summary
            if summary:
                lines.append(
                    f"  inference: hidden "
                    f"{summary.get('inference_hidden_s', 0.0):.4f}s / "
                    f"exposed {summary.get('inference_exposed_s', 0.0):.4f}s "
                    f"(overlap efficiency "
                    f"{summary.get('overlap_efficiency', 0.0):.3f})"
                )
        gravity = self.gravity_per_pass()
        if gravity:
            split = (
                f"2 processes, main {gravity['main_ms']:.1f} ms / helper "
                f"{gravity['helper_ms']:.1f} ms per pass, " if "split_passes" in gravity else ""
            )
            lines += ["", f"gravity: {split}{gravity['mpair_per_s']:.1f} Mpair/s, "
                      f"workspace {gravity['workspace_mb']:.2f} MB "
                      f"over {int(gravity['passes'])} passes"]
        grid = self.neighbor_grid_per_step()
        if grid:
            line = "neighbor grid (per step): " + ", ".join(
                f"{name} {value:.2f}" for name, value in grid.items()
            )
            cand = self.candidates_per_step()
            if cand:
                line += (f"; candidates: {cand['generations']:.2f} generations/step, "
                         f"{cand['kpairs']:.1f} k pairs, {cand['mb']:.2f} MB")
            lines += ["", line]
        passes = self.counters.get("accel.density_passes")
        if passes:
            line = (f"kernel-size solve: {self.counters['accel.density_sweeps'] / passes:.2f} "
                    f"sweeps per pass over {int(passes)} passes")
            left = int(self.counters.get("accel.h_unconverged", 0))
            if left:
                line += (f"  ** {left} particle(s) left outside tolerance "
                         "(see the repro.accel warnings) **")
            lines += ["", line]
        if self.counters:
            lines += ["", "counters"]
            for name, value in sorted(self.counters.items()):
                lines.append(f"  {name:<34} {value:>12g}")
        return "\n".join(lines) + "\n"


def _sim_registries(traces: list[LoadedTrace]) -> list[TimerRegistry]:
    """Rebuild one TimerRegistry per rank from the sim-category spans."""
    by_rank: dict[int, TimerRegistry] = {}
    for trace in traces:
        for rec in trace.records:
            if rec.cat != "sim" or rec.name in _UMBRELLA_NAMES:
                continue
            reg = by_rank.setdefault(rec.rank, TimerRegistry())
            timer = reg.get(rec.name)
            timer.total += rec.dur
            timer.count += 1
    return [by_rank[r] for r in sorted(by_rank)]


def report_traces(traces: list[LoadedTrace]) -> RunReport:
    """Build the report from already-loaded trace streams."""
    report = RunReport()
    if traces:
        report.run_id = traces[0].run_id
    ranks = {t.rank for t in traces} | {
        rec.rank for t in traces for rec in t.records
    }
    report.n_ranks = max(len(ranks), 1)

    # --- Table-3 rows: slowest-rank reduction via TimerRegistry ------------
    registries = _sim_registries(traces)
    slowest = TimerRegistry.slowest(registries)
    for name, worst in slowest.items():
        counts = [reg.get(name).count for reg in registries if name in reg.timers]
        totals = [reg.get(name).total for reg in registries if name in reg.timers]
        report.breakdown[name] = {
            "slowest": worst,
            "mean": sum(totals) / len(totals) if totals else 0.0,
            "count": max(counts) if counts else 0,
        }

    # --- steps + wall extent ----------------------------------------------
    t_end = 0.0
    for trace in traces:
        for rec in trace.records:
            t_end = max(t_end, rec.t0 + rec.dur)
            if rec.name == "step" and rec.cat == "sim":
                report.n_steps += 1
            elif rec.cat == "sim" and rec.name.endswith("Calc_Force"):
                report.gravity_s += rec.dur
            elif rec.cat == "comm":
                row = report.comm.setdefault(rec.name, {
                    "seconds": 0.0, "bytes": 0.0, "messages": 0.0,
                    "critical_bytes": 0.0, "calls": 0.0,
                })
                row["seconds"] += rec.dur
                row["bytes"] += float(rec.attrs.get("bytes", 0))
                row["messages"] += float(rec.attrs.get("messages", 0))
                row["critical_bytes"] += float(rec.attrs.get("critical_bytes", 0))
                row["calls"] += 1
            elif rec.cat == "serve":
                report.serve_spans[rec.name] = (
                    report.serve_spans.get(rec.name, 0.0) + rec.dur
                )
        for name, value in trace.counters.items():
            report.counters[name] = report.counters.get(name, 0.0) + value
        for name, value in trace.gauges.items():
            report.gauges[name] = max(report.gauges.get(name, value), value)
    report.wall_s = t_end

    # --- hidden vs exposed inference from the attached service metrics ----
    metrics = {}
    for trace in traces:
        if "service_metrics" in trace.meta:
            metrics = trace.meta["service_metrics"]
            break
    if metrics:
        from repro.perf.costmodel import serve_summary

        report.serve_summary = serve_summary(metrics)
    return report


def report_run(path: str | Path) -> RunReport:
    """Load a run directory (or single stream) and build its report."""
    return report_traces(load_run(path))


def diff_reports(a: RunReport, b: RunReport) -> str:
    """Row-aligned breakdown diff of two runs (regression triage)."""
    lines = [
        f"run diff: {a.run_id} vs {b.run_id}",
        f"  {'part':<34} {'A [s]':>10} {'B [s]':>10} {'delta':>10} {'ratio':>7}",
    ]
    names = sorted(set(a.breakdown) | set(b.breakdown))
    for name in names:
        va = a.breakdown.get(name, {}).get("slowest", 0.0)
        vb = b.breakdown.get(name, {}).get("slowest", 0.0)
        ratio = vb / va if va > 0 else float("inf") if vb > 0 else 1.0
        lines.append(
            f"  {name:<34} {va:>10.4f} {vb:>10.4f} {vb - va:>+10.4f} "
            f"{ratio:>7.2f}"
        )
    wall_ratio = b.wall_s / a.wall_s if a.wall_s > 0 else 1.0
    lines.append(
        f"  {'WALL':<34} {a.wall_s:>10.4f} {b.wall_s:>10.4f} "
        f"{b.wall_s - a.wall_s:>+10.4f} {wall_ratio:>7.2f}"
    )
    return "\n".join(lines) + "\n"


def report_json(report: RunReport) -> str:
    return json.dumps(report.to_json_obj(), indent=2)
