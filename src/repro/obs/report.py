"""The run report: a Table-3-style per-routine breakdown from a trace.

The paper's Table 3 is a per-routine wall-clock breakdown measured with
MPI_Wtime/MPI_Barrier brackets and reduced to the *slowest* MPI process
(its footnote).  :func:`report_run` reproduces that accounting from a
recorded trace:

* every ``sim``-category span name becomes one breakdown row: the slowest
  rank's summed seconds, the mean over the ranks that ran it, and the most
  spans of one rank — the same spans whose per-rank sums
  :meth:`repro.obs.trace.Tracer.totals` keeps in process;
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
  their pairs per step (``accel.candidate_pairs``), the megabytes of the
  last list (the ``accel.candidate_bytes`` gauge: the step's largest
  transient), the lists widened per step for a kernel size beyond its reach
  (``accel.candidate_widenings``) and the passes that ran on a per-particle
  reach list (``accel.reach_list_passes`` of ``accel.density_passes``);
  ``accel.density_sweeps`` over
  ``accel.density_passes`` is the kernel-size solve's sweeps per pass, and
  any ``accel.h_unconverged`` is flagged;
* ``accel.gravity_pairs`` over the ``Calc_Force`` span seconds (every rank)
  is the force pass's pair rate, printed with the gravity tile workspace's
  bytes (the ``accel.grav_workspace_bytes`` gauge: the scratch a pass
  holds, one pair block whatever N) and, when the passes were shared with
  the gravity helper (``accel.grav_split_passes``), the busy milliseconds
  of main and helper in the last such pass (the
  ``accel.grav_main_busy_s`` / ``accel.grav_helper_busy_s`` gauges), the
  milliseconds of it that overlapped the SPH pass
  (``accel.grav_overlap_s``) and the groups the helper claimed
  (``accel.grav_helper_groups`` of ``accel.grav_groups``) — or, for the
  distributed rank pass, the ranks the helper delivered in the last pass
  and its busy milliseconds (``accel.grav_helper_ranks`` /
  ``accel.grav_helper_busy_s``);
* the ``rss_mb`` attribute of the first ``step`` span and the
  ``obs.rss_mb`` gauge (main's ``ru_maxrss``, set once per step) are the
  resident high-water after step 1 and after the last step — a cold start
  that costs more memory than a warm step shows as a gap between them;
* the ``obs.minor_faults`` counter (main's ``ru_minflt`` over each step,
  also the ``minor_faults`` attribute of every ``step`` span) gives the
  page faults per step after the first, and the first's apart — a heap
  handed back to the system and faulted in again every step shows here;
* :func:`diff_reports` lines two runs up row by row for regression triage
  (``python -m repro.obs report A --diff B``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.export import LoadedTrace, load_run

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
    #: Main's resident high-water [MB] after the first step (0: not traced).
    rss_step1_mb: float = 0.0
    #: Main's minor page faults in the first step (0: not traced).
    faults_step1: float = 0.0

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
        """Candidate lists generated per step, their pairs per step, the
        bytes of the last list a pass ran on, lists widened per step, and
        the density passes that ran on a reach list out of all (empty when
        the run emitted no ``accel.candidate_*`` counters)."""
        if "accel.candidate_generations" not in self.counters:
            return {}
        steps = max(self.n_steps, 1)
        return {
            "generations": self.counters["accel.candidate_generations"] / steps,
            "kpairs": self.counters.get("accel.candidate_pairs", 0.0) / steps / 1e3,
            "mb": self.gauges.get("accel.candidate_bytes", 0.0) / 1e6,
            "widenings": self.counters.get("accel.candidate_widenings", 0.0) / steps,
            "reach_passes": self.counters.get("accel.reach_list_passes", 0.0),
            "passes": self.counters.get("accel.density_passes", 0.0),
        }

    def gravity_per_pass(self) -> dict[str, float]:
        """Pair rate and tile workspace of the gravity passes (empty when
        the run traced none); for a run whose passes were shared with the
        gravity helper, also, of the last such pass, the busy milliseconds
        of each process — main's walk and claims against the helper's
        build, walk and claims — the milliseconds main spent between
        submitting the pass and its own walk (the SPH pass the helper
        overlapped), and the groups the helper claimed of all groups; for a
        distributed run, the ranks the helper delivered in its last rank
        pass and its busy milliseconds."""
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
            out["overlap_ms"] = self.gauges.get("accel.grav_overlap_s", 0.0) * 1e3
            out["helper_groups"] = self.gauges.get("accel.grav_helper_groups", 0.0)
            out["groups"] = self.gauges.get("accel.grav_groups", 0.0)
        if "accel.grav_helper_ranks" in self.gauges:
            out["helper_ranks"] = self.gauges["accel.grav_helper_ranks"]
            out["helper_ms"] = self.gauges.get("accel.grav_helper_busy_s", 0.0) * 1e3
        return out

    def rss_high_water(self) -> dict[str, float]:
        """Main's resident high-water [MB] after step 1 and after the last
        step (empty when the run traced none)."""
        if "obs.rss_mb" not in self.gauges:
            return {}
        return {"after_step_1": self.rss_step1_mb, "after_last_step": self.gauges["obs.rss_mb"]}

    def minor_faults_per_step(self) -> dict[str, float]:
        """Main's minor page faults in step 1 and per later step (empty when
        the run counted none)."""
        total = self.counters.get("obs.minor_faults")
        if total is None:
            return {}
        later = max(self.n_steps - 1, 1)
        return {"step_1": self.faults_step1, "per_later_step": (total - self.faults_step1) / later}

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
            "rss_high_water_mb": self.rss_high_water(),
            "minor_faults_per_step": self.minor_faults_per_step(),
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
            claims = (
                f", overlapped with hydro {gravity['overlap_ms']:.1f} ms, helper "
                f"{int(gravity['helper_groups'])}/{int(gravity['groups'])} groups"
                if "split_passes" in gravity else ""
            )
            if "helper_ranks" in gravity:
                claims += (f", helper {int(gravity['helper_ranks'])} ranks "
                           f"{gravity['helper_ms']:.1f} ms per pass")
            lines += ["", f"gravity: {split}{gravity['mpair_per_s']:.1f} Mpair/s, "
                      f"workspace {gravity['workspace_mb']:.2f} MB "
                      f"over {int(gravity['passes'])} passes{claims}"]
        grid = self.neighbor_grid_per_step()
        if grid:
            line = "neighbor grid (per step): " + ", ".join(
                f"{name} {value:.2f}" for name, value in grid.items()
            )
            cand = self.candidates_per_step()
            if cand:
                line += (f"; candidates: {cand['generations']:.2f} generations/step, "
                         f"{cand['kpairs']:.1f} k pairs, {cand['mb']:.2f} MB, "
                         f"{cand['widenings']:.2f} widenings/step, reach list in "
                         f"{int(cand['reach_passes'])}/{int(cand['passes'])} passes")
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
        rss = self.rss_high_water()
        if rss:
            lines += ["", f"RSS high-water: after step 1 {rss['after_step_1']:.1f} MB, "
                          f"after the last step {rss['after_last_step']:.1f} MB"]
        faults = self.minor_faults_per_step()
        if faults:
            lines += [f"page faults per step: main {faults['per_later_step']:.0f} "
                      f"(step 1: {faults['step_1']:.0f})"]
        if self.counters:
            lines += ["", "counters"]
            for name, value in sorted(self.counters.items()):
                lines.append(f"  {name:<34} {value:>12g}")
        return "\n".join(lines) + "\n"


def _sim_rows(traces: list[LoadedTrace]) -> dict[str, dict[int, list[float]]]:
    """Per sim-category span name: rank -> [summed seconds, spans]."""
    rows: dict[str, dict[int, list[float]]] = {}
    for trace in traces:
        for rec in trace.records:
            if rec.cat != "sim" or rec.name in _UMBRELLA_NAMES:
                continue
            acc = rows.setdefault(rec.name, {}).setdefault(rec.rank, [0.0, 0])
            acc[0] += rec.dur
            acc[1] += 1
    return rows


def report_traces(traces: list[LoadedTrace]) -> RunReport:
    """Build the report from already-loaded trace streams."""
    report = RunReport()
    if traces:
        report.run_id = traces[0].run_id
    ranks = {t.rank for t in traces} | {
        rec.rank for t in traces for rec in t.records
    }
    report.n_ranks = max(len(ranks), 1)

    # --- Table-3 rows: the slowest rank, as the paper's footnote ---------
    for name, per_rank in _sim_rows(traces).items():
        totals = [acc[0] for acc in per_rank.values()]
        report.breakdown[name] = {
            "slowest": max(totals),
            "mean": sum(totals) / len(totals),
            "count": int(max(acc[1] for acc in per_rank.values())),
        }

    # --- steps + wall extent ----------------------------------------------
    t_end = 0.0
    first_step_t0 = float("inf")
    for trace in traces:
        for rec in trace.records:
            t_end = max(t_end, rec.t0 + rec.dur)
            if rec.name == "step" and rec.cat == "sim":
                report.n_steps += 1
                if "rss_mb" in rec.attrs and rec.t0 < first_step_t0:
                    first_step_t0 = rec.t0
                    report.rss_step1_mb = float(rec.attrs["rss_mb"])
                    report.faults_step1 = float(rec.attrs.get("minor_faults", 0))
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
