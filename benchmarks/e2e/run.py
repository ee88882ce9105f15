"""Measure one workload in this process — the ``BENCHMARK.json`` command.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

A run sets up and times ``measure.REALISATIONS`` independent realisations of
the workload (sub-seeds of ``--seed``) and pools their steps.  ``--trace 0``
prints the end-to-end metrics (``setup_s`` is process entry to imports done
+ the median set-up, wall seconds).
``--trace 1`` times the same steps with every other one wrapped in spans,
then runs the probe pass and the equivalence checks, prints the per-layer
metrics and writes ``results/trace-<workload>.jsonl``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--smoke`` and ``--detail`` are for ``python -m
benchmarks.e2e``, which runs this file in fresh child processes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

#: Process entry, for ``setup_s``: before numpy, scipy and ``repro`` load.
ENTRY = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--detail", type=Path)
    return parser.parse_args(argv)


def stop_children() -> None:
    """Every process this one started has ended and been reaped on return.

    A simulation closes its serve workers itself; this is the net under it,
    and it stops ``multiprocessing``'s resource tracker (started with the
    first shared-memory segment), which otherwise outlives this process by
    the moment it takes to see its pipe close and is never waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()      # closes its pipe, then waitpid


def main(argv: list[str] | None = None) -> int:
    try:
        return measure_workload(parse_args(argv))
    finally:
        stop_children()


def measure_workload(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e.provenance import pin_main, pin_threads, provenance

    pin_threads()       # before numpy loads: BLAS sizes its pool from the environment
    pin_main()
    from benchmarks.e2e import measure, probes, verify
    from benchmarks.e2e.spans import SpanRecorder
    from benchmarks.e2e.workloads import WORKLOADS
    from repro.fdps.particles import ParticleType

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    import_s = time.perf_counter() - ENTRY
    full = not args.smoke
    warmup = w.warmup_steps if full else measure.SMOKE_WARMUP
    n_steps = measure.steps_per_realisation(w, args.seconds) if full else measure.SMOKE_STEPS
    n_parts = measure.REALISATIONS if full else 1
    recorder = SpanRecorder() if args.trace else None

    # ------------------------------- set-up and timed steps, per realisation
    setups = []
    run = measure.Run()
    probed: dict[str, tuple[float, str]] = {}
    nearly_collisionless = False
    for r in range(n_parts):
        seed = args.seed * measure.REALISATIONS + r
        sim, done = measure.set_up(w, seed, warmup)
        setups.append(done)
        with sim:
            measure.time_realisation(w, sim, seed, n_steps, run, recorder)
            if args.trace and full and r == n_parts - 1 and run.error is None:
                gas_share = sim.ps.where_type(ParticleType.GAS).mean()
                nearly_collisionless = 0.0 < gas_share < 0.05
                probed = probes.run_probes(w, sim, RESULTS)
    checks = run.checks
    ok = run.error is None

    # -------------------------------------------------------------- metrics
    metrics: dict[str, tuple[float, str]] = {}
    if ok and not args.trace:
        setup_s = import_s + statistics.median(s.seconds for s in setups)
        metrics = measure.end_to_end_metrics(run, setup_s)
    if ok and args.trace:
        metrics = measure.traced_metrics(run, recorder)
        checks.append(measure.span_sum_check(run, recorder))
    if ok and args.trace and full:
        last = setups[-1]
        metrics.update(
            {
                **probed,
                "ic.build_s": (last.ic_s, "s"),
                "core.import_s": (import_s, "s"),
                "core.construct_s": (last.construct_s, "s"),
                "core.warmup_s": (last.warmup_s, "s"),
            }
        )
        checks += measure.layer_checks(w, metrics)
        ratio = 0.0
        if w.sim_kwargs.get("serve_transport", "sync") != "sync":
            checks += verify.transport_checks(w, args.seed)
        if w.sim_kwargs.get("n_ranks", 1) > 1:
            rank_checks, one_rank_step_s = verify.rank_checks(w, args.seed)
            checks += rank_checks
            ghosts = metrics["fdps.region_ghost_bytes_per_step"][0]
            checks.append(
                measure.Check("fdps.region_ghost_bytes_per_step > 0", ghosts > 0, f"{ghosts:g} B")
            )
            untraced = [s for s, t in zip(run.wall_s, run.traced) if not t]
            # Ranks run one after the other today, so this sits above 1 where
            # a real n-process run would sit near 1/n of it: an emulation
            # ratio, not a scaling efficiency.
            ratio = statistics.median(untraced) / one_rank_step_s
        metrics["fdps.serial_emulation_ratio"] = (ratio, "ratio")
        if nearly_collisionless:
            # Tree accuracy and energy are meaningful without gas physics.
            err, drift = metrics["gravity.force_err_p99"][0], metrics["gravity.energy_drift_rel"][0]
            checks.append(measure.Check("gravity.force_err_p99 <= 5e-3", err <= 5e-3, f"{err:.2e}"))
            checks.append(
                measure.Check("gravity.energy_drift_rel <= 5e-3", drift <= 5e-3, f"{drift:.2e}")
            )

    attempted = n_parts * n_steps + run.sn_attempted + len(checks)
    failed = run.failed_steps + run.sn_failed + sum(not c.passed for c in checks)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    # ------------------------------------------------------------- artifacts
    prov = provenance(args.seed)
    if recorder is not None:
        RESULTS.mkdir(exist_ok=True)
        with open(RESULTS / f"trace-{w.name}.jsonl", "w") as out:
            header = {"provenance": prov, "workload": w.name, "clock": "perf_counter"}
            out.write(json.dumps(header) + "\n")
            for span in recorder.spans:
                out.write(json.dumps(asdict(span)) + "\n")
    if args.detail is not None:
        detail = {
            **result,
            "workload": w.name,
            "trace": args.trace,
            "smoke": args.smoke,
            "seconds": args.seconds,
            "provenance": prov,
            "n_particles": run.n_particles,
            "warmup_steps": warmup,
            "timed_steps": len(run.wall_s),
            "tail_percentile": measure.tail(run.wall_s)[1] if run.wall_s else None,
            "digest": run.digest,
            "ledger": {k: run.moved[k] for k in measure.LEDGER},
            "sn_events": run.sn_events,
            "error": run.error,
            "checks": [asdict(c) for c in checks],
            "step_wall_s": run.wall_s,
            "step_cpu_s": run.cpu_s,
        }
        args.detail.write_text(json.dumps(detail, indent=1))
    for c in checks:
        if not c.passed:
            print(f"FAILED check: {c.name} ({c.detail})", file=sys.stderr)
    if run.error:
        print(f"FAILED: {run.error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
