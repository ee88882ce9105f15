"""Serve fault-tolerance benchmark: what a worker crash actually costs.

Runs the same submit/collect workload three ways — fault-free, with one
injected SIGKILL mid-flight, and with one hung worker — over the ``shm``
transport, and measures:

* **recovery overhead**: wall-clock of the faulted run vs the fault-free
  baseline (either fault loses the worker for good and its batches
  resolve inline; a hang additionally waits out the per-batch deadline,
  ``repro.serve.server.BATCH_DEADLINE_S``, set to 1 s for the run);
* **what the loss costs the main rank**: each run's lost workers and the
  seconds the kill run spent predicting inline (``inline_predict_s``);
* **the headline invariant**: every faulted run's predictions are
  byte-for-byte the fault-free run's predictions — asserted, not plotted.

A ``sync`` warm-up server runs first, untimed: it pays this process's
first prediction (imports, caches), which every worker forked after it
inherits, so the baseline does not pay a start-up the faulted runs skip.

Results land in ``benchmarks/results/BENCH_serve_faults.json`` (a smoke
run's in the gitignored ``benchmarks/results/smoke/``).  Runs as a pytest
bench or standalone (the CI chaos leg):

    REPRO_BENCH_SMOKE=1 python benchmarks/bench_serve_faults.py
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import repro.serve.server
from repro.fdps.particles import ParticleSet, ParticleType
from repro.serve import SurrogateServer, SurrogateSpec

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
LATENCY = 6
#: Per-batch deadline of the runs, so the hang scenario measures the
#: protocol, not the production wait.
DEADLINE_S = 1.0
SCENARIOS = {
    "baseline": None,
    "kill": "kill@w0:b1",
    "hang": "hang@w0:b1:30.0",
}


def _region(n=60, seed=0):
    rng = np.random.default_rng(seed)
    ps = ParticleSet.from_arrays(
        pos=rng.uniform(-25, 25, (n, 3)),
        mass=np.full(n, 1.0),
        pid=np.arange(n) + 1000 * seed,
        ptype=np.full(n, int(ParticleType.GAS)),
    )
    ps.u[:] = 25.0
    ps.h[:] = 8.0
    return ps


def _run(transport, fault_plan, n_events):
    """One submit/collect workload; returns (wall_s, {eid: particles}, metrics)."""
    spec = SurrogateSpec(kind="oracle", n_grid=8, side=60.0, t_after=0.1)
    with SurrogateServer(
        spec=spec, transport=transport, n_workers=2, max_batch=2,
        fault_plan=fault_plan,
    ) as srv:
        t0 = time.perf_counter()
        for k in range(n_events):
            srv.submit(_region(seed=k), np.zeros(3), star_pid=k,
                       dispatch_step=0, return_step=LATENCY)
        got = {r.event_id: r.particles for r in srv.collect(LATENCY)}
        wall = time.perf_counter() - t0
        metrics = {
            "n_fault_oracle": srv.metrics.n_fault_oracle,
            "n_batch_timeouts": srv.metrics.n_batch_timeouts,
            "n_workers_lost": srv.metrics.n_workers_lost,
            "inline_predict_s": srv.metrics.inline_predict_s,
        }
    return wall, got, metrics


def _assert_bit_identical(got, reference):
    assert sorted(got) == sorted(reference)
    for eid, ref in reference.items():
        for name, arr in ref.data.items():
            assert np.array_equal(got[eid].data[name], arr), (eid, name)


def run_fault_bench(n_events):
    payload = {"smoke": SMOKE, "n_events": n_events, "deadline_s": DEADLINE_S,
               "transports": {}}
    rows = []
    for transport in ("shm",):
        per = {}
        baseline_got = None
        production_deadline = repro.serve.server.BATCH_DEADLINE_S
        repro.serve.server.BATCH_DEADLINE_S = DEADLINE_S
        _run("sync", None, n_events)          # the warm-up, untimed
        try:
            for scenario, plan in SCENARIOS.items():
                wall, got, metrics = _run(transport, plan, n_events)
                if scenario == "baseline":
                    baseline_got = got
                else:
                    _assert_bit_identical(got, baseline_got)
                per[scenario] = {"wall_s": wall, **metrics}
        finally:
            repro.serve.server.BATCH_DEADLINE_S = production_deadline
        for scenario in ("kill", "hang"):
            per[scenario]["overhead_s"] = (
                per[scenario]["wall_s"] - per["baseline"]["wall_s"]
            )
        payload["transports"][transport] = per
        rows += [
            [f"{transport} baseline wall [s]", f"{per['baseline']['wall_s']:.3f}"],
            [f"{transport} kill overhead [s]", f"{per['kill']['overhead_s']:.3f}"],
            [f"{transport} hang overhead [s]", f"{per['hang']['overhead_s']:.3f}"],
            [f"{transport} kill: workers lost", f"{per['kill']['n_workers_lost']}"],
            [f"{transport} hang: workers lost", f"{per['hang']['n_workers_lost']}"],
            [
                f"{transport} kill: inline predict [s]",
                f"{per['kill']['inline_predict_s']:.3f}",
            ],
        ]
    return payload, rows


def test_serve_faults(benchmark, results_dir, write_result):
    from benchmarks.conftest import fmt_table

    n_events = 8 if SMOKE else 24
    payload, rows = benchmark.pedantic(
        run_fault_bench, args=(n_events,), rounds=1, iterations=1
    )
    (results_dir / "BENCH_serve_faults.json").write_text(
        json.dumps(payload, indent=2)
    )
    write_result("serve_faults", fmt_table(["metric", "value"], rows))
    for transport, per in payload["transports"].items():
        assert per["kill"]["n_fault_oracle"] >= 1
        assert per["hang"]["n_batch_timeouts"] >= 1
        assert per["kill"]["n_workers_lost"] == per["hang"]["n_workers_lost"] == 1


def main():
    """Standalone entry for the CI chaos leg (no pytest-benchmark needed)."""
    n_events = 8 if SMOKE else 24
    payload, rows = run_fault_bench(n_events)
    # A smoke run writes to the gitignored results/smoke/, never over a
    # committed result.
    results = Path(__file__).parent / "results" / ("smoke" if SMOKE else "")
    results.mkdir(parents=True, exist_ok=True)
    (results / "BENCH_serve_faults.json").write_text(json.dumps(payload, indent=2))
    width = max(len(r[0]) for r in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    for transport, per in payload["transports"].items():
        assert per["kill"]["n_fault_oracle"] >= 1, transport
        assert per["hang"]["n_batch_timeouts"] >= 1, transport
        assert per["kill"]["n_workers_lost"] == per["hang"]["n_workers_lost"] == 1, transport
    print("serve fault bench: recoveries bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
