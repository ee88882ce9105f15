"""Observability overhead benchmark: tracing must be (nearly) free.

The ISSUE 9 acceptance bar for ``repro.obs``: with tracing enabled, a
20k-particle run is **bit-identical** to the untraced run and at most 5%
slower.  This bench runs the same simulation twice per repeat — once under
the default :data:`~repro.obs.NULL_TRACER`, once under a live
:class:`~repro.obs.Tracer` — interleaved, takes the best wall time of each
(min-of-repeats is robust to scheduler noise), and asserts both halves:

* every particle array of the final state is ``np.array_equal`` between
  the traced and untraced runs (tracing reads clocks, never physics);
* ``traced_best / untraced_best <= 1.05`` (the smoke configuration is far
  smaller, so per-step time is microseconds-scale and OS jitter dominates
  — it gets proportionally more headroom while the full run holds the
  paper-scale 5% bar).

Results land in ``benchmarks/results/BENCH_obs_overhead.json`` (a smoke
run's in the gitignored ``benchmarks/results/smoke/``).  Runs as a pytest
bench or standalone:

    python benchmarks/bench_obs_overhead.py --smoke
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro import GalaxySimulation, make_mw_mini
from repro.obs import Tracer

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))

#: Per-mode run shape: (n_particles, n_steps, repeats, max overhead ratio).
FULL = (20_000, 3, 3, 1.05)
SMOKE_CFG = (2_000, 3, 3, 1.50)


def _run_once(n_total: int, steps: int, traced: bool):
    """One simulation; returns (wall_s, final particle arrays, tracer)."""
    ps = make_mw_mini(n_total=n_total, seed=3)
    tracer = Tracer(run_id="obs-overhead") if traced else None
    with GalaxySimulation(
        ps, dt=2e-3, seed=3, n_pool=4, latency_steps=2, tracer=tracer
    ) as sim:
        t0 = time.perf_counter()
        sim.run(steps)
        wall = time.perf_counter() - t0
        state = {name: arr.copy() for name, arr in sim.ps.data.items()}
    return wall, state, tracer


def _assert_bit_identical(a: dict, b: dict) -> None:
    assert sorted(a) == sorted(b)
    for name, arr in a.items():
        assert np.array_equal(arr, b[name]), f"tracing changed ps.{name}"


def run_overhead_bench():
    n_total, steps, repeats, max_ratio = SMOKE_CFG if SMOKE else FULL
    walls = {"untraced": [], "traced": []}
    baseline_state = traced_state = None
    tracer = None
    for _ in range(repeats):
        wall_u, baseline_state, _none = _run_once(n_total, steps, traced=False)
        wall_t, traced_state, tracer = _run_once(n_total, steps, traced=True)
        walls["untraced"].append(wall_u)
        walls["traced"].append(wall_t)
    _assert_bit_identical(traced_state, baseline_state)
    # The trace must actually contain the run: one umbrella span per step
    # plus the bridged phase brackets underneath.
    n_steps_traced = sum(
        1 for r in tracer.records if r.name == "step" and r.cat == "sim"
    )
    assert n_steps_traced == steps, (n_steps_traced, steps)
    assert len(tracer.records) > steps * 5
    best_u = min(walls["untraced"])
    best_t = min(walls["traced"])
    ratio = best_t / best_u
    payload = {
        "smoke": SMOKE,
        "n_particles": n_total,
        "n_steps": steps,
        "repeats": repeats,
        "untraced_s": walls["untraced"],
        "traced_s": walls["traced"],
        "best_untraced_s": best_u,
        "best_traced_s": best_t,
        "overhead_ratio": ratio,
        "max_ratio": max_ratio,
        "n_span_records": len(tracer.records),
        "bit_identical": True,
    }
    rows = [
        ["particles", n_total],
        ["steps", steps],
        ["best untraced [s]", f"{best_u:.4f}"],
        ["best traced [s]", f"{best_t:.4f}"],
        ["overhead ratio", f"{ratio:.4f}"],
        ["budget", f"{max_ratio:.2f}"],
        ["span records", len(tracer.records)],
        ["bit identical", "yes"],
    ]
    assert ratio <= max_ratio, (
        f"tracing overhead {ratio:.3f}x exceeds the {max_ratio:.2f}x budget "
        f"(best traced {best_t:.4f}s vs untraced {best_u:.4f}s)"
    )
    return payload, rows


def test_obs_overhead(benchmark, results_dir, write_result):
    from benchmarks.conftest import fmt_table

    payload, rows = benchmark.pedantic(
        run_overhead_bench, args=(), rounds=1, iterations=1
    )
    (results_dir / "BENCH_obs_overhead.json").write_text(
        json.dumps(payload, indent=2)
    )
    write_result("obs_overhead", fmt_table(["metric", "value"], rows))


def main(argv):
    """Standalone entry (CI serve job; no pytest-benchmark needed)."""
    global SMOKE
    if "--smoke" in argv:
        SMOKE = True
    payload, rows = run_overhead_bench()
    # A smoke run writes to the gitignored results/smoke/, never over a
    # committed result.
    results = Path(__file__).parent / "results" / ("smoke" if SMOKE else "")
    results.mkdir(parents=True, exist_ok=True)
    (results / "BENCH_obs_overhead.json").write_text(json.dumps(payload, indent=2))
    width = max(len(str(r[0])) for r in rows)
    for name, value in rows:
        print(f"{name!s:<{width}}  {value}")
    print(
        f"obs overhead bench: {payload['overhead_ratio']:.3f}x "
        f"(budget {payload['max_ratio']:.2f}x), state bit-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
