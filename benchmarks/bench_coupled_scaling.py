"""Coupled scaling benchmark: multi-rank surrogate runs, priced at scale.

The step host (:mod:`repro.core.runner`) emulates ``p`` main
ranks serially in one process, so its wall clock is roughly the *sum* of
the per-rank work.  This bench recovers the parallel story the paper tells
(Figs. 6-7) from what the emulation actually measures:

* **bit-identity first**: at every size, a 2-rank ``force_mode="global"``
  run over the shared surrogate service must reproduce the single-rank
  state byte-for-byte, with real ``region_ghost`` bytes on the ledger
  (the planted SN straddles the domain cut) — asserted, not plotted;
* **measured scaling**: ``force_mode="distributed"`` runs (per-rank trees
  + LET exchange) are timed, and the modeled parallel step time replaces
  the serialized per-rank phase seconds with the slowest rank's, phase by
  phase (``driver.timers[r].totals()``, the per-rank rows of the run's
  tracer — the paper's "slowest MPI process");
* **cost-model pricing**: the measured byte ledgers (migration, LET,
  region ghosts, pool round trips) are priced on Fugaku's network model
  (:func:`repro.perf.costmodel.comm_seconds_from_ledger`), and the
  Sec. 5.2 :class:`StepCostModel` extrapolates a full-scale (weakMW2M,
  148,896-node) step time — once at the paper's modeled kernel speeds and
  once rescaled by this machine's measured kernel calibration
  (``BENCH_backend_kernels.json`` via :func:`calibration_factors`);
* **overlap**: one ``shm``-transport run scores the paper's
  "inference fully overlaps" claim via :func:`serve_summary`.

The backend is the registry's selection (``$REPRO_BACKEND``, else
``numpy``), and the JSON records which backend the numbers belong to.
Results land in
``benchmarks/results/BENCH_coupled_scaling.json`` (a smoke run's in the
gitignored ``benchmarks/results/smoke/``).  Runs as a pytest bench or
standalone (the CI coupled leg):

    REPRO_BENCH_SMOKE=1 python benchmarks/bench_coupled_scaling.py
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro import GalaxySimulation
from repro.accel.backends import get_backend
from repro.core.integrator import IntegratorConfig
from repro.fdps.distributed import PHASES
from repro.fdps.particles import ParticleType
from repro.ic.galaxy import make_mw_mini
from repro.perf.calibrate import calibration_factors, load_bench
from repro.perf.costmodel import (
    PAPER_TABLE3,
    RunConfig,
    StepCostModel,
    measured_comm_breakdown,
    serve_summary,
)
from repro.perf.machines import FUGAKU

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
DT = 2e-3
LATENCY = 2
N_POOL = 3
SEED = 7

#: Paper full-scale anchor (weakMW2M): Table 3's own configuration.
ANCHOR_NODES = 148_896
ANCHOR_NLOC = 2.0e6

#: Which measured-kernel calibration row prices each model breakdown part.
KERNEL_OF_PART = {
    "interaction_gravity": "gravity",
    "interaction_density": "hydro_density",
    "interaction_hydro_force": "hydro_force",
    "kernel_size": "hydro_density",
}


def _boundary_sn_ic(n_total):
    """A mini galaxy with one SN cube straddling the 2-rank domain cut.

    The star sits at the overall median x — the (2, 1, 1) multisection cuts
    there — and six gas particles are planted on both sides of it inside
    the 60 pc region cube, with modest smoothing lengths (the IC's
    kpc-scale gas h would make the voxel deposit pathologically wide).
    """
    ps = make_mw_mini(n_total=n_total, seed=1)
    stars = np.flatnonzero(ps.where_type(ParticleType.STAR))
    gas = np.flatnonzero(ps.where_type(ParticleType.GAS))
    si = stars[0]
    ps.pos[si] = [np.median(ps.pos[:, 0]), 0.0, 0.0]
    ps.tsn[si] = 1e-3  # explodes on step 0
    rng = np.random.default_rng(3)
    ps.pos[gas[:6]] = ps.pos[si] + rng.uniform(-25.0, 25.0, size=(6, 3))
    ps.pos[gas[:3], 0] = ps.pos[si, 0] - np.abs(ps.pos[gas[:3], 0] - ps.pos[si, 0])
    ps.pos[gas[3:6], 0] = ps.pos[si, 0] + np.abs(ps.pos[gas[3:6], 0] - ps.pos[si, 0])
    ps.h[gas[:6]] = 10.0
    return ps


def _config(backend):
    # Cooling off: the planted clump is unphysically dense and makes the
    # cooling substeps stiff; scaling is about the coupling machinery.
    return IntegratorConfig(
        enable_cooling=False, enable_star_formation=False, seed=SEED,
        backend=backend,
    )


def _run(n_total, n_ranks, steps, backend, force_mode="global", transport="sync"):
    """One timed run; returns (state bytes, wall seconds, sim stats dict)."""
    kw = {} if transport == "sync" else {
        "serve_transport": transport, "serve_workers": 2,
    }
    sim = GalaxySimulation(
        _boundary_sn_ic(n_total), dt=DT, n_pool=N_POOL,
        latency_steps=LATENCY, seed=SEED, config=_config(backend),
        n_ranks=n_ranks, coupled_force_mode=force_mode, **kw,
    )
    try:
        t0 = time.perf_counter()
        sim.run(steps)
        wall = time.perf_counter() - t0
        state = sim.ps.pack().tobytes()
        out = {"n_sn_events": sim.diagnostics()["n_sn_events"]}
        if n_ranks > 1:
            runner = sim.integrator
            stats = runner.comm_stats()
            per_rank = [rank.totals() for rank in runner.driver.timers]
            slowest = sum(max(t.get(name, 0.0) for t in per_rank) for name in PHASES)
            out.update(
                comm_bytes={k: s.bytes_total for k, s in stats.items() if s.n_calls},
                comm_modeled_s=measured_comm_breakdown(stats, FUGAKU, n_ranks),
                region_ghost_bytes=stats["region_ghost"].bytes_total,
                # Replace the serialized per-rank phase seconds with the
                # slowest rank's: the parallel wall the emulation stands for.
                parallel_wall=wall - sum(sum(t.values()) for t in per_rank) + slowest,
            )
        else:
            out.update(comm_bytes={}, comm_modeled_s={}, parallel_wall=wall)
        if transport != "sync":
            out["serve"] = serve_summary(sim.server.metrics_dict())
    finally:
        sim.close()
    return state, wall, out


def _extrapolate(backend):
    """Full-scale (Table 3 anchor) step time, modeled and locally calibrated."""
    model = StepCostModel()
    cfg = RunConfig(
        machine=FUGAKU, n_nodes=ANCHOR_NODES,
        n_particles=ANCHOR_NODES * ANCHOR_NLOC,
    )
    parts = model.breakdown(cfg)
    bench_path = Path(__file__).parent / "results" / "BENCH_backend_kernels.json"
    factors = {}
    if bench_path.exists():
        bench = load_bench(bench_path)
        name = backend if backend in bench.get("backends", []) else "numpy"
        factors = calibration_factors(bench, backend=name)
    local_parts = {
        part: s / factors[KERNEL_OF_PART[part]]
        if part in KERNEL_OF_PART and KERNEL_OF_PART[part] in factors
        else s
        for part, s in parts.items()
    }
    return {
        "machine": FUGAKU.name,
        "n_nodes": ANCHOR_NODES,
        "n_particles": ANCHOR_NODES * ANCHOR_NLOC,
        "model_total_s": float(sum(parts.values())),
        "paper_total_s": PAPER_TABLE3["total"][0],
        "calibration_factors": factors,
        "local_backend_total_s": float(sum(local_parts.values())),
    }


def run_coupled_scaling(sizes, rank_plans, steps, backend):
    payload = {
        "smoke": SMOKE, "steps": steps, "dt": DT, "backend": backend,
        "sizes": sizes, "rows": [], "parity": {}, "scaling": {},
    }
    rows = []
    parallel = {}  # (n, ranks) -> parallel s/step
    for n in sizes:
        ref_state, ref_wall, ref = _run(n, 1, steps, backend)
        parallel[n, 1] = ref["parallel_wall"] / steps
        rows.append([n, 1, ref["parallel_wall"] / steps, ref_wall / steps])
        payload["rows"].append({
            "n": n, "ranks": 1, "wall_s_per_step": ref_wall / steps,
            "parallel_s_per_step": ref["parallel_wall"] / steps,
            "n_sn_events": ref["n_sn_events"],
        })

        # The headline contract: global-force 2-rank run over the shared
        # service is byte-identical, with real cross-rank region ghosts.
        state, _, chk = _run(n, 2, steps, backend, force_mode="global")
        assert state == ref_state, f"coupled parity broken at N={n}"
        assert chk["region_ghost_bytes"] > 0, f"SN cube missed the cut at N={n}"
        assert chk["n_sn_events"] == ref["n_sn_events"] >= 1
        payload["parity"][str(n)] = True

        for ranks in rank_plans.get(n, ()):
            state, wall, out = _run(
                n, ranks, steps, backend, force_mode="distributed"
            )
            assert out["region_ghost_bytes"] > 0
            parallel[n, ranks] = out["parallel_wall"] / steps
            rows.append([n, ranks, out["parallel_wall"] / steps, wall / steps])
            payload["rows"].append({
                "n": n, "ranks": ranks, "wall_s_per_step": wall / steps,
                "parallel_s_per_step": out["parallel_wall"] / steps,
                "n_sn_events": out["n_sn_events"],
                "comm_bytes": out["comm_bytes"],
                "comm_modeled_s_fugaku": out["comm_modeled_s"],
                "region_ghost_bytes": out["region_ghost_bytes"],
            })

    # Overlap probe: same workload, async transport, shared server.
    _, _, probe = _run(
        sizes[0], 2, steps, backend, force_mode="global", transport="shm"
    )
    payload["serve_overlap"] = probe["serve"]

    model = StepCostModel()

    def nl(n):
        return model.gravity_list_length(
            RunConfig(machine=FUGAKU, n_nodes=1, n_particles=float(n))
        )

    scal = payload["scaling"]
    n0 = sizes[0]
    if (2 * n0, 2) in parallel:
        # Weak scaling at n0/rank: perfect efficiency would keep the
        # parallel step time flat up to the log N interaction-list growth.
        scal["weak_efficiency"] = float(
            parallel[n0, 1] * nl(2 * n0) / nl(n0) / parallel[2 * n0, 2]
        )
    strong_n = next((n for n in sizes if (n, 2) in parallel), None)
    if strong_n is not None:
        scal["strong_n"] = strong_n
        scal["strong_efficiency"] = float(
            parallel[strong_n, 1] / (2 * parallel[strong_n, 2])
        )
    payload["extrapolation"] = _extrapolate(backend)
    return payload, rows


def _fmt_table(headers, rows):
    # Local copy of benchmarks/conftest.py:fmt_table — the standalone CI
    # entry runs without the repo root (and thus the conftest) on sys.path.
    cols = [len(h) for h in headers]
    str_rows = [[str(v) for v in row] for row in rows]
    for srow in str_rows:
        cols = [max(c, len(s)) for c, s in zip(cols, srow)]
    lines = ["  ".join(h.ljust(c) for h, c in zip(headers, cols))]
    lines.append("  ".join("-" * c for c in cols))
    for srow in str_rows:
        lines.append("  ".join(s.ljust(c) for s, c in zip(srow, cols)))
    return "\n".join(lines) + "\n"


def _fmt(payload, rows):
    text = _fmt_table(
        ["N", "ranks", "parallel s/step", "wall s/step"],
        [[n, r, f"{p:.4g}", f"{w:.4g}"] for n, r, p, w in rows],
    )
    scal = payload["scaling"]
    ex = payload["extrapolation"]
    lines = [text]
    if "weak_efficiency" in scal:
        lines.append(
            "weak-scaling efficiency "
            f"({payload['sizes'][0]}/rank, logN-compensated): "
            f"{scal['weak_efficiency']:.2f}"
        )
    if "strong_efficiency" in scal:
        lines.append(
            f"strong-scaling efficiency (N={scal['strong_n']}): "
            f"{scal['strong_efficiency']:.2f}"
        )
    lines.append(
        "serve overlap efficiency (shm, 2 workers): "
        f"{payload['serve_overlap']['overlap_efficiency']:.2f}"
    )
    lines.append(
        f"extrapolated full-scale s/step ({payload['backend']} kernels): "
        f"{ex['local_backend_total_s']:.2f} "
        f"(model: {ex['model_total_s']:.2f}, paper Table 3: "
        f"{ex['paper_total_s']:.2f})"
    )
    return "\n".join(lines) + "\n"


def _plan():
    backend = get_backend().name
    if SMOKE:
        # One weak pair (800/rank) keeps the CI leg under a minute.
        return [800, 1600], {800: [2], 1600: [2]}, 3, backend
    sizes = [2000, 4000, 8000]
    rank_plans = {2000: [2], 4000: [2, 4], 8000: [2]}
    return sizes, rank_plans, 4, backend


def test_coupled_scaling(benchmark, results_dir, write_result):
    sizes, rank_plans, steps, backend = _plan()
    payload, rows = benchmark.pedantic(
        run_coupled_scaling, args=(sizes, rank_plans, steps, backend),
        rounds=1, iterations=1,
    )
    (results_dir / "BENCH_coupled_scaling.json").write_text(
        json.dumps(payload, indent=2)
    )
    write_result("coupled_scaling", _fmt(payload, rows))
    assert all(payload["parity"].values())
    assert payload["extrapolation"]["model_total_s"] > 0


def main():
    """Standalone entry for the CI coupled leg (no pytest-benchmark needed)."""
    sizes, rank_plans, steps, backend = _plan()
    payload, rows = run_coupled_scaling(sizes, rank_plans, steps, backend)
    # A smoke run writes to the gitignored results/smoke/, never over a
    # committed result.
    results = Path(__file__).parent / "results" / ("smoke" if SMOKE else "")
    results.mkdir(parents=True, exist_ok=True)
    (results / "BENCH_coupled_scaling.json").write_text(
        json.dumps(payload, indent=2)
    )
    text = _fmt(payload, rows)
    (results / "coupled_scaling.txt").write_text(text)
    print(text)
    print("coupled scaling bench: parity held at", list(payload["parity"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
