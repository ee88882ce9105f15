"""Serve-subsystem benchmark: batched inference throughput + pool overlap.

Measures the two claims the `repro.serve` subsystem makes:

1. **Batching pays**: coalescing SN regions through
   ``SNSurrogate.predict_fields_batch`` (one batched U-Net forward instead
   of a per-region loop) raises inference regions/s — floor asserted at
   >= 1.5x serial for batch >= 4 (the CI smoke floor).
2. **Overlap works**: with the ``shm`` transport, predictions run on
   worker processes while the main loop keeps integrating; overlap
   efficiency — the fraction of inference wall-clock hidden from the main
   path — lands >= 80% with 2 workers (asserted outside smoke mode, where
   CI runners may not have the cores to show it).

Everything is recorded in ``benchmarks/results/BENCH_serve_throughput.json``
so future PRs can compare regions/s and overlap vs pool-worker count.
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import fmt_table
from repro.fdps.particles import ParticleSet, ParticleType
from repro.ml.unet import UNet3D
from repro.perf.costmodel import serve_summary
from repro.serve import SurrogateServer, SurrogateSpec
from repro.surrogate.model import SNSurrogate
from repro.surrogate.voxelize import voxelize_particles

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
N_GRID = 8
BATCH_SIZES = (1, 4, 8)
WORKER_COUNTS = (1, 2)
LATENCY = 8


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


def _unet_surrogate():
    net = UNet3D(in_channels=8, out_channels=5, base_channels=2, depth=2, seed=0)
    return SNSurrogate(predictor=net, n_grid=N_GRID, side=60.0)


def _batched_inference_rates(n_rounds):
    """Field-space inference regions/s, serial vs batched."""
    surr = _unet_surrogate()
    grids = [
        voxelize_particles(_region(seed=k), np.zeros(3), 60.0, N_GRID)
        for k in range(max(BATCH_SIZES))
    ]
    surr.predict_fields_batch(grids[:2])  # warm-up
    rates = {}
    for b in BATCH_SIZES:
        t0 = time.perf_counter()
        done = 0
        for _ in range(n_rounds):
            surr.predict_fields_batch(grids[:b])
            done += b
        rates[b] = done / (time.perf_counter() - t0)
    return rates


def _worker_scaling(n_regions):
    """End-to-end server regions/s (submit -> collect_all) vs workers."""
    spec = SurrogateSpec(kind="oracle", n_grid=12, side=60.0, t_after=0.1)
    out = {}
    for label, kwargs in [
        ("sync", dict(transport="sync")),
        *((f"shm-{w}", dict(transport="shm", n_workers=w)) for w in WORKER_COUNTS),
    ]:
        with SurrogateServer(spec=spec, max_batch=4, **kwargs) as srv:
            t0 = time.perf_counter()
            for k in range(n_regions):
                srv.submit(_region(seed=k), np.zeros(3), star_pid=k,
                           dispatch_step=0, return_step=LATENCY)
            srv.collect_all()
            out[label] = n_regions / (time.perf_counter() - t0)
    return out


def _overlap_run(transport, n_workers, n_steps, main_step_s):
    """A simulated main loop: one SN per step + a fixed-duration step.

    The integration step is represented by a fixed wall-clock latency
    (``time.sleep``) rather than CPU spin: on a core-starved runner a
    CPU-bound main loop would serialize with the worker processes *by
    construction*, hiding what this benchmark actually measures — whether
    the service keeps inference off the main loop's critical path.  Returns
    (wall seconds, serve_summary dict).
    """
    spec = SurrogateSpec(kind="oracle", n_grid=12, side=60.0, t_after=0.1)
    with SurrogateServer(
        spec=spec, transport=transport, n_workers=n_workers,
        max_batch=2, max_wait_steps=0,
    ) as srv:
        t0 = time.perf_counter()
        for step in range(n_steps):
            srv.submit(_region(seed=step), np.zeros(3), star_pid=step,
                       dispatch_step=step, return_step=step + LATENCY)
            srv.tick(step)
            time.sleep(main_step_s)             # the "integration" work
            srv.collect(step)
        srv.collect_all()
        wall = time.perf_counter() - t0
        summary = serve_summary(srv.metrics_dict())
    return wall, summary


def test_serve_throughput(benchmark, results_dir, write_result):
    n_rounds = 4 if SMOKE else 12
    n_regions = 8 if SMOKE else 24
    n_steps = 10 if SMOKE else 40

    rates = benchmark.pedantic(
        _batched_inference_rates, args=(n_rounds,), rounds=1, iterations=1
    )
    scaling = _worker_scaling(n_regions)

    # Calibrate the main step to ~1.5x one region's inference cost, so the
    # workers have the headroom to hide everything.
    spec = SurrogateSpec(kind="oracle", n_grid=12, side=60.0, t_after=0.1)
    with SurrogateServer(spec=spec, transport="sync") as cal:
        for k in range(4):
            cal.submit(_region(seed=k), np.zeros(3), star_pid=k,
                       dispatch_step=0, return_step=1)
        t0 = time.perf_counter()
        cal.collect_all()
        per_region = (time.perf_counter() - t0) / 4
    main_step_s = max(1.5 * per_region, 2e-3)

    t_main = n_steps * main_step_s
    t_sync, sync_summary = _overlap_run("sync", 0, n_steps, main_step_s)
    t_shm, shm_summary = _overlap_run("shm", 2, n_steps, main_step_s)
    inference_s = max(t_sync - t_main, 1e-9)
    overlap_efficiency = min(max((t_sync - t_shm) / inference_s, 0.0), 1.0)

    payload = {
        "smoke": SMOKE,
        "n_grid": N_GRID,
        "inference_regions_per_s": {str(b): rates[b] for b in BATCH_SIZES},
        "batched_speedup_vs_serial": {
            str(b): rates[b] / rates[1] for b in BATCH_SIZES
        },
        "server_regions_per_s": scaling,
        "overlap": {
            "n_steps": n_steps,
            "main_step_s": main_step_s,
            "wall_main_only_s": t_main,
            "wall_sync_s": t_sync,
            "wall_shm_2w_s": t_shm,
            "overlap_efficiency": overlap_efficiency,
            "sync_summary": sync_summary,
            "shm_summary": shm_summary,
        },
    }
    (results_dir / "BENCH_serve_throughput.json").write_text(
        json.dumps(payload, indent=2)
    )

    rows = [
        [f"inference regions/s (batch {b})", f"{rates[b]:.1f}"]
        for b in BATCH_SIZES
    ]
    rows += [
        [f"speedup vs serial (batch {b})", f"{rates[b] / rates[1]:.2f}x"]
        for b in BATCH_SIZES[1:]
    ]
    rows += [[f"server regions/s ({k})", f"{v:.1f}"] for k, v in scaling.items()]
    rows += [
        ["wall main-only [s]", f"{t_main:.3f}"],
        ["wall sync (inference inline) [s]", f"{t_sync:.3f}"],
        ["wall shm 2 workers [s]", f"{t_shm:.3f}"],
        ["overlap efficiency", f"{overlap_efficiency:.2f}"],
        ["shm worker utilization", f"{shm_summary['worker_utilization']:.2f}"],
    ]
    write_result("serve_throughput", fmt_table(["metric", "value"], rows))

    # CI smoke floor: batching must pay >= 1.5x at batch >= 4.
    assert rates[4] >= 1.5 * rates[1], (
        f"batched inference only {rates[4] / rates[1]:.2f}x serial at batch 4"
    )
    # Sanity: the sync transport exposes all inference on the main path.
    assert sync_summary["overlap_efficiency"] == 0.0
    if not SMOKE:
        # The acceptance floor: >= 80% of inference wall-clock hidden.
        assert overlap_efficiency >= 0.8, (
            f"overlap efficiency {overlap_efficiency:.2f} < 0.8"
        )
        assert shm_summary["overlap_efficiency"] >= 0.8
