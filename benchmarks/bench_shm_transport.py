"""Shm-transport benchmark: zero-copy serving at the paper's 64^3 grid.

Measures the claims the ``shm`` transport makes against ``sync`` with
payload-heavy SN regions at n_grid in {16, 32, 64}:

1. **Parity is bit-exact**: both transports return byte-identical
   particle predictions for the same submissions, at every grid —
   asserted on the full (event -> packed fields) mapping, for the Sedov
   oracle at all grids and for a trained, exported U-Net.
2. **Zero-copy means zero fallbacks**: every request at every grid
   travels in its slot of the batch's shared block
   (``n_shm_fallback == 0``), so no payload ever crossed a pipe.

Regions/s is recorded per transport and grid, end to end and *through the
transport layer* (wall-clock minus the in-predictor seconds, which are
bit-identical code on both transports) — recorded, not asserted.

Results land in ``benchmarks/results/BENCH_shm_transport.json``.  Smoke
mode (``REPRO_BENCH_SMOKE=1``, the CI serve leg) runs the 16^3 column
only and keeps the parity + fallback assertions.
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import fmt_table
from repro.fdps.particles import ParticleSet, ParticleType
from repro.serve import SurrogateServer, SurrogateSpec

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
GRIDS = (16,) if SMOKE else (16, 32, 64)
N_REGIONS = 4 if SMOKE else 6
ROUNDS = 1 if SMOKE else 3
#: Payload-heavy regions (the regime the transport exists for): ~16k
#: particles is ~3.7 MB of packed FIELDS per request and per response.
N_PARTICLES = 2000 if SMOKE else 16000
SMOOTHING_H = 0.9          # keeps the 64^3 voxelize stencil compact
GIBBS_SWEEPS = 1
LATENCY = 4
TRANSPORTS = ("sync", "shm")


def _region(n, seed):
    rng = np.random.default_rng(seed)
    ps = ParticleSet.from_arrays(
        pos=rng.uniform(-28, 28, (n, 3)),
        mass=rng.uniform(0.5, 2.0, n),
        pid=np.arange(n) + 100_000 * seed,
        ptype=np.full(n, int(ParticleType.GAS)),
    )
    ps.u[:] = rng.uniform(10, 60, n)
    ps.h[:] = SMOOTHING_H
    return ps


def _server(transport, spec, surrogate=None):
    kwargs = dict(max_batch=1)
    if transport == "shm":
        kwargs["n_workers"] = 1     # one serving process
    return SurrogateServer(
        surrogate=surrogate, spec=spec, transport=transport, **kwargs
    )


def _drive(server, regions):
    """Submit everything, drain, return (wall_s, worker_busy_s, results)."""
    t0 = time.perf_counter()
    for k, region in enumerate(regions):
        server.submit(region, np.zeros(3), star_pid=k,
                      dispatch_step=0, return_step=LATENCY)
    results = {r.event_id: r.particles.pack() for r in server.collect_all()}
    wall = time.perf_counter() - t0
    # Predictor seconds, wherever they ran: worker busy time for shm,
    # inline predict time for sync.  Bit-identical code either
    # way, so subtracting it isolates the transport layer.
    busy = (
        sum(server.metrics.worker_busy_s.values())
        + server.metrics.inline_predict_s
    )
    return wall, busy, results


def _measure(n_grid, regions):
    """Per-transport rates and byte-level parity at one grid size."""
    spec = SurrogateSpec(
        kind="oracle", n_grid=n_grid, side=60.0, gibbs_sweeps=GIBBS_SWEEPS
    )
    rows = {}
    reference = None
    for transport in TRANSPORTS:
        walls, overheads = [], []
        for _ in range(ROUNDS):
            with _server(transport, spec) as srv:
                wall, busy, results = _drive(srv, regions)
                if transport == "shm":
                    assert srv.metrics.n_shm_fallback == 0, (
                        "a request missed its shm slot"
                    )
            walls.append(wall)
            overheads.append(max(wall - busy, 0.0))
            if reference is None:
                reference = results
            else:
                assert results.keys() == reference.keys()
                for eid, packed in reference.items():
                    assert np.array_equal(results[eid], packed), (
                        f"{transport} diverged from sync on event {eid} "
                        f"at n_grid={n_grid}"
                    )
        wall = min(walls)
        rows[transport] = {
            "regions_per_s": len(regions) / wall,
            "wall_s": wall,
            "transport_overhead_s": max(min(overheads), 1e-9),
            "transport_regions_per_s": len(regions) / max(min(overheads), 1e-9),
        }
    return rows


def _trained_model_parity(results_n_grid=16):
    """train -> save_model -> spec(kind='model'): parity across transports."""
    from repro.ml.serialize import save_model
    from repro.ml.train import train_model
    from repro.ml.unet import UNet3D
    from repro.surrogate.training_data import build_dataset

    ds = build_dataset(4, base_seed=0, n_grid=8, n_per_side=8)
    net = UNet3D(in_channels=8, out_channels=5, base_channels=2, depth=1, seed=0)
    train_model(net, ds.inputs, ds.targets, epochs=2, lr=1e-3, val_fraction=0.25,
                seed=0)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(net, os.path.join(tmp, "bench_unet"))
        spec = SurrogateSpec(kind="model", model_path=str(path), n_grid=8,
                             side=60.0, gibbs_sweeps=GIBBS_SWEEPS)
        regions = [_region(200, seed=50 + k) for k in range(3)]
        reference = None
        for transport in TRANSPORTS:
            with _server(transport, spec) as srv:
                _, _, results = _drive(srv, regions)
            if reference is None:
                reference = results
            else:
                for eid, packed in reference.items():
                    assert np.array_equal(results[eid], packed), transport
    return True


def test_shm_transport(benchmark, results_dir, write_result):
    regions = [_region(N_PARTICLES, seed=k) for k in range(N_REGIONS)]
    payload_bytes = int(regions[0].pack().nbytes)

    per_grid = {}
    for n_grid in GRIDS:
        per_grid[str(n_grid)] = benchmark.pedantic(
            _measure, args=(n_grid, regions), rounds=1, iterations=1
        ) if n_grid == GRIDS[0] else _measure(n_grid, regions)

    trained_parity = _trained_model_parity()

    payload = {
        "smoke": SMOKE,
        "n_regions": N_REGIONS,
        "n_particles_per_region": N_PARTICLES,
        "request_payload_bytes": payload_bytes,
        "rounds": ROUNDS,
        "grids": {
            g: {t: dict(rows[t]) for t in TRANSPORTS}
            for g, rows in per_grid.items()
        },
        "bit_identical_across_transports": True,   # asserted above
        "trained_model_parity": trained_parity,
    }
    (results_dir / "BENCH_shm_transport.json").write_text(
        json.dumps(payload, indent=2)
    )

    rows = []
    for g, grid_rows in per_grid.items():
        for t in TRANSPORTS:
            r = grid_rows[t]
            rows.append([
                f"{g}^3 {t}",
                f"{r['regions_per_s']:.2f}",
                f"{r['transport_regions_per_s']:.1f}",
                f"{r['transport_overhead_s'] * 1e3:.0f}",
            ])
    write_result(
        "shm_transport",
        fmt_table(
            ["grid/transport", "regions/s", "transport regions/s", "overhead [ms]"],
            rows,
        ),
    )

