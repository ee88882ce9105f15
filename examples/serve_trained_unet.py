"""Serve a trained, exported U-Net through the inference service — Sec. 3.3.

The full production deployment path of the paper, end to end:

1. train the 3D U-Net surrogate on Sedov-in-turbulence pairs;
2. export it with :func:`repro.ml.serialize.save_model` (the ONNX-like
   CPU deployment artifact);
3. describe it as a picklable ``SurrogateSpec(kind="model")`` — every pool
   worker loads the export itself, no weights cross a queue;
4. serve SN regions through :class:`repro.serve.SurrogateServer` on the
   zero-copy ``shm`` transport, and verify the predictions are
   bit-identical to the deterministic in-process ``sync`` transport.

Run:  python examples/serve_trained_unet.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.fdps.particles import ParticleSet, ParticleType
from repro.ml.serialize import save_model
from repro.ml.train import train_model
from repro.ml.unet import UNet3D
from repro.perf.costmodel import serve_summary
from repro.serve import SurrogateServer, SurrogateSpec
from repro.surrogate.training_data import build_dataset

N_GRID = 8         # paper: 64^3; small so the demo trains in seconds
N_TRAIN = 12
EPOCHS = 20
N_EVENTS = 6
LATENCY_STEPS = 4


def make_region(n: int, seed: int) -> ParticleSet:
    rng = np.random.default_rng(seed)
    ps = ParticleSet.from_arrays(
        pos=rng.uniform(-28, 28, (n, 3)),
        mass=rng.uniform(0.5, 2.0, n),
        pid=np.arange(n) + 100_000 * seed,
        ptype=np.full(n, int(ParticleType.GAS)),
    )
    ps.u[:] = rng.uniform(10, 60, n)
    ps.h[:] = 8.0
    return ps


def serve_events(spec: SurrogateSpec, transport: str) -> dict[int, np.ndarray]:
    """Dispatch N_EVENTS regions, collect all predictions, pack them."""
    with SurrogateServer(
        spec=spec, transport=transport, n_workers=2, max_batch=2
    ) as server:
        for k in range(N_EVENTS):
            server.submit(
                make_region(80, seed=k), center=np.zeros(3), star_pid=k,
                dispatch_step=0, return_step=LATENCY_STEPS,
            )
        packed = {
            r.event_id: r.particles.pack() for r in server.collect(LATENCY_STEPS)
        }
        metrics = server.metrics_dict()
    if transport == "shm":
        summary = serve_summary(metrics)
        print(f"  [{transport}] zero-copy fraction "
              f"{summary['shm_zero_copy_fraction']:.2f}, "
              f"{metrics['bytes_in'] + metrics['bytes_out']} wire bytes, "
              f"{metrics['n_batches']} batches")
    return packed


def main() -> None:
    # --- 1-2. train and export -----------------------------------------------
    print(f"training the U-Net ({N_TRAIN} pairs, {N_GRID}^3 grid) ...")
    ds = build_dataset(N_TRAIN, base_seed=0, n_grid=N_GRID, n_per_side=10)
    net = UNet3D(in_channels=8, out_channels=5, base_channels=4, depth=1, seed=0)
    hist = train_model(net, ds.inputs, ds.targets, epochs=EPOCHS, lr=2e-3,
                       val_fraction=0.25, seed=0, patience=8)
    print(f"  {len(hist.train)} epochs, best val {hist.best_val:.3f} "
          f"(weights restored to that snapshot)")
    with tempfile.TemporaryDirectory() as deploy_dir:
        export = save_model(net, Path(deploy_dir) / "trained_unet")  # suffix normalized
        print(f"  exported to {export}")

        # --- 3. the worker-buildable recipe -----------------------------------
        spec = SurrogateSpec(kind="model", model_path=str(export),
                             n_grid=N_GRID, side=60.0)

        # --- 4. serve on both transports, compare bytes -----------------------
        print(f"serving {N_EVENTS} SN regions through the trained model ...")
        results = {t: serve_events(spec, t) for t in ("sync", "shm")}
    for eid, packed in results["sync"].items():
        assert np.array_equal(results["shm"][eid], packed), eid
    print("predictions bit-identical across sync / shm transports")


if __name__ == "__main__":
    main()
