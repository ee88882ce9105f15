"""Probe pass: direct calls into single layers on a workload's live state.

Each probe calls one public function of one layer on the post-run particles
of the workload (median of ``REPEAT`` calls, wall seconds), so a layer's
cost is known on exactly the inputs the end-to-end run fed it.  A probe
whose layer the workload does not exercise (no gas, no SN sites, a coupled
run that cannot checkpoint) reports 0.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from benchmarks.e2e.provenance import pin_workers
from benchmarks.e2e.workloads import Workload
from repro import GalaxySimulation
from repro.analysis.conservation import ConservationAudit
from repro.fdps.domain import DomainDecomposition
from repro.fdps.particles import ParticleSet, ParticleType
from repro.fdps.tree import Octree
from repro.gravity.kernels import accel_direct
from repro.gravity.treegrav import tree_accel
from repro.ml.unet import UNet3D
from repro.serve import SurrogateServer
from repro.serve.wire import ServeRequest
from repro.sph.density import compute_density
from repro.sph.forces import compute_hydro_forces
from repro.sph.neighbors import NeighborGrid
from repro.surrogate.devoxelize import devoxelize_to_particles
from repro.surrogate.voxelize import extract_region, voxelize_particles

REPEAT = 5
N_REGIONS = 8
UNET_GRID = 16
DRIFT_STEPS = 10

Metrics = dict[str, tuple[float, str]]


def timed(fn, repeat: int = REPEAT):
    """(median wall seconds, last result) of ``repeat`` calls."""
    seconds, result = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds), result


def sph_probes(sim: GalaxySimulation) -> Metrics:
    ps, engine = sim.ps, sim.integrator.engine
    gas = ps.select(np.flatnonzero(ps.where_type(ParticleType.GAS)))
    names = ("density_s", "density_iters", "density_pairs", "hydro_force_s", "grid_build_s")
    if len(gas) < 2:
        return {f"sph.{name}": (0.0, "s" if name.endswith("_s") else "count") for name in names}
    n_ngb = min(engine.cfg.n_ngb, len(gas) - 1)
    density_s, d = timed(
        lambda: compute_density(
            gas.pos, gas.vel, gas.mass, gas.u, gas.h, n_ngb=n_ngb, backend=engine.backend
        )
    )
    force_s, _ = timed(
        lambda: compute_hydro_forces(
            gas.pos, gas.vel, gas.mass, d.h, d.dens, d.pres, d.csnd,
            omega=d.omega, divv=d.divv, curlv=d.curlv, grid=d.grid, backend=engine.backend,
        )
    )
    grid_s, _ = timed(lambda: NeighborGrid.build(gas.pos, float(d.h.max())))
    return {
        "sph.density_s": (density_s, "s"),
        "sph.density_iters": (d.iterations, "count"),
        "sph.density_pairs": (len(d.pairs[0]), "count"),
        "sph.hydro_force_s": (force_s, "s"),
        "sph.grid_build_s": (grid_s, "s"),
    }


def gravity_probes(sim: GalaxySimulation) -> Metrics:
    ps, engine = sim.ps, sim.integrator.engine
    cfg = engine.cfg
    build_s, tree = timed(lambda: Octree.build(ps.pos, ps.mass, leaf_size=cfg.leaf_size))
    walk_s, res = timed(
        lambda: tree_accel(
            ps.pos, ps.mass, ps.eps, theta=cfg.theta, n_g=cfg.n_g, leaf_size=cfg.leaf_size,
            mixed_precision=cfg.mixed_precision, tree=tree, backend=engine.backend,
        )
    )
    direct = accel_direct(ps.pos, ps.mass, ps.eps, backend=engine.backend)
    err = np.linalg.norm(res.acc - direct, axis=1) / np.linalg.norm(direct, axis=1)
    return {
        "fdps.tree_build_s": (build_s, "s"),
        "gravity.tree_walk_s": (walk_s, "s"),
        "gravity.force_err_p99": (float(np.percentile(err, 99)), "ratio"),
    }


def energy_drift(w: Workload, sim: GalaxySimulation) -> Metrics:
    """Relative change of kinetic + thermal + potential energy over
    ``DRIFT_STEPS`` further steps (SNe inject energy by design: 0 there).

    Runs last, after the digest is taken: the O(N^2) potential allocates
    buffers large enough to change the allocator's state, which must not
    happen before or between timed steps.
    """
    if w.sn_per_step:
        return {"gravity.energy_drift_rel": (0.0, "ratio")}
    audit = ConservationAudit(include_potential=True)
    audit.record(sim.ps, sim.time)
    sim.run(DRIFT_STEPS)
    audit.record(sim.ps, sim.time)
    first = audit.history[0].total_energy
    return {"gravity.energy_drift_rel": (abs(audit.energy_change() / first), "ratio")}


def exchange_probes(sim: GalaxySimulation) -> Metrics:
    ps = sim.ps
    fit_s, _ = timed(lambda: DomainDecomposition.fit(ps.pos, (2, 1, 1)))
    pack_s, buf = timed(ps.pack)
    unpack_s, _ = timed(lambda: ParticleSet.unpack(buf))
    return {
        "fdps.decompose_probe_s": (fit_s, "s"),
        "fdps.pack_s": (pack_s, "s"),
        "fdps.unpack_s": (unpack_s, "s"),
    }


def checkpoint_probes(sim: GalaxySimulation, scratch: Path) -> Metrics:
    """``save`` / ``restore`` round trip; 0 where the run mode cannot
    checkpoint (coupled) or a restore would spawn workers (not a disk cost)."""
    if sim.pool is None or sim.server.transport_name != "sync":
        return {
            "fdps.checkpoint_write_s": (0.0, "s"),
            "fdps.checkpoint_read_s": (0.0, "s"),
            "fdps.checkpoint_bytes": (0, "B"),
        }
    scratch.mkdir(parents=True, exist_ok=True)
    target = scratch / "probe-checkpoint"
    write_s, path = timed(lambda: sim.save(target))

    def restore() -> None:
        GalaxySimulation.restore(path).close()

    try:
        read_s, _ = timed(restore)
        size = path.stat().st_size
    finally:
        path.unlink(missing_ok=True)
    return {
        "fdps.checkpoint_write_s": (write_s, "s"),
        "fdps.checkpoint_read_s": (read_s, "s"),
        "fdps.checkpoint_bytes": (size, "B"),
    }


def _regions(sim: GalaxySimulation) -> list[tuple[ParticleSet, np.ndarray, int]]:
    """The next ``N_REGIONS`` SN regions this run would have extracted."""
    ps, side = sim.ps, sim.integrator.cfg.region_side
    due = np.flatnonzero(ps.where_type(ParticleType.STAR) & np.isfinite(ps.tsn))
    due = due[np.argsort(ps.tsn[due], kind="stable")][:N_REGIONS]
    return [
        (extract_region(ps, ps.pos[i], side)[0], ps.pos[i].copy(), int(ps.pid[i])) for i in due
    ]


def _regions_per_s(surrogate, regions, transport: str) -> float:
    """A standalone server over the same regions, one event per batch."""
    extra = {"n_workers": 1} if transport != "sync" else {}
    with SurrogateServer(
        surrogate=surrogate, transport=transport, max_batch=1, **extra
    ) as server:
        pin_workers()
        # First round trip warms the path (worker start-up is set-up, not rate).
        rounds = []
        for _ in range(2):
            w0 = time.perf_counter()
            for k, (region, center, pid) in enumerate(regions):
                server.submit(region, center, star_pid=pid, dispatch_step=k, return_step=k)
            for k in range(len(regions)):
                server.tick(k)
            done = server.collect(len(regions))
            rounds.append(time.perf_counter() - w0)
        if len(done) != len(regions):
            raise RuntimeError(f"{transport} server returned {len(done)}/{len(regions)} regions")
    return len(regions) / rounds[-1]


def surrogate_probes(w: Workload, sim: GalaxySimulation) -> Metrics:
    names = {
        "surrogate.extract_s": "s", "surrogate.voxelize_s": "s", "surrogate.predict_s": "s",
        "surrogate.devoxelize_s": "s", "surrogate.region_particles": "count",
        "serve.wire_encode_s": "s", "serve.wire_decode_s": "s",
        "serve.sync_regions_per_s": "1/s", "serve.shm_regions_per_s": "1/s",
    }
    regions = _regions(sim) if w.sn_per_step else []
    if not regions:
        return {name: (0.0, unit) for name, unit in names.items()}
    ps, side = sim.ps, sim.integrator.cfg.region_side
    surrogate = sim.server.local_surrogate
    rows: dict[str, list[float]] = {name: [] for name in names}

    def clock(name: str, fn, *args):
        seconds, result = timed(lambda: fn(*args), repeat=1)
        rows[name].append(seconds)
        return result

    for region, center, pid in regions:
        clock("surrogate.extract_s", extract_region, ps, center, side)
        grid = clock(
            "surrogate.voxelize_s", voxelize_particles,
            region, center, surrogate.side, surrogate.n_grid,
        )
        predicted = clock("surrogate.predict_s", surrogate.predict_fields, grid)
        clock(
            "surrogate.devoxelize_s", devoxelize_to_particles,
            predicted, region, np.random.default_rng(pid), surrogate.gibbs_sweeps,
        )
        rows["surrogate.region_particles"].append(len(region))
        request = ServeRequest(
            event_id=0, base_seed=0, star_pid=pid, dispatch_step=0, return_step=1,
            center=center, region=region,
        )
        wire = np.empty_like(request.to_buffer())
        clock("serve.wire_encode_s", request.encode_into, wire)
        clock("serve.wire_decode_s", ServeRequest.from_buffer, wire)
    out_metrics = {
        name: (statistics.median(values), names[name]) for name, values in rows.items() if values
    }
    for transport in ("sync", "shm"):
        out_metrics[f"serve.{transport}_regions_per_s"] = (
            _regions_per_s(surrogate, regions, transport), "1/s",
        )
    return out_metrics


def unet_probes() -> Metrics:
    """Fixed-seed U-Net forward at 16^3.  No workload serves the U-Net yet
    (all serve the Sedov oracle); recorded so one can be sized later."""
    net = UNet3D(seed=0)
    x = np.random.default_rng(0).standard_normal((4, net.in_channels, *(UNET_GRID,) * 3))
    b1, _ = timed(lambda: net.forward(x[0]))
    b4, _ = timed(lambda: net.forward_batch(x))
    return {"ml.unet_forward_b1_s": (b1, "s"), "ml.unet_forward_b4_s": (b4, "s")}


def run_probes(w: Workload, sim: GalaxySimulation, scratch: Path) -> Metrics:
    return {
        **sph_probes(sim),
        **gravity_probes(sim),
        **exchange_probes(sim),
        **checkpoint_probes(sim, scratch),
        **surrogate_probes(w, sim),
        **unet_probes(),
        **energy_drift(w, sim),
    }
