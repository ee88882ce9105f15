"""Microbenchmark: compute-backend kernel throughput and whole-step speedup.

For each registered backend this measures, at 5k/20k/50k particles:

* per-kernel throughput in interactions/s for the three hot kernels of
  Table 4 (tree gravity, density gather including the h iteration, and the
  half-pair hydro force), and
* the whole surrogate-leapfrog step, reported as a speedup over the
  ``seed`` backend — the pre-registry kernels frozen inside the same
  harness, so the ratio isolates exactly the kernel-layer changes.

Results land in ``benchmarks/results/BENCH_backend_kernels.json`` together
with the gravity chunk size actually chosen (``REPRO_GRAV_CHUNK`` /
``REPRO_GRAV_TEMP_MB`` satellite).  The numba rows only appear where numba
is installed (the dedicated CI leg); the acceptance floors are asserted
here: numpy >= 1.1x and, when jitted, numba >= 3x on the 20k whole step.
``repro.perf.calibrate`` consumes the JSON to calibrate the Table-4 cost
model from these local measurements.
"""

import json
import os
import time

from benchmarks.conftest import fmt_table
from repro.accel.backends import available_backends, get_backend
from repro.accel.backends.numba_backend import HAVE_NUMBA
from repro.core.integrator import IntegratorConfig
from repro.core.runner import CoupledRunner
from repro.fdps.interaction import InteractionCounter
from repro.gravity.kernels import grav_chunk_size
from repro.gravity.treegrav import tree_accel
from repro.serve import SurrogateServer
from repro.sn.turbulence import make_turbulent_box
from repro.sph.density import compute_density
from repro.sph.forces import compute_hydro_forces
from repro.surrogate.model import SedovBlastOracle, SNSurrogate

#: n_per_side -> ~5k / ~20k / ~50k particles.
SIZES = {17: "5k", 27: "20k", 37: "50k"}
WHOLE_STEP_ROUNDS = {17: 3, 27: 3, 37: 2}
ACCEPT_SIZE = "20k"


def _box(n_per_side):
    return make_turbulent_box(n_per_side=n_per_side, side=60.0, mean_density=0.05,
                              temperature=100.0, mach=2.0, seed=12)


def _whole_step_backends():
    out = ["seed", "numpy"]
    if HAVE_NUMBA:
        out.append("numba")
    return out


def _kernel_backends():
    out = ["seed", "numpy"]
    if HAVE_NUMBA:
        out.append("numba")
    if get_backend("pikg").jitted:
        out.append("pikg")
    return out


def _time_kernels(ps, backend):
    """(seconds, interactions) per kernel for one backend on one box.

    The octree is built outside the timed region (backend-independent
    work), so the gravity number measures the walk + kernel evaluation the
    backend actually owns — the quantity ``perf/calibrate.py`` converts to
    Gflop/s.
    """
    from repro.fdps.tree import Octree

    bk = get_backend(backend)
    out = {}

    tree = Octree.build(ps.pos, ps.mass, leaf_size=16)
    t0 = time.perf_counter()
    res = tree_accel(ps.pos, ps.mass, ps.eps, theta=0.5, leaf_size=16,
                     tree=tree, backend=bk)
    out["gravity"] = (time.perf_counter() - t0, res.interactions)

    counter = InteractionCounter()
    t0 = time.perf_counter()
    d = compute_density(ps.pos, ps.vel, ps.mass, ps.u, ps.h, n_ngb=32,
                        counter=counter, backend=bk)
    # Interaction convention of the seed ledger: the final gather list,
    # counted once (sweep work is proportional; identical across backends).
    out["hydro_density"] = (
        time.perf_counter() - t0, counter.interactions("hydro_density")
    )

    t0 = time.perf_counter()
    f = compute_hydro_forces(ps.pos, ps.vel, ps.mass, d.h, d.dens, d.pres, d.csnd,
                             omega=d.omega, divv=d.divv, curlv=d.curlv,
                             grid=d.grid, backend=bk)
    out["hydro_force"] = (time.perf_counter() - t0, 2 * f.n_pairs)
    return out


def _whole_step(n_per_side, backend):
    ps = _box(n_per_side)
    cfg = IntegratorConfig(self_gravity=True, enable_cooling=True,
                           enable_star_formation=False, backend=backend,
                           n_pool=5, latency_steps=5)
    surr = SNSurrogate(oracle=SedovBlastOracle(t_after=0.01), n_grid=8, side=60.0)
    sim = CoupledRunner(ps, SurrogateServer(surrogate=surr), n_ranks=1, config=cfg)
    sim.run(1)  # warm-up: startup force pass (and JIT compilation)
    rounds = WHOLE_STEP_ROUNDS[n_per_side]
    t0 = time.perf_counter()
    sim.run(rounds)
    return (time.perf_counter() - t0) / rounds


def test_backend_kernels(benchmark, results_dir, write_result):
    kernels: dict = {}
    whole: dict = {}

    def _run():
        # Warm every backend on a tiny box first so JIT compilation (numba,
        # pikg) never pollutes a measured round.
        warm = _box(9)
        for bk in _kernel_backends():
            _time_kernels(warm, bk)
        for n_side, label in SIZES.items():
            ps = _box(n_side)
            for bk in _kernel_backends():
                for kname, (s, it) in _time_kernels(ps, bk).items():
                    kernels.setdefault(kname, {}).setdefault(bk, {})[label] = {
                        "seconds": s,
                        "interactions": it,
                        "inter_per_s": it / max(s, 1e-12),
                    }
            whole[label] = {}
            for bk in _whole_step_backends():
                whole[label][bk] = {"wall_per_step_s": _whole_step(n_side, bk)}
            seed_wall = whole[label]["seed"]["wall_per_step_s"]
            for bk in _whole_step_backends():
                whole[label][bk]["speedup_vs_seed"] = (
                    seed_wall / whole[label][bk]["wall_per_step_s"]
                )
        return whole[ACCEPT_SIZE]["numpy"]["speedup_vs_seed"]

    benchmark.pedantic(_run, rounds=1, iterations=1)

    payload = {
        "available_backends": available_backends(),
        "numba_jitted": HAVE_NUMBA,
        "grav_chunk": {
            "chosen_for_group_256": grav_chunk_size(256),
            "chosen_for_group_2048": grav_chunk_size(2048),
            "env_chunk": os.environ.get("REPRO_GRAV_CHUNK"),
            "env_budget_mb": os.environ.get("REPRO_GRAV_TEMP_MB"),
        },
        "kernels": kernels,
        "whole_step": whole,
    }
    (results_dir / "BENCH_backend_kernels.json").write_text(
        json.dumps(payload, indent=2)
    )

    rows = []
    for kname, per_bk in kernels.items():
        for bk, per_size in per_bk.items():
            for label, cell in per_size.items():
                rows.append([kname, bk, label, cell["inter_per_s"] / 1e6])
    for label, per_bk in whole.items():
        for bk, cell in per_bk.items():
            rows.append(["whole_step", bk, label, cell["speedup_vs_seed"]])
    write_result(
        "backend_kernels",
        fmt_table(["kernel", "backend", "size", "Minter/s | speedup"], rows),
    )

    # Acceptance floors (ISSUE 3): bincount-scatter numpy >= 1.1x the seed
    # kernels on the 20k whole step; jitted numba >= 3x (CI numba leg).
    assert whole[ACCEPT_SIZE]["numpy"]["speedup_vs_seed"] >= 1.1
    if HAVE_NUMBA:
        assert whole[ACCEPT_SIZE]["numba"]["speedup_vs_seed"] >= 3.0
    for per_bk in kernels.values():
        for per_size in per_bk.values():
            for cell in per_size.values():
                assert cell["interactions"] > 0
