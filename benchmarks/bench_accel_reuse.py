"""Microbenchmark: spatial-structure reuse across integrator steps.

Records what the accel refactor is supposed to guarantee — at most one
neighbor-grid build per density solve and at most one octree build per step
in the steady state, with step (7) running on cached pair lists — plus the
single-step wall-clock, so the performance trajectory of the ~20k-particle
integrator lands in ``benchmarks/results/BENCH_accel_reuse.json`` for every
future PR to compare against.
"""

import json
import time

from benchmarks.conftest import fmt_table
from repro.core.integrator import IntegratorConfig
from repro.core.runner import CoupledRunner
from repro.serve import SurrogateServer
from repro.sn.turbulence import make_turbulent_box
from repro.surrogate.model import SedovBlastOracle, SNSurrogate

#: ~20k gas particles: the acceptance-criterion configuration.
N_PER_SIDE = 27
N_STEPS = 3


def _make_sim() -> CoupledRunner:
    ps = make_turbulent_box(n_per_side=N_PER_SIDE, side=60.0, mean_density=0.05,
                            temperature=100.0, mach=2.0, seed=12)
    cfg = IntegratorConfig(self_gravity=True, enable_cooling=True,
                           enable_star_formation=False, n_pool=5, latency_steps=5)
    surr = SNSurrogate(oracle=SedovBlastOracle(t_after=0.01), n_grid=8, side=60.0)
    return CoupledRunner(ps, SurrogateServer(surrogate=surr), n_ranks=1, config=cfg)


def test_accel_reuse(benchmark, results_dir, write_result):
    sim = _make_sim()
    sim.run(1)  # warm-up: pays the startup force evaluation
    stats = sim.engine.index.stats
    stats.reset()

    def _run():
        t0 = time.perf_counter()
        sim.run(N_STEPS)
        return (time.perf_counter() - t0) / N_STEPS

    wall_per_step = benchmark.pedantic(_run, rounds=1, iterations=1)

    # One density solve per steady step (step 7 reuses cached pairs), so
    # grid builds per density solve == grid builds per step here.
    grid_builds_per_step = stats.grid_builds / N_STEPS
    tree_builds_per_step = stats.tree_builds / N_STEPS
    payload = {
        "n_particles": len(sim.ps),
        "n_steps": N_STEPS,
        "wall_per_step_s": wall_per_step,
        "grid_builds_per_step": grid_builds_per_step,
        "tree_builds_per_step": tree_builds_per_step,
        "index_stats": stats.as_dict(),
        "fast_path_active": sim.engine.fast_path_available,
    }
    (results_dir / "BENCH_accel_reuse.json").write_text(json.dumps(payload, indent=2))

    rows = [
        ["wall clock / step [s]", wall_per_step],
        ["grid builds / density solve", grid_builds_per_step],
        ["tree builds / step", tree_builds_per_step],
        ["grid reuses", stats.grid_reuses],
        ["tree reuses", stats.tree_reuses],
    ]
    write_result("accel_reuse", fmt_table(["metric", "value"], rows))

    assert grid_builds_per_step <= 1.0
    assert tree_builds_per_step <= 1.0
    assert sim.engine.fast_path_available
