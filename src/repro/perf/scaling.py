"""Scaling sweeps (Figs. 6–7) and time-to-solution (Sec. 5.3).

The weak-scaling series keeps particles-per-node fixed (2M on Fugaku,
25M per MPI process on Rusty) and sweeps node counts; the strong-scaling
series fixes the total and divides.  Each point is a full cost-model
breakdown, so the benchmark can print the same per-part curves the figures
plot, including the ~log N growth of the weak-scaling total that the paper
draws as its dashed guide line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf.costmodel import RunConfig, StepCostModel
from repro.perf.machines import Machine


@dataclass
class ScalingPoint:
    """One node count in a scaling sweep."""

    n_nodes: int
    n_particles: float
    total_seconds: float
    breakdown: dict[str, float]
    achieved_pflops: float
    efficiency: float


def weak_scaling_curve(
    machine: Machine,
    node_counts: list[int],
    particles_per_node: float = 2.0e6,
    gas_fraction: float = 4.9e10 / 3.0e11,
    n_g: int = 2048,
) -> list[ScalingPoint]:
    """Fig. 6/7 (left): fixed per-node load, growing system."""
    model = StepCostModel()
    out = []
    for p in node_counts:
        cfg = RunConfig(
            machine=machine,
            n_nodes=p,
            n_particles=particles_per_node * p,
            gas_fraction=gas_fraction,
            n_g=n_g,
        )
        bd = model.breakdown(cfg)
        out.append(
            ScalingPoint(
                n_nodes=p,
                n_particles=cfg.n_particles,
                total_seconds=sum(bd.values()),
                breakdown=bd,
                achieved_pflops=model.achieved_pflops(cfg),
                efficiency=model.efficiency(cfg),
            )
        )
    return out


def strong_scaling_curve(
    machine: Machine,
    node_counts: list[int],
    n_particles: float,
    gas_fraction: float = 4.9e10 / 3.0e11,
    n_g: int = 2048,
) -> list[ScalingPoint]:
    """Fig. 6/7 (right): fixed total, divided over more nodes."""
    model = StepCostModel()
    out = []
    for p in node_counts:
        cfg = RunConfig(
            machine=machine,
            n_nodes=p,
            n_particles=n_particles,
            gas_fraction=gas_fraction,
            n_g=n_g,
        )
        bd = model.breakdown(cfg)
        out.append(
            ScalingPoint(
                n_nodes=p,
                n_particles=n_particles,
                total_seconds=sum(bd.values()),
                breakdown=bd,
                achieved_pflops=model.achieved_pflops(cfg),
                efficiency=model.efficiency(cfg),
            )
        )
    return out


def weak_scaling_efficiency(points: list[ScalingPoint]) -> float:
    """Efficiency of the largest run vs the smallest, log N compensated.

    The paper: "Considering the increase of the calculation cost with
    log N, the efficiency of 148k nodes is 54% of 128 nodes."
    """
    first, last = points[0], points[-1]
    lognfac = np.log2(last.n_particles) / np.log2(first.n_particles)
    return float(first.total_seconds * lognfac / last.total_seconds)


# ------------------------------------------------------------ Sec. 5.3 maths
def time_to_solution_speedup(
    n_particles: float = 3.0e11,
    seconds_per_step: float = 20.0,
    dt_years: float = 2000.0,
    gizmo_particles: float = 1.5e8,
    gizmo_hours_per_myr: float = 0.0125,
) -> dict:
    """The 113x arithmetic of Sec. 5.3, reproduced step by step.

    GIZMO's fastest MW-size run integrates 1.5e8 particles for 1 Myr in
    0.0125 h and stops scaling beyond ~2,000 CPUs; scaling its cost to our
    particle count requires the N^{4/3} law (N for volume x N^{1/3} for the
    adaptive-timestep shrinkage), against which our fixed-timestep cost is
    steps x seconds_per_step.
    """
    steps_per_myr = 1.0e6 / dt_years
    ours_hours = steps_per_myr * seconds_per_step / 3600.0
    ratio = n_particles / gizmo_particles
    gizmo_hours = ratio ** (4.0 / 3.0) * gizmo_hours_per_myr
    return {
        "ours_hours_per_myr": ours_hours,
        "gizmo_hours_per_myr": gizmo_hours,
        "speedup": gizmo_hours / ours_hours,
        "steps_per_myr": steps_per_myr,
    }


def timestep_ratio_vs_conventional(
    dt_ml_years: float = 2000.0, dt_conventional_years: float = 200.0
) -> float:
    """The 10x timestep claim: fixed ML step over the post-SN CFL step."""
    return dt_ml_years / dt_conventional_years


def projected_one_gyr_walltime(
    seconds_per_step: float = 10.0, dt_years: float = 2000.0
) -> dict:
    """Sec. 5.1's closing estimate: ~60 days for a Gyr at 10 s/step."""
    steps = 1.0e9 / dt_years
    seconds = steps * seconds_per_step
    return {"steps": steps, "seconds": seconds, "days": seconds / 86400.0}
