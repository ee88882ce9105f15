"""Equivalence checks: short extra runs whose final states must agree.

Bit-identity between code paths proves the harness is exercising the paths
it claims to (shm really equals sync, two ranks really equal one); the
physics-level checks (force error, energy drift, conservation) live with
the probes and the state checks.  Which checks apply is read off the
workload's own simulation arguments, never its name.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.e2e.measure import Check, state_digest
from benchmarks.e2e.workloads import Workload

TRANSPORT_STEPS = 8
RANK_STEPS = 4
ONE_RANK_TIMED_STEPS = 8


def transport_checks(w: Workload, seed: int) -> list[Check]:
    """A worker-transport workload must end bit-identical to ``sync``."""
    digests = {}
    for transport in (w.sim_kwargs["serve_transport"], "sync"):
        with w.simulation(w.build(seed), serve_transport=transport) as sim:
            sim.run(TRANSPORT_STEPS)
            digests[transport] = state_digest(sim.ps)
    a, b = digests.values()
    name = f"{TRANSPORT_STEPS} steps {' == '.join(digests)} digest"
    return [Check(name, a == b, f"{a[:12]} {b[:12]}")]


def rank_checks(w: Workload, seed: int) -> tuple[list[Check], float]:
    """A multi-rank workload against the same IC on one rank.

    Returns the checks and the single-rank median step (wall seconds), the
    base of ``fdps.serial_emulation_ratio``.
    """
    n_ranks = w.sim_kwargs["n_ranks"]
    with w.simulation(w.build(seed), n_ranks=1) as sim:
        sim.run(RANK_STEPS)
        one_digest, one_ke = state_digest(sim.ps), sim.ps.kinetic_energy()
        steps = []
        for _ in range(ONE_RANK_TIMED_STEPS):
            t0 = time.perf_counter()
            sim.run(1)
            steps.append(time.perf_counter() - t0)
    with w.simulation(w.build(seed), coupled_force_mode="global") as sim:
        sim.run(RANK_STEPS)
        global_digest = state_digest(sim.ps)
        ghost_bytes = sim.integrator.comm_stats()["region_ghost"].bytes_total
    with w.simulation(w.build(seed)) as sim:
        sim.run(RANK_STEPS)
        ke = sim.ps.kinetic_energy()
    ke_err = abs(ke - one_ke) / abs(one_ke)
    checks = [
        Check(
            f"{RANK_STEPS} steps n_ranks={n_ranks} global == n_ranks=1 digest",
            global_digest == one_digest,
            f"{global_digest[:12]} {one_digest[:12]}",
        ),
        Check("region_ghost bytes > 0", ghost_bytes > 0, f"{ghost_bytes} B"),
        Check(
            "distributed kinetic energy within 1e-5 of single-rank",
            ke_err <= 1e-5,
            f"{ke_err:.2e}",
        ),
    ]
    return checks, statistics.median(steps)
