"""The four named workloads: seeded generators + the simulation each runs.

Every generator is a pure function of ``seed`` and returns a pid-sorted
:class:`~repro.fdps.particles.ParticleSet`; the simulation under test only
ever sees the generated particles (its own ``seed`` stays 0).  Closed loop,
one client — the integrator — at the paper's ``dt = 2e-3`` Myr.

SN workloads plant one star per global step (``tsn = (k + 0.5) dt``) so
every timed step extracts, ships, predicts and merges exactly one region:
the per-step load is uniform and a median is not a coin-flip between SN
and quiet steps.  ``MAX_STEPS`` stars are planted; the timed loop stops
there, so no step ever runs out of events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from benchmarks.e2e.provenance import pin_workers
from repro import GalaxySimulation
from repro.core.integrator import IntegratorConfig
from repro.fdps.particles import ParticleSet, ParticleType
from repro.ic.galaxy import MW_SPEC, make_mw_mini, make_mw_model
from repro.sn.turbulence import make_turbulent_box

DT = 2.0e-3
#: Stars planted by the SN workloads = the most steps one run can take.
MAX_STEPS = 256


def _planted_stars(pos: np.ndarray, first_pid: int) -> ParticleSet:
    """One SN progenitor per global step at the given sites."""
    n = len(pos)
    stars = ParticleSet.from_arrays(
        pos=pos,
        mass=np.full(n, 10.0),
        pid=np.arange(first_pid, first_pid + n),
        ptype=np.full(n, int(ParticleType.STAR)),
        eps=np.full(n, 1.0),
    )
    stars.tsn[:] = (np.arange(n) + 0.5) * DT
    return stars


def halo_gravity(seed: int) -> ParticleSet:
    return make_mw_mini(HALO_N, seed=seed)


def gas_disk(seed: int) -> ParticleSet:
    """A gas-rich mini galaxy whose gas disk is cut at a fixed mass fraction.

    The exponential disk's sparsest few particles (far out in R or z) would
    set ``h_max`` — and with it the neighbor grid's cell and the whole
    density solve's cost — to an extreme-value statistic of the seed: 0.16
    to 0.28 s per step across six seeds.  Keeping the ``DISK_KEEP`` of the
    gas with the nearest 32nd neighbour makes the step cost a property of
    the workload, not of the draw.  The fraction is a trade: the sparse
    tail is what makes the density solve expensive (``accel.hydro_s`` is
    59% of the step with 0.9 kept, 53% with 0.8), and of 80 draws at
    N = 2000 the h-solve ran to its iteration cap on every step (three
    times the step) in fourteen with 0.95 kept, in two with 0.9.
    """
    ps = make_mw_model(
        DISK_N, seed=seed, spec=MW_SPEC.scaled(0.01), count_fractions=DISK_FRACTIONS
    )
    gas = np.flatnonzero(ps.where_type(ParticleType.GAS))
    to_32nd = cKDTree(ps.pos[gas]).query(ps.pos[gas], k=33)[0][:, -1]
    dropped = gas[np.argsort(to_32nd, kind="stable")][round(DISK_KEEP * len(gas)):]
    return ps.select(np.setdiff1d(np.arange(len(ps)), dropped))


def sn_storm(seed: int) -> ParticleSet:
    box = make_turbulent_box(n_per_side=STORM_PER_SIDE, side=STORM_SIDE, seed=seed)
    rng = np.random.default_rng([seed, 1])
    # Keep each 60 pc region cube inside the box.
    half = STORM_SIDE / 2.0 - 30.0
    sites = rng.uniform(-half, half, size=(MAX_STEPS, 3))
    return box.append(_planted_stars(sites, len(box)))


def cluster_2rank(seed: int) -> ParticleSet:
    """Collisionless halo + a gas clump sitting on the 2-rank cut.

    The (2, 1, 1) multisection cuts at the median x, so a box centred there
    has gas on both ranks and every SN within ±5 pc of the cut needs
    ``region_ghost`` particles from the other side.
    """
    halo = make_mw_mini(CLUSTER_HALO_N, seed=seed)
    halo = halo.select(~halo.where_type(ParticleType.GAS))
    box = make_turbulent_box(n_per_side=CLUSTER_PER_SIDE, side=CLUSTER_SIDE, seed=seed)
    n_halo = len(halo)
    halo.pid[:] = np.arange(n_halo)
    box.pid[:] = np.arange(n_halo, n_halo + len(box))
    cut = np.array([np.median(halo.pos[:, 0]), 0.0, 0.0])
    box.pos += cut
    rng = np.random.default_rng([seed, 2])
    half = CLUSTER_SIDE / 2.0 - 30.0
    sites = cut + np.column_stack(
        [
            rng.uniform(-5.0, 5.0, MAX_STEPS),
            rng.uniform(-half, half, MAX_STEPS),
            rng.uniform(-half, half, MAX_STEPS),
        ]
    )
    return halo.append(box).append(_planted_stars(sites, n_halo + len(box)))


# Sizes: small enough that a run of BENCHMARK.json's length holds 30+ timed
# steps on a 2-core box, large enough that the layer each workload is named
# for still dominates its step (README.md has the measured shares).
HALO_N = 4000
DISK_N = 2500
DISK_FRACTIONS = (0.02, 0.02, 0.96)        # dm, star, gas particle counts
DISK_KEEP = 0.9
STORM_PER_SIDE, STORM_SIDE = 12, 180.0    # ~64 gas particles per 60 pc cube
CLUSTER_HALO_N, CLUSTER_PER_SIDE, CLUSTER_SIDE = 2000, 8, 96.0


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], ParticleSet]
    #: Keyword arguments of ``GalaxySimulation`` beyond ``ps`` and ``dt``.
    sim_kwargs: dict = field(default_factory=dict)
    star_formation: bool = True
    warmup_steps: int = 2
    sn_per_step: bool = False
    #: What makes this workload the one it is named for, checked on every
    #: full traced run: per-layer metric -> least share of the step its
    #: self time must take, and per-layer metric -> the value it must have.
    min_step_share: dict[str, float] = field(default_factory=dict)
    exact: dict[str, float] = field(default_factory=dict)

    def simulation(self, ps: ParticleSet, **override) -> GalaxySimulation:
        """The simulation this workload runs on ``ps`` (``override`` swaps
        single arguments for the equivalence checks), its serve workers
        pinned off the main loop's CPU."""
        sim = GalaxySimulation(
            ps,
            dt=DT,
            config=IntegratorConfig(enable_star_formation=self.star_formation),
            **{**self.sim_kwargs, **override},
        )
        pin_workers()
        return sim


_SERVE = {"surrogate_grid": 8, "n_pool": 8, "serve_max_batch": 1}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "halo_gravity",
            halo_gravity,
            min_step_share={"accel.gravity_s": 0.90},
        ),
        Workload(
            "gas_disk",
            gas_disk,
            min_step_share={"accel.hydro_s": 0.55},
            exact={"accel.fastpath_share": 1.0},
        ),
        Workload(
            "sn_storm",
            sn_storm,
            sim_kwargs={
                **_SERVE, "serve_transport": "shm", "serve_workers": 1, "latency_steps": 4,
            },
            star_formation=False,
            warmup_steps=6,
            sn_per_step=True,
            exact={
                "accel.fastpath_share": 0.0,
                "serve.exposed_wait_s_per_step": 0.0,
                "serve.shm_fallback_share": 0.0,
            },
        ),
        Workload(
            "cluster_2rank",
            cluster_2rank,
            sim_kwargs={
                **_SERVE, "n_ranks": 2, "coupled_force_mode": "distributed", "latency_steps": 2,
            },
            star_formation=False,
            warmup_steps=3,
            sn_per_step=True,
            min_step_share={"fdps.forces_s": 0.50},
        ),
    )
}
