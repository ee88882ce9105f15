"""``CoupledRunner`` — the one host of the surrogate-coupled step (Sec. 3.2).

The paper runs one code from one node to 148,900; so does this repo.
:class:`CoupledRunner` is ``n_ranks`` simulated main ranks (``n_ranks=1``
included — the same code with no cut) plus ``n_pool`` shared pool ranks on
two ledgers:

* the *driver communicator* (``DistributedGravity.comm``) carries domain
  migration (``exchange_particles``), LET traffic, and the cross-rank
  SN-region ghosts (``region_ghost``);
* the *pool communicator* carries every rank's SN-region round trips under
  the ``pool_p2p`` label, with pool ranks placed after all main ranks
  (``pool_rank_base = n_ranks``).

:meth:`CoupledRunner.step` is the eight-step loop:

1. identify stars exploding between t and t + dt_global;
2. pick up the (60 pc)^3 box around each and send it to a pool node;
3. first kick, drift, force evaluation, second kick — *without adding any
   feedback energy*;
4. receive predicted particles from pool nodes and replace by particle ID;
5. decompose the domain and exchange particles;
6. create new stars, calculate cooling;
7. recalculate kernel sizes and hydro forces after the internal-energy
   changes;
8. repeat.

Phase order, timer labels (the Fig. 6/Table 3 categories), pool
flush/collect placement and the float grouping of the kicks are defined
there and nowhere else; :class:`~repro.core.integrator.BaseIntegrator`
supplies the physics operators.

The particle state is independent of where the cuts fall (``n_ranks``,
flat or torus collectives, transport) — a hard contract, kept by
construction:

* the canonical particle state stays one global pid-sorted
  :class:`~repro.fdps.particles.ParticleSet`; per-rank local sets are
  materialized views (copies) used for the communication phases, so the
  exchanged bytes are real while the physics state never round-trips
  through the wire format;
* SN events are dispatched in **global index order** (= pid order) through
  each owner rank's :class:`~repro.core.pool.PoolManager`; all managers
  share one :class:`~repro.serve.SurrogateServer` and one
  :class:`~repro.core.pool.PoolOccupancy`, so event ids, pool-node
  bookings, return steps and per-event Gibbs seeds
  (``event_rng(base_seed, star_pid, dispatch_step)`` — rank-free) do not
  depend on the owner map;
* a region whose cube crosses the owner's domain box is completed with
  ghost particles pulled through
  :meth:`~repro.fdps.distributed.DistributedGravity.exchange_region_ghosts`
  and pid-sorted, so its content *and order* match an extraction from the
  global set;
* received predictions are merged across ranks and applied in event-id
  order.

``force_mode="global"`` (default) evaluates forces on the global
:class:`~repro.accel.ForceEngine` — bit-identical for every ``n_ranks``,
with every communication phase still paid for on the ledgers.
``force_mode="distributed"`` runs gravity through the full per-rank
tree + LET pipeline instead (tree-code-accurate, not bitwise-equal): the
mode the coupled scaling benchmark measures.
"""

from __future__ import annotations

import resource

import numpy as np

from repro.core.integrator import BaseIntegrator, IntegratorConfig
from repro.core.pool import PoolManager, PoolOccupancy
from repro.fdps.comm import CommStats, SimComm
from repro.fdps.distributed import DistributedGravity
from repro.fdps.particles import ParticleSet, ParticleType
from repro.obs.trace import NullTracer, Tracer
from repro.physics.cooling import CoolingModel
from repro.physics.star_formation import StarFormationModel
from repro.physics.stellar import exploding_between
from repro.serve import SurrogateServer
from repro.surrogate.voxelize import extract_region


class CoupledRunner(BaseIntegrator):
    """Surrogate-coupled integration on ``n_ranks`` main ranks, one service.

    Parameters
    ----------
    ps : the global particle set (must be pid-sorted with unique pids —
        the invariant that makes global index order and pid order one and
        the same thing, whatever the owner map).
    server : the shared :class:`~repro.serve.SurrogateServer`; every
        rank's :class:`~repro.core.pool.PoolManager` is a client of it.
    n_ranks : number of simulated main ranks (1 = no cut).
    use_torus : route the driver communicator's collectives through the
        3-phase 3D torus alltoallv.
    force_mode : ``"global"`` (bit-identical, default) or
        ``"distributed"`` (per-rank trees + LET exchange for gravity).
    """

    def __init__(
        self,
        ps: ParticleSet,
        server: SurrogateServer,
        n_ranks: int,
        config: IntegratorConfig | None = None,
        cooling: CoolingModel | None = None,
        star_formation: StarFormationModel | None = None,
        tracer: Tracer | NullTracer | None = None,
        use_torus: bool = False,
        force_mode: str = "global",
    ) -> None:
        if n_ranks < 1:
            raise ValueError("need at least one main rank")
        if force_mode not in ("global", "distributed"):
            raise ValueError(f"unknown force_mode {force_mode!r}")
        if len(ps) and np.any(np.diff(ps.pid) <= 0):
            raise ValueError(
                "CoupledRunner requires a pid-sorted particle set with "
                "unique pids (global index order must equal pid order)"
            )
        super().__init__(ps, config, cooling, star_formation, tracer=tracer)
        cfg = self.cfg
        self.n_ranks = int(n_ranks)
        self.force_mode = force_mode
        self.server = server
        self.driver = DistributedGravity(
            n_ranks=self.n_ranks,
            theta=cfg.theta,
            n_g=cfg.n_g,
            leaf_size=cfg.leaf_size,
            use_torus=use_torus,
            mixed_precision=cfg.mixed_precision,
            backend=cfg.backend,
            tracer=self.tracer,
        )
        #: Pool traffic rides its own world: ``n_ranks`` mains + the pool.
        self.pool_comm = SimComm(self.n_ranks + cfg.n_pool, tracer=self.tracer)
        self.occupancy = PoolOccupancy(n_pool=cfg.n_pool)
        self.pools = [
            PoolManager(
                n_pool=cfg.n_pool,
                latency_steps=cfg.latency_steps,
                seed=cfg.seed,
                comm=self.pool_comm,
                main_rank=r,
                server=server,
                pool_rank_base=self.n_ranks,
                client_id=r,
                occupancy=self.occupancy,
            )
            for r in range(self.n_ranks)
        ]
        self.decomp, self.owner = self.driver.decompose(ps)
        if force_mode == "global":
            # The engine does the gravity: part of every tree pass goes to a
            # helper process started now, with the affinity this process has
            # (repro.accel.gravity_helper).
            self.engine.start_gravity_helper(len(ps))

    # ----------------------------------------------------------- run control
    def step(self) -> None:
        """One fixed-dt surrogate-coupled step (the Sec. 3.2 eight-step loop)."""
        dt = self.cfg.dt
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with self.tracer.span("step", step=self.step_count) as span:
            # (1) identify SNe in [t, t + dt).  The window is open below so
            # an *overdue* tsn also fires (a finite past tsn can only mean a
            # checkpoint restore re-scheduled an SN whose prediction was in
            # flight at save time).
            with self.timers.measure("Identify_SNe"):
                exploding = self.identify_sne(dt)

            # (2) ship each SN region to a pool node, then flush due batches
            # so inference runs overlapped with (3) instead of landing on
            # the collect.
            with self.timers.measure("Send_SNe"):
                self.send_sne(exploding)
                self.flush_pools()

            # (3) KDK without feedback energy.
            if not self.forces_ready:
                self.compute_forces("1st")
            with self.timers.measure("Integration"):
                self.kick(0.5 * dt)
                self.drift(dt)
            self.compute_forces("1st")
            with self.timers.measure("Final_kick"):
                self.kick(0.5 * dt)

            # (4) receive due predictions, replace by particle ID.
            with self.timers.measure("Receive_SNe"):
                self.receive_sne()

            # (5) domain decomposition / particle exchange.
            self.redistribute(dt)

            # (6) star formation and cooling.
            self.apply_star_formation(dt)
            self.apply_cooling(dt)

            # (7) recompute hydro after the internal-energy changes.
            self.refresh_hydro()

            # (8) advance the global clock; repeat.
            self.time += dt
            self.step_count += 1
            if self.tracer.enabled:
                # Main's resident high-water so far (ru_maxrss is in KiB) and
                # the minor page faults it took in this step.
                usage = resource.getrusage(resource.RUSAGE_SELF)
                rss_mb = usage.ru_maxrss / 1024.0
                faults = usage.ru_minflt - minflt
                span.set(rss_mb=rss_mb, minor_faults=faults)
                self.tracer.gauge("obs.rss_mb", rss_mb)
                self.tracer.count("obs.minor_faults", faults)

    def run(self, n_steps: int) -> None:
        for _ in range(n_steps):
            self.step()

    def run_until(self, t_end: float, max_steps: int = 10_000_000) -> None:
        while self.time < t_end and self.step_count < max_steps:
            self.step()

    # -------------------------------------------------------------- locals
    def _locals(self) -> list[ParticleSet]:
        """Per-rank copies of the canonical set (current ownership)."""
        return [self.ps.select(self.owner == r) for r in range(self.n_ranks)]

    # ---------------------------------------------------------------- phases
    def identify_sne(self, dt: float) -> np.ndarray:
        """Step (1): global indices of stars exploding in [t, t + dt)."""
        ps = self.ps
        stars = np.flatnonzero(ps.where_type(ParticleType.STAR))
        local = exploding_between(ps.tsn[stars], -np.inf, self.time + dt)
        return stars[local]

    def send_sne(self, exploding: np.ndarray) -> None:
        """Step (2): complete each owner's region with cross-rank ghosts,
        then dispatch in global index order through the owner's pool client.

        The ghost exchange runs first (one collective for all of this
        step's events); the dispatch loop then walks events in ascending
        global index — pid order — so the shared server assigns the same
        event ids and the shared occupancy books the same pool nodes
        wherever the cuts fall.
        """
        if len(exploding) == 0:
            return
        ps, cfg = self.ps, self.cfg
        owners = [int(self.owner[si]) for si in exploding]
        centers = [ps.pos[si].copy() for si in exploding]
        locals_ = self._locals()
        ghosts = self.driver.exchange_region_ghosts(
            locals_, list(zip(owners, centers, strict=True)), cfg.region_side
        )
        for k, si in enumerate(exploding):
            r = owners[k]
            region, _idx = extract_region(
                locals_[r],
                centers[k],
                cfg.region_side,
                domain=self.decomp.domain_box(r),
                ghosts=ghosts[k],
            )
            self.pools[r].dispatch(
                region, centers[k], int(ps.pid[si]), float(ps.tsn[si]),
                self.step_count,
            )
            ps.tsn[si] = np.inf  # fires exactly once
            self.n_sn_events += 1

    def flush_pools(self) -> None:
        # Server ticks are idempotent within a step; every client flushes so
        # the first one (whichever rank dispatched) ships the due batches.
        for pool in self.pools:
            pool.flush(self.step_count)

    def receive_sne(self) -> None:
        """Step (4): gather every rank's due predictions, apply in event-id
        order — the order the server assigned at dispatch.

        Three things happen, in this order: the predicted particles replace
        their originals by ID; their ``h`` — a pool node's guess from its
        predicted density field — is capped at the largest ``h`` of the gas
        that stayed (``region_side`` when none stayed), because the neighbor
        grid's cell is the largest ``h`` and one overestimate would coarsen
        it for every gas particle; and the engine is told *which rows* landed
        with new coordinates
        (:meth:`~repro.accel.ForceEngine.notify_rows_moved`), not that
        everything moved.  Step (7) then solves on the neighbor grid of
        step (3), edited for these rows, instead of binning and generating
        candidates for all the gas a second time — and only for the gas the
        replacement touched: the rest keeps step (3)'s kernel sizes and
        sums, bit for bit what a full solve would find.

        Nothing here fits ``h`` to the merged set: the re-inserted particles
        and the gas around them — whose ``h`` was solved for neighbors that
        have just left — are found by the first sweep of step (7)'s
        kernel-size solve (they are the ones outside tolerance) and closed
        in on by its bracketed update (:mod:`repro.sph.density`), which needs
        no better seed than this.
        """
        pairs: list = []
        for pool in self.pools:
            pairs.extend(pool.collect(self.step_count))
        pairs.sort(key=lambda ep: ep[0].event_id)
        if not pairs:
            return
        ps = self.ps
        pids = np.concatenate([predicted.pid for _event, predicted in pairs])
        slot = np.minimum(np.searchsorted(ps.pid, pids), len(ps) - 1)
        rows = slot[ps.pid[slot] == pids]       # pid order == row order
        for _event, predicted in pairs:
            ps.replace_by_pid(predicted)
        if rows.size:
            stayed = ps.where_type(ParticleType.GAS)
            stayed[rows] = False
            h_cap = ps.h[stayed].max() if stayed.any() else self.cfg.region_side
            ps.h[rows] = np.minimum(ps.h[rows], h_cap)
            # Predicted particles land with new coordinates.
            self.engine.notify_rows_moved(ps, rows)

    def redistribute(self, dt: float) -> None:
        """Step (5): genuine re-decomposition and particle migration.

        The decomposition is refit on the (post-drift) global positions and
        the per-rank local sets migrate their emigrants through the driver's
        alltoallv — full packed particles, charged to the
        ``exchange_particles`` ledger exactly as a real multi-rank run pays
        them.  The canonical state never leaves ``self.ps``; only the owner
        map changes.
        """
        locals_ = self._locals()
        weights = (
            self.engine.work_weights(self.ps)
            if self.force_mode == "global" and self.forces_ready
            else None
        )
        self.decomp, self.owner = self.driver.decompose(self.ps, weights=weights)
        self.driver.exchange_particles(locals_, self.decomp)

    # --------------------------------------------------------------- forces
    def compute_forces(self, label: str = "1st") -> None:
        if self.force_mode == "global":
            super().compute_forces(label)
            return
        # Distributed gravity: per-rank cached trees + LET imports.  The
        # local sets are fresh copies, so the per-rank spatial caches from
        # the previous pass never match — invalidate rather than risk reuse.
        for index in self.driver.indices:
            index.invalidate_all()
        locals_ = self._locals()
        if self.cfg.self_gravity:
            accs = self.driver.forces(locals_, self.decomp, counter=self.counter)
            pid = np.concatenate([loc.pid for loc in locals_])
            acc = np.concatenate(accs) if len(pid) else np.zeros((0, 3))
            order = np.argsort(pid, kind="stable")
            # acc[order] is pid-sorted == row order of the canonical set.
            self._grav_acc = acc[order]
        else:
            self._grav_acc = np.zeros((len(self.ps), 3))
        self._hydro_acc, self._du_dt, self._vsig = self._hydro(label)
        self._first_forces_done = True

    # ------------------------------------------------------------ membership
    def _replace_particle_set(self, new_ps: ParticleSet) -> None:
        """Star formation changed the membership: remap the owner array.

        Surviving particles keep their owner (found by pid in the old,
        sorted, pid array); newly formed stars are assigned by position
        against the current decomposition.
        """
        old_pid = self.ps.pid
        super()._replace_particle_set(new_ps)
        new_pid = new_ps.pid
        slot = np.searchsorted(old_pid, new_pid)
        slot_c = np.minimum(slot, max(len(old_pid) - 1, 0))
        survived = (
            (slot < len(old_pid)) & (old_pid[slot_c] == new_pid)
            if len(old_pid)
            else np.zeros(len(new_pid), dtype=bool)
        )
        owner = np.empty(len(new_pid), dtype=np.int64)
        owner[survived] = self.owner[slot[survived]]
        fresh = ~survived
        if fresh.any():
            owner[fresh] = self.decomp.assign(new_ps.pos[fresh])
        self.owner = owner

    # ------------------------------------------------------------ accounting
    def comm_stats(self) -> dict[str, CommStats]:
        """Merged byte ledger: driver labels + the shared pool traffic.

        The label sets are disjoint by construction (``pool_p2p`` lives on
        the pool communicator; migration/LET/ghost labels on the driver's).
        """
        merged = dict(self.driver.comm.stats)
        merged.update(self.pool_comm.stats)
        return merged

    def pool_summary(self) -> dict:
        events = [e for pool in self.pools for e in pool.events]
        returned = sum(1 for e in events if e.returned)
        return {
            "n_events": len(events),
            "n_returned": returned,
            "n_in_flight": self.server.n_outstanding,
            "n_overflow": self.server.metrics.n_overflow,
            "total_region_particles": sum(e.n_region_particles for e in events),
            "total_region_bytes": sum(e.region_bytes for e in events),
            "per_rank_events": [len(pool.events) for pool in self.pools],
            "service": self.server.metrics_dict(),
        }

    def diagnostics(self) -> dict:
        out = super().diagnostics()
        out["n_ranks"] = self.n_ranks
        out["force_mode"] = self.force_mode
        out["rank_counts"] = np.bincount(
            self.owner, minlength=self.n_ranks
        ).tolist()
        return out

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the shared service once (all pools are its clients),
        stop and reap the engine's gravity helper, and hand back the force
        passes' tile scratch — tens of MB that would otherwise live as long
        as anything still refers to this run.  Idempotent."""
        self.server.close()
        self.engine.close()
        self.driver.release_workspace()
