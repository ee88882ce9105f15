"""``CoupledRunner`` — the one step host of both arms of Sec. 5.3.

The paper runs one code from one node to 148,900; so does this repo.
:class:`CoupledRunner` is ``n_ranks`` simulated main ranks (``n_ranks=1``
included — the same code with no cut) plus ``n_pool`` shared pool ranks on
two ledgers:

* the *driver communicator* (``DistributedGravity.comm``) carries domain
  migration (``exchange_particles``), LET traffic, and the cross-rank
  SN-region ghosts (``region_ghost``);
* the *pool communicator* (``pool.comm``, built only with a server)
  carries every rank's SN-region round trips under the ``pool_p2p``
  label, with pool ranks placed after all main ranks
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

Phase order, span names (the Fig. 6/Table 3 categories), pool
flush/collect placement and the float grouping of the kicks are defined
there and nowhere else.  The same class holds the physics operators —
forces, kicks, drift, cooling, star formation and the step-(7) hydro
refresh — around one :class:`~repro.accel.ForceEngine`: a single tree
build serves the gravity walk, one neighbor grid serves every kernel-size
sweep and the hydro force pass, and step (7) re-evaluates hydro on the
pair lists cached in step (3) instead of paying a second full density
solve.

With ``server=None`` the same loop is the *conventional* arm (what the
paper calls "conventional simulation" in Sec. 5.3): there is no pool, step
(2) explodes each SN in place with the direct thermal dump of
:class:`~repro.physics.feedback.SNFeedback`, step (4) receives nothing, and
dt is the gas's CFL step at the start of the step — forces are computed
first if they are not ready — clipped to ``[DT_MIN, cfg.dt]``.  After an
SN that step collapses (~10x at star-by-star resolution) while the
surrogate arm holds ``cfg.dt``; :meth:`CoupledRunner.step` returns the dt
taken in either arm.

The particle state is independent of where the cuts fall (``n_ranks``,
flat or torus collectives, transport) — a hard contract, kept by
construction:

* the canonical particle state stays one global pid-sorted
  :class:`~repro.fdps.particles.ParticleSet`; per-rank local sets are
  materialized views (copies) used for the communication phases, so the
  exchanged bytes are real while the physics state never round-trips
  through the wire format;
* SN events are dispatched in **global index order** (= pid order)
  through the run's one :class:`~repro.core.pool.PoolManager`, each from
  its owner rank (``main_rank``); one server and one busy calendar serve
  every rank, so event ids, pool-node bookings, return steps and
  per-event Gibbs seeds (``event_rng(base_seed, star_pid, dispatch_step)``
  — rank-free) do not depend on the owner map;
* a region whose cube crosses the owner's domain box is completed with
  ghost particles pulled through
  :meth:`~repro.fdps.distributed.DistributedGravity.exchange_region_ghosts`
  and pid-sorted, so its content *and order* match an extraction from the
  global set;
* received predictions are applied in event-id order, the order the
  server delivers them in.

``force_mode="global"`` (default) evaluates forces on the global
:class:`~repro.accel.ForceEngine` — bit-identical for every ``n_ranks``,
with every communication phase still paid for on the ledgers.
``force_mode="distributed"`` runs gravity through the full per-rank
tree + LET pipeline instead (tree-code-accurate, not bitwise-equal): the
mode the coupled scaling benchmark measures.  In either mode the engine's
gravity helper, started at construction, shares the gravity pass — groups
of the global tree pass, or whole ranks of the distributed one.
"""

from __future__ import annotations

import resource

import numpy as np

from repro.accel import ForceEngine
from repro.core.integrator import IntegratorConfig
from repro.core.pool import PoolManager
from repro.fdps.comm import CommStats, SimComm
from repro.fdps.distributed import PHASES, DistributedGravity
from repro.fdps.interaction import InteractionCounter
from repro.fdps.particles import ParticleSet, ParticleType
from repro.obs.trace import Tracer
from repro.physics.cooling import CoolingModel
from repro.physics.feedback import SNFeedback
from repro.physics.star_formation import StarFormationModel
from repro.physics.stellar import exploding_between
from repro.serve import SurrogateServer
from repro.sph.timestep import cfl_timestep
from repro.surrogate.voxelize import extract_region
from repro.util.leapfrog import energy_kick, leapfrog_drift, leapfrog_kick

#: The conventional arm's floor on the CFL step [Myr] and its SN feedback.
DT_MIN = 1.0e-7
FEEDBACK = SNFeedback()


class CoupledRunner:
    """Surrogate-coupled integration on ``n_ranks`` main ranks, one service.

    Parameters
    ----------
    ps : the global particle set (must be pid-sorted with unique pids —
        the invariant that makes global index order and pid order one and
        the same thing, whatever the owner map).
    server : the :class:`~repro.serve.SurrogateServer` of the run's one
        :class:`~repro.core.pool.PoolManager` (``pool``), which every main
        rank dispatches through.  ``None`` runs the conventional arm: no
        pool, SNe explode in place, CFL step (see the module docstring).
    n_ranks : number of simulated main ranks (1 = no cut).
    config / cooling / star_formation : the physics (defaults when None).
    tracer : the run's :class:`~repro.obs.Tracer`, the one clock of every
        phase bracket (a disabled one when None).
    use_torus : route the driver communicator's collectives through the
        3-phase 3D torus alltoallv.
    force_mode : ``"global"`` (bit-identical, default) or
        ``"distributed"`` (per-rank trees + LET exchange for gravity).
    """

    def __init__(
        self,
        ps: ParticleSet,
        server: SurrogateServer | None,
        n_ranks: int,
        config: IntegratorConfig | None = None,
        cooling: CoolingModel | None = None,
        star_formation: StarFormationModel | None = None,
        tracer: Tracer | None = None,
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
        self.ps = ps
        self.cfg = cfg = config or IntegratorConfig()
        self.cooling = cooling or CoolingModel()
        self.star_formation = star_formation or StarFormationModel()
        self.time = 0.0
        self.step_count = 0
        # Every phase bracket below is a sim-category span on it, so the
        # in-process Table-3 rows and the exported trace are the same spans.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.counter = InteractionCounter()
        self.engine = ForceEngine(cfg, tracer=self.tracer, counter=self.counter)
        self.rng = np.random.default_rng(cfg.seed)
        self.next_pid = int(ps.pid.max()) + 1 if len(ps) else 0
        self.n_sf_events = 0
        self.n_sn_events = 0
        self.sf_history: list[tuple[float, float]] = []  # (time, mass formed)
        self._grav_acc = np.zeros((len(ps), 3))
        self._hydro_acc = np.zeros((len(ps), 3))
        self._du_dt = np.zeros(len(ps))
        self._vsig = np.zeros(len(ps))
        self._first_forces_done = False
        self.n_ranks = int(n_ranks)
        self.force_mode = force_mode
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
        #: The one pool client; its traffic rides its own world of
        #: ``n_ranks`` mains + the pool.
        self.pool: PoolManager | None = None if server is None else PoolManager(
            server=server,
            n_pool=cfg.n_pool,
            latency_steps=cfg.latency_steps,
            seed=cfg.seed,
            comm=SimComm(self.n_ranks + cfg.n_pool, tracer=self.tracer),
            pool_rank_base=self.n_ranks,
        )
        self.decomp, self.owner = self.driver.decompose(ps)
        # Part of every gravity pass — groups of the engine's tree pass, or
        # whole ranks of DistributedGravity's — goes to a helper process
        # started now, with the affinity this process has
        # (repro.accel.gravity_helper).
        self.engine.start_gravity_helper(len(ps))

    @property
    def _acc(self) -> np.ndarray:
        return self._grav_acc + self._hydro_acc

    @property
    def forces_ready(self) -> bool:
        """True once stored forces are valid for the current membership."""
        return self._first_forces_done

    # ----------------------------------------------------------- run control
    def step(self) -> float:
        """One step of the Sec. 3.2 eight-step loop; returns the dt taken."""
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with self.tracer.span("step", step=self.step_count) as span:
            if self.pool is None:
                # Conventional arm: the CFL step of the gas as it stands.
                if not self.forces_ready:
                    self.compute_forces("1st")
                dt = float(np.clip(self.gas_cfl_timestep(), DT_MIN, self.cfg.dt))
            else:
                dt = self.cfg.dt
            # (1) identify SNe in [t, t + dt).  The window is open below so
            # an *overdue* tsn also fires (a finite past tsn can only mean a
            # checkpoint restore re-scheduled an SN whose prediction was in
            # flight at save time).
            with self.tracer.span("Identify_SNe"):
                exploding = self.identify_sne(dt)

            # (2) ship each SN region to a pool node, then flush due batches
            # so inference runs overlapped with (3) instead of landing on
            # the collect (with no server: explode each SN in place).
            with self.tracer.span("Send_SNe"):
                self.send_sne(exploding)
                self.flush_pools()

            # (3) KDK without feedback energy.
            if not self.forces_ready:
                self.compute_forces("1st")
            with self.tracer.span("Integration"):
                self.kick(0.5 * dt)
                self.drift(dt)
            self.compute_forces("1st")
            with self.tracer.span("Final_kick"):
                self.kick(0.5 * dt)

            # (4) receive due predictions, replace by particle ID.
            with self.tracer.span("Receive_SNe"):
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
        return dt

    def timing_breakdown(self) -> dict[str, float]:
        """Seconds per bracket of the step host and its force engine (the
        Fig. 6 categories): not the ``step`` span around them, nor the
        driver's per-rank :data:`~repro.fdps.distributed.PHASES`."""
        totals = self.tracer.totals(cat="sim", rank=self.tracer.rank)
        return {name: s for name, s in totals.items() if name != "step" and name not in PHASES}

    def run(self, n_steps: int) -> None:
        for _ in range(n_steps):
            self.step()

    def run_until(self, t_end: float, max_steps: int = 10_000_000) -> int:
        """Step until ``t_end`` or ``max_steps`` steps of this call; returns
        the number of steps taken."""
        start = self.step_count
        while self.time < t_end and self.step_count - start < max_steps:
            self.step()
        return self.step_count - start

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
        then dispatch each from its owner rank in global index order (with
        no server, each SN explodes in place instead).

        The ghost exchange runs first (one collective for all of this
        step's events); the dispatch loop then walks events in ascending
        global index — pid order — so the server assigns the same event ids
        and the pool books the same pool nodes wherever the cuts fall.
        """
        if len(exploding) == 0:
            return
        ps, cfg, pool = self.ps, self.cfg, self.pool
        if pool is None:
            # Conventional arm: the direct thermal dump the surrogate bypasses.
            for si in exploding:
                FEEDBACK.inject(ps, ps.pos[si])
                ps.tsn[si] = np.inf
                self.n_sn_events += 1
            return
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
            pool.dispatch(
                region, centers[k], int(ps.pid[si]), float(ps.tsn[si]),
                self.step_count, main_rank=r,
            )
            ps.tsn[si] = np.inf  # fires exactly once
            self.n_sn_events += 1

    def flush_pools(self) -> None:
        """Ship the pool's due batches (after step (2)'s dispatch loop)."""
        if self.pool is not None:
            self.pool.flush(self.step_count)

    def receive_sne(self) -> None:
        """Step (4): apply the due predictions in event-id order — the
        order the server assigned at dispatch and delivers in.

        Three things happen, in this order: the predicted particles replace
        their originals by ID; their ``h`` — a pool node's guess from its
        predicted density field — is capped at the largest ``h`` of the gas
        that stayed (``region_side`` when none stayed), because the neighbor
        grid's cell is the largest ``h`` and one overestimate would coarsen
        it for every gas particle; and the engine is told *which rows* landed
        with new coordinates
        (:meth:`~repro.accel.ForceEngine.notify_rows_moved`), not that
        everything moved.  Step (7) then runs the full density solve: on
        step (3)'s neighbor grid, edited for these rows, when step (3) left
        the full candidate list, instead of binning and generating
        candidates for all the gas a second time; on a fresh grid when it
        left a reach list.

        Nothing here fits ``h`` to the merged set: the re-inserted particles
        and the gas around them — whose ``h`` was solved for neighbors that
        have just left — are found by the first sweep of step (7)'s
        kernel-size solve (they are the ones outside tolerance) and closed
        in on by its bracketed update (:mod:`repro.sph.density`), which needs
        no better seed than this.
        """
        if self.pool is None:
            return
        pairs = self.pool.collect(self.step_count)
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
        """Full force evaluation; stores acc/du_dt/vsig for the kicks.

        ``force_mode="global"``: gravity and hydro are two independent
        passes over the same positions — gravity reads only
        ``pos``/``mass``/``eps``, which the SPH pass never writes — so they
        overlap: after both passes' inputs are checked (a ``ValueError``
        names the first non-finite row, before anything is shipped), the
        tree pass goes out to the engine's gravity helper
        (:meth:`ForceEngine.submit_gravity`), this process runs density +
        hydro, then :meth:`ForceEngine.gravity` claims its share of the
        groups and collects the helper's.  The result is bit-identical to
        running the two passes one after the other; an exception in between
        leaves no pass in flight.

        ``force_mode="distributed"``: gravity runs through the per-rank
        trees and LET imports of the driver, then hydro on the engine.
        """
        ps, engine = self.ps, self.engine
        if self.force_mode == "global":
            engine.check_sph_inputs(ps)
            if self.cfg.self_gravity:
                engine.submit_gravity(ps)
            try:
                self._hydro_acc, self._du_dt, self._vsig = engine.hydro(ps, label)
                self._grav_acc = (
                    engine.gravity(ps, label) if self.cfg.self_gravity
                    else np.zeros((len(ps), 3))
                )
            finally:
                engine.drain_gravity()
        else:
            # The local sets are fresh copies, so the per-rank spatial caches
            # from the previous pass never match — invalidate rather than
            # risk reuse.
            for index in self.driver.indices:
                index.invalidate_all()
            locals_ = self._locals()
            if self.cfg.self_gravity:
                accs = self.driver.forces(
                    locals_, self.decomp, counter=self.counter, engine=engine
                )
                pid = np.concatenate([loc.pid for loc in locals_])
                acc = np.concatenate(accs) if len(pid) else np.zeros((0, 3))
                order = np.argsort(pid, kind="stable")
                # acc[order] is pid-sorted == row order of the canonical set.
                self._grav_acc = acc[order]
            else:
                self._grav_acc = np.zeros((len(ps), 3))
            self._hydro_acc, self._du_dt, self._vsig = engine.hydro(ps, label)
        self._first_forces_done = True

    def kick(self, dt: float) -> None:
        """Velocity + internal-energy kick over ``dt`` (callers pass the
        half step; the primitives keep the historical float grouping)."""
        leapfrog_kick(self.ps.vel, self._acc, dt)
        energy_kick(self.ps.u, self._du_dt, dt)

    def drift(self, dt: float) -> None:
        """Advance positions; every spatial structure is now stale."""
        leapfrog_drift(self.ps.pos, self.ps.vel, dt)
        self.engine.notify_positions_changed()

    # -------------------------------------------------------------- operators
    def apply_cooling(self, dt: float) -> None:
        # Cooling only moves u: the spatial caches stay valid.
        if not self.cfg.enable_cooling:
            return
        ps = self.ps
        gas = np.flatnonzero(ps.where_type(ParticleType.GAS))
        if gas.size == 0:
            return
        with self.tracer.span("Feedback_and_Cooling"):
            ps.u[gas] = self.cooling.integrate(
                ps.u[gas], ps.dens[gas], dt, z=ps.zmet[gas].sum(axis=1)
            )

    def apply_star_formation(self, dt: float) -> None:
        if not self.cfg.enable_star_formation:
            return
        with self.tracer.span("Star Formation"):
            new_ps, events, self.next_pid = self.star_formation.form_stars(
                self.ps, self.time, dt, self.rng, self.next_pid
            )
        if events:
            self.n_sf_events += len(events)
            mass_formed = float(sum(e.star_masses.sum() for e in events))
            self.sf_history.append((self.time, mass_formed))
            self._replace_particle_set(new_ps)

    def refresh_hydro(self) -> None:
        """Step (7): recompute hydro after the internal-energy changes.

        The gravity computed in step (3) is at the current (post-drift)
        positions, so the next first kick can reuse it; only the hydro state
        is stale once cooling/feedback touched u.  When positions are
        untouched since (3) the engine re-evaluates on the cached pair lists
        (no h solve, no neighbor search); if SN replacements moved particles
        it falls back to the full density + hydro solve over all the gas —
        on the neighbor grid of (3) edited for the replaced rows where that
        edit was exact, else on a fresh grid — and if star formation
        changed the membership ``_replace_particle_set`` already flagged a
        full recompute for the next step.  Either way this was the step's
        last hydro evaluation: the candidate lists go.
        """
        if not self._first_forces_done:
            return
        refreshed = self.engine.refresh_hydro(self.ps, "2nd")
        if refreshed is None:
            refreshed = self.engine.hydro(self.ps, "2nd")
        self._hydro_acc, self._du_dt, self._vsig = refreshed
        self.engine.release_candidates()

    # ------------------------------------------------------------ membership
    def _replace_particle_set(self, new_ps: ParticleSet) -> None:
        """Star formation changed the membership: swap in ``new_ps``, re-size
        the force arrays and remap the owner array.

        Surviving particles keep their owner (found by pid in the old,
        sorted, pid array); newly formed stars are assigned by position
        against the current decomposition.
        """
        old_pid = self.ps.pid
        n = len(new_ps)
        self.ps = new_ps
        self.engine.notify_membership_changed()
        self._grav_acc = np.zeros((n, 3))
        self._hydro_acc = np.zeros((n, 3))
        self._du_dt = np.zeros(n)
        self._vsig = np.zeros(n)
        self._first_forces_done = False
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

    # ------------------------------------------------------------- diagnostics
    def gas_cfl_timestep(self) -> float:
        ps = self.ps
        gas = ps.where_type(ParticleType.GAS)
        if not gas.any():
            return np.inf
        vsig = np.maximum(self._vsig[gas], ps.csnd[gas])
        dts = cfl_timestep(ps.h[gas], np.maximum(vsig, 1e-300), self.cfg.courant)
        return float(dts.min())

    def diagnostics(self) -> dict:
        ps = self.ps
        return {
            "time": self.time,
            "step": self.step_count,
            "n_particles": len(ps),
            "n_gas": int(ps.where_type(ParticleType.GAS).sum()),
            "n_stars": int(ps.where_type(ParticleType.STAR).sum()),
            "total_mass": ps.total_mass(),
            "kinetic_energy": ps.kinetic_energy(),
            "thermal_energy": ps.thermal_energy(),
            "momentum": ps.momentum().tolist(),
            "n_sf_events": self.n_sf_events,
            "n_sn_events": self.n_sn_events,
            "n_ranks": self.n_ranks,
            "force_mode": self.force_mode,
            "rank_counts": np.bincount(self.owner, minlength=self.n_ranks).tolist(),
        }

    # ------------------------------------------------------------ accounting
    def comm_stats(self) -> dict[str, CommStats]:
        """Merged byte ledger: driver labels + the pool traffic.

        The label sets are disjoint by construction (``pool_p2p`` lives on
        the pool communicator; migration/LET/ghost labels on the driver's).
        """
        merged = dict(self.driver.comm.stats)
        if self.pool is not None and self.pool.comm is not None:
            merged.update(self.pool.comm.stats)
        return merged

    def pool_summary(self) -> dict:
        if self.pool is None:
            return {"n_events": 0, "per_rank_events": []}
        out = self.pool.summary()
        main_ranks = np.array([e.main_rank for e in self.pool.events], dtype=np.int64)
        out["per_rank_events"] = np.bincount(main_ranks, minlength=self.n_ranks).tolist()
        return out

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the pool's service, stop and reap the engine's gravity
        helper, and hand back the force passes' tile scratch — tens of MB
        that would otherwise live as long as anything still refers to this
        run.  Idempotent."""
        if self.pool is not None:
            self.pool.close()
        self.engine.close()
        self.driver.release_workspace()
