"""The per-step force pipeline: gravity + density + hydro behind one owner.

The engine owns a :class:`SpatialIndex` (cached neighbor grid + octree), the
persistent full-particle work buffers, the gravity tile workspace, and the
cached per-step hydro state
(density result + half-pair edge list) that enables the step-7 fast path:
after cooling/feedback changed only ``u`` (and kicks changed ``v``), hydro
forces are re-evaluated on the *cached* pair lists — no neighbor search, no
h iteration, no grid or tree build.

See :mod:`repro.accel` for the invalidation contract.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.accel.backends import get_backend
from repro.accel.backends.base import TileWorkspace
from repro.accel.gravity_helper import GravityHelper, HelperLost
from repro.accel.index import SpatialIndex
from repro.fdps.interaction import InteractionCounter
from repro.fdps.particles import ParticleSet, ParticleType
from repro.fdps.tree import Octree
from repro.gravity.kernels import accel_direct
from repro.gravity.treegrav import GroupTiles, record_gravity_pass, split_point
from repro.sph.density import DensityResult, compute_density, refresh_velocity_fields
from repro.sph.eos import pressure, sound_speed_from_density
from repro.sph.forces import compute_hydro_forces
from repro.sph.neighbors import half_pairs_from_gather
from repro.util.logging import get_logger
from repro.util.timers import TimerRegistry

_log = get_logger("accel")


@dataclass
class _HydroCache:
    """Everything needed to re-evaluate hydro without a neighbor search."""

    n_total: int                 # particle count the cache was built for
    gas: np.ndarray              # global indices of the gas particles
    density: DensityResult       # final h / dens / omega + gather pair list
    force_pairs: tuple[np.ndarray, np.ndarray, np.ndarray]  # half pairs (i, j, r)


class ForceEngine:
    """Owns gravity + density + hydro evaluation with shared spatial caches.

    ``cfg`` is any object carrying the integrator's numerical switches
    (``theta``, ``n_g``, ``leaf_size``, ``n_ngb``, ``direct_gravity_below``,
    ``mixed_precision``, optionally ``backend``) — kept duck-typed so
    :mod:`repro.core` can pass its ``IntegratorConfig`` without an import
    cycle.  The compute backend is resolved once at construction
    (``cfg.backend`` > ``$REPRO_BACKEND`` > ``numpy``) and threaded through
    every kernel call, so single-rank and multi-rank paths hit identical
    kernels.

    Once :meth:`start_gravity_helper` has started a helper process (the
    step host does at construction: global force mode, self-gravity, more
    particles than ``direct_gravity_below``, two CPUs), every tree pass of
    :meth:`gravity` is split between this process and the helper,
    bit-identical to the serial pass; a lost helper is replaced by this
    process for the rest of the run, and :meth:`close` stops it.  The
    engine owns the helper and its shared block; nothing configures it.
    See :mod:`repro.accel`.
    """

    def __init__(
        self,
        cfg,
        timers: TimerRegistry | None = None,
        counter: InteractionCounter | None = None,
    ) -> None:
        self.cfg = cfg
        self.timers = timers or TimerRegistry()
        self.counter = counter
        self.index = SpatialIndex()
        self.backend = get_backend(getattr(cfg, "backend", None))
        self._hydro_cache: _HydroCache | None = None
        #: Gas particles the kernel-size solve left outside its tolerance,
        #: summed over every :meth:`hydro` pass (0 on a healthy run).
        self.n_unconverged = 0
        self._buffers_n = -1
        self._acc_buf: np.ndarray | None = None
        self._du_buf: np.ndarray | None = None
        self._vsig_buf: np.ndarray | None = None
        #: Scratch of the gravity tiles, reused by every tile of every pass
        #: (one engine = one force pass at a time; not thread-safe).
        self._tile_workspace = TileWorkspace()
        #: The process evaluating part of every tree pass, when one runs
        #: (:meth:`start_gravity_helper`; stopped by :meth:`close`).
        self._helper: GravityHelper | None = None

    # ---------------------------------------------------------- invalidation
    def notify_positions_changed(self) -> None:
        """Every coordinate may have moved (drift): spatial caches and pair
        lists are stale."""
        self.index.invalidate_positions()
        self._hydro_cache = None

    def notify_rows_moved(self, ps: ParticleSet, rows: np.ndarray) -> None:
        """Only ``rows`` of ``ps`` have new coordinates (an SN region
        replaced by particle ID); nothing else moved.

        The pair lists are stale — :meth:`refresh_hydro` returns ``None``
        and the caller runs a full :meth:`hydro` — but the neighbor grid of
        the last pass is edited in place (:meth:`SpatialIndex.move_points`),
        so that pass finds its grid and the candidate list ready instead of
        generating both a second time.  Where the edit cannot be exact the
        index invalidates itself: the same pass, from a fresh grid.
        """
        cache, self._hydro_cache = self._hydro_cache, None
        if cache is not None and cache.n_total != len(ps):
            self.index.abandon_grid("the particle count changed since the indexed pass")
        elif self.index.move_points(rows, ps.pos[rows]):
            self.timers.tracer.count("accel.grid_repairs")

    def notify_membership_changed(self) -> None:
        """Particles appeared/vanished/reordered (star formation, exchange)."""
        self.index.invalidate_all()
        self._hydro_cache = None

    @property
    def fast_path_available(self) -> bool:
        return self._hydro_cache is not None

    def release_candidates(self) -> None:
        """The step's last hydro evaluation is done: drop the neighbor
        grid's candidate lists, the step's largest transient.  They live
        from the first pass to here so that a step-7 full pass (after
        :meth:`notify_rows_moved`) reuses them; the grid itself stays for
        box queries."""
        self.index.release_pairs()

    def release_workspace(self) -> None:
        """Hand the gravity tile scratch back (the owner is done stepping);
        a later pass grows a new one."""
        self._tile_workspace = TileWorkspace()

    def close(self) -> None:
        """Stop and reap the gravity helper, unlink its shared block and
        hand the tile scratch back; idempotent.  The engine stays usable:
        its later passes run on this process alone."""
        helper, self._helper = self._helper, None
        if helper is not None:
            helper.close()
        self.release_workspace()

    # -------------------------------------------------------------- buffers
    def _full_buffers(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Persistent (acc, du, vsig) work buffers, zeroed for this call."""
        if n != self._buffers_n:
            self._acc_buf = np.zeros((n, 3))
            self._du_buf = np.zeros(n)
            self._vsig_buf = np.zeros(n)
            self._buffers_n = n
        else:
            self._acc_buf.fill(0.0)
            self._du_buf.fill(0.0)
            self._vsig_buf.fill(0.0)
        return self._acc_buf, self._du_buf, self._vsig_buf

    # -------------------------------------------------------------- gravity
    def start_gravity_helper(self, n_particles: int) -> bool:
        """Start the gravity helper process when this engine's tree passes
        can use one; returns whether one runs.

        The rule: ``cfg.self_gravity`` is on, ``n_particles`` is above
        ``cfg.direct_gravity_below`` (smaller sets are summed directly) and
        the host has at least two CPUs.  The step host calls this at
        construction, when the engine does the run's gravity
        (``force_mode="global"``) — not lazily at the first pass, so the
        child starts with the affinity the process had before any pinning
        of the main loop and a harness can move it to the other CPUs along
        with every other child.  See :mod:`repro.accel.gravity_helper`.
        """
        cfg = self.cfg
        if (
            self._helper is None
            and cfg.self_gravity
            and n_particles > cfg.direct_gravity_below
            and (os.cpu_count() or 1) >= 2
        ):
            self._helper = GravityHelper(self.backend.name, n_particles)
        return self._helper is not None

    def gravity(self, ps: ParticleSet, label: str) -> np.ndarray:
        """Self-gravity on all particles; at most one octree build per call
        (and zero when the cached tree is still valid).

        Raises ``ValueError`` naming the first row of ``pos``, ``mass`` or
        ``eps`` that is not finite, before any work is done or shipped.
        With a gravity helper the tree pass is split between two processes,
        bit-identical to :func:`~repro.gravity.treegrav.tree_accel`.
        """
        cfg = self.cfg
        for name in ("pos", "mass", "eps"):
            values = getattr(ps, name)
            finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
            if not finite.all():
                row = int(np.argmin(finite))
                raise ValueError(
                    f"gravity input {name}[{row}] is not finite: {values[row]!r}"
                )
        with self.timers.measure(f"{label} Calc_Force", backend=self.backend.name):
            if len(ps) <= cfg.direct_gravity_below:
                acc = accel_direct(
                    ps.pos, ps.mass, ps.eps, counter=self.counter,
                    backend=self.backend, workspace=self._tile_workspace,
                )
                record_gravity_pass(self.timers.tracer, len(ps) ** 2, self._tile_workspace)
                return acc
            tree = self.index.tree_for(ps.pos, ps.mass, leaf_size=cfg.leaf_size)
            acc, pairs = self._tree_pass(ps, tree)
            record_gravity_pass(self.timers.tracer, pairs, self._tile_workspace)
            return acc

    def _tree_pass(self, ps: ParticleSet, tree: Octree) -> tuple[np.ndarray, int]:
        """One tree pass: the helper's run of groups goes out before main
        walks, main evaluates its own run, then takes the helper's rows —
        or, without a helper, evaluates every group itself."""
        cfg, tracer, helper = self.cfg, self.timers.tracer, self._helper
        if helper is not None:
            try:
                pass_no = helper.submit(
                    ps.pos, ps.mass, ps.eps,
                    cfg.theta, cfg.n_g, cfg.leaf_size, cfg.mixed_precision,
                )
            except HelperLost as lost:
                self._lose_helper(lost)
                helper = None
        t0 = time.perf_counter()
        tiles = GroupTiles.walk(
            tree, ps.pos, ps.eps, (ps.pos, ps.mass, ps.eps),
            n_g=cfg.n_g, theta=cfg.theta, mixed=cfg.mixed_precision,
        )
        acc = np.zeros_like(ps.pos)
        costs = tiles.costs
        cut = tiles.n_groups if helper is None else split_point(costs, helper.share)
        tiles.evaluate(acc, 0, cut, self.backend, self._tile_workspace)
        if helper is not None:
            main_s = time.perf_counter() - t0
            try:
                helper_s = helper.collect(pass_no, acc, tiles.rows(cut, tiles.n_groups))
            except HelperLost as lost:
                self._lose_helper(lost)
                tiles.evaluate(acc, cut, tiles.n_groups, self.backend, self._tile_workspace)
            else:
                helper.rebalance(costs[:cut].sum() / main_s, costs[cut:].sum() / helper_s)
                tracer.count("accel.grav_split_passes")
                tracer.gauge("accel.grav_main_busy_s", main_s)
                tracer.gauge("accel.grav_helper_busy_s", helper_s)
        if self.counter is not None:
            tiles.count(self.counter)
        return acc, int(costs.sum())

    def _lose_helper(self, cause: Exception) -> None:
        """The helper cannot deliver: stop it for good and say so once."""
        helper, self._helper = self._helper, None
        assert helper is not None
        pid = helper.pid
        helper.kill()
        helper.close()
        self.timers.tracer.count("accel.grav_helper_lost")
        _log.warning(
            "gravity helper (pid %s) lost: %s; this process evaluates its "
            "groups, in this pass and every later one", pid, cause,
        )

    def work_weights(self, ps: ParticleSet) -> np.ndarray:
        """Per-particle domain-decomposition weights: unit gravity work for
        everyone plus the Table-3-anchored hydro surcharge on gas particles
        (Sec. 5.2: the multisection minimizes summed gravity + hydro work)."""
        from repro.perf.costmodel import hydro_gravity_work_ratio

        w = np.ones(len(ps))
        w[ps.where_type(ParticleType.GAS)] += hydro_gravity_work_ratio()
        return w

    # ---------------------------------------------------------------- hydro
    def hydro(self, ps: ParticleSet, label: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full density + hydro-force pass on the gas.

        Returns (acc, du_dt, vsig) scattered to full-particle arrays,
        refreshes the gas SPH fields on ``ps``, and primes the fast-path
        cache (grid, gather pairs, half force pairs).  The grid comes from
        the index under the gas scope: a second pass at unchanged or locally
        edited positions (:meth:`notify_rows_moved`) reuses the cached grid
        and its candidate list, which therefore outlive this call — the
        owner ends their life with :meth:`release_candidates`.  On a
        tracer it counts ``accel.candidate_generations`` and
        ``accel.candidate_pairs`` (the lists this pass generated; a reused
        or repaired one adds none) and gauges ``accel.candidate_bytes``.

        The returned arrays are the engine's *persistent work buffers*:
        they are overwritten in place by the next :meth:`hydro` /
        :meth:`refresh_hydro` call.  ``.copy()`` them to retain a pass's
        values beyond that.
        """
        cfg = self.cfg
        gas = np.flatnonzero(ps.where_type(ParticleType.GAS))
        if gas.size < 2:
            self._hydro_cache = None
            return self._full_buffers(len(ps))
        reuses = self.index.stats.grid_reuses
        with self.timers.measure(
            f"{label} Calc_Kernel_Size_and_Density", backend=self.backend.name
        ):
            d = compute_density(
                ps.pos[gas],
                ps.vel[gas],
                ps.mass[gas],
                ps.u[gas],
                ps.h[gas],
                n_ngb=min(cfg.n_ngb, max(gas.size - 1, 1)),
                counter=self.counter,
                index=self.index,
                # The gas scope: box queries (SN region extraction) answer
                # through the same grid, and the next pass recognises it.
                scope=gas,
                backend=self.backend,
            )
        tracer = self.timers.tracer
        tracer.count("accel.grid_builds", d.grid_builds)
        tracer.count("accel.grid_reuses", self.index.stats.grid_reuses - reuses)
        tracer.count("accel.density_passes")
        tracer.count("accel.density_sweeps", d.iterations)
        tracer.count("accel.candidate_generations", d.candidate_generations)
        tracer.count("accel.candidate_pairs", d.candidate_pairs)
        # The i/j/r bytes of the list this pass ran on: the step's largest
        # transient, alive until release_candidates().
        tracer.gauge(
            "accel.candidate_bytes", sum(a.nbytes for a in d.grid.compact_self_pairs())
        )
        if d.worst_bracket is not None:            # set whenever n_unconverged > 0
            self.n_unconverged += d.n_unconverged
            tracer.count("accel.h_unconverged", d.n_unconverged)
            k, lo, hi, cell = d.worst_bracket
            _log.warning(
                "%s kernel-size solve: %d of %d gas particles outside tolerance "
                "after %d sweeps; the furthest, particle %d, has its root in "
                "(lo=%.6g, hi=%.6g) on a grid of cell %.6g",
                label, d.n_unconverged, gas.size, d.iterations,
                int(gas[k]), lo, hi, cell,
            )
        # The gather list is complete at d.h, so the force pairs fall out of
        # it: no second pass over the candidates.
        force_pairs, out = self._force_pass(
            ps, label, gas, d, d.pres, d.csnd, d.divv, d.curlv,
            half_pairs_from_gather(d.pairs, d.h),
        )
        self._hydro_cache = _HydroCache(
            n_total=len(ps), gas=gas, density=d, force_pairs=force_pairs
        )
        return out

    def refresh_hydro(
        self, ps: ParticleSet, label: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Step-7 fast path: re-evaluate hydro after energy/velocity changes
        at *unchanged positions and kernel sizes*.

        Reuses the cached gather and half-pair edge lists — equivalent to a
        cold :meth:`hydro` call (the h solve would converge on its first
        sweep and return identical pairs) at a fraction of the cost.
        Returns ``None`` when no valid cache exists (positions — all of them
        or a few rows — or membership changed since the last full pass): the
        caller must fall back to :meth:`hydro`, the one solve path, which
        after :meth:`notify_rows_moved` starts from the repaired grid.  Like
        :meth:`hydro`, the returned arrays are the engine's persistent
        buffers — valid until the next pass.
        """
        cache = self._hydro_cache
        if cache is None or cache.n_total != len(ps):
            return None
        gas, d = cache.gas, cache.density
        with self.timers.measure(
            f"{label} Calc_Kernel_Size_and_Density", backend=self.backend.name
        ):
            pres = pressure(d.dens, ps.u[gas])
            csnd = sound_speed_from_density(d.dens, pres)
            divv, curlv = refresh_velocity_fields(d, ps.pos[gas], ps.vel[gas], ps.mass[gas])
        return self._force_pass(ps, label, gas, d, pres, csnd, divv, curlv, cache.force_pairs)[1]

    def _force_pass(self, ps, label, gas, d, pres, csnd, divv, curlv, pairs):
        """What a full pass and the fast path share: write the gas fields of
        ``ps``, evaluate the hydro forces over ``pairs`` and scatter them into
        the persistent full-particle buffers.  Returns the force pairs and
        ``(acc, du_dt, vsig)``."""
        ps.h[gas], ps.dens[gas], ps.pres[gas], ps.csnd[gas] = d.h, d.dens, pres, csnd
        ps.divv[gas], ps.curlv[gas], ps.fgrad[gas] = divv, curlv, d.omega
        acc, du, vsig = self._full_buffers(len(ps))
        with self.timers.measure(f"{label} Calc_Hydro_Force", backend=self.backend.name):
            f = compute_hydro_forces(
                ps.pos[gas], ps.vel[gas], ps.mass[gas], d.h, d.dens, pres, csnd,
                omega=d.omega, divv=divv, curlv=curlv,
                counter=self.counter, pairs=pairs, backend=self.backend,
            )
        acc[gas], du[gas], vsig[gas] = f.acc, f.du_dt, f.v_signal
        return f.pairs, (acc, du, vsig)
