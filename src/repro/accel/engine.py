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

import ctypes
import os
import platform
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.accel.backends import get_backend
from repro.accel.backends.base import TileWorkspace
from repro.accel.gravity_helper import GravityHelper, HelperLost
from repro.accel.index import SpatialIndex
from repro.fdps.interaction import InteractionCounter
from repro.fdps.particles import ParticleSet, ParticleType
from repro.fdps.tree import Octree
from repro.gravity.kernels import accel_direct
from repro.gravity.treegrav import GroupTiles, record_gravity_pass
from repro.obs.trace import Tracer
from repro.sph.density import DensityResult, compute_density, refresh_velocity_fields
from repro.sph.eos import pressure, sound_speed_from_density
from repro.sph.forces import compute_hydro_forces
from repro.sph.neighbors import half_pairs_from_gather
from repro.util.logging import get_logger

_log = get_logger("accel")
#: The per-particle fields an SPH pass reads besides the positions (which
#: the neighbor grid checks).
_SPH_INPUTS = ("u", "h", "vel", "mass")

#: glibc's trim and mmap thresholds [bytes], fixed by
#: :func:`_keep_heap_resident`.  Left dynamic, glibc hands the heap top back
#: to the system after every pass and raises the mmap threshold to each
#: freed block's size, so every step faults its transients in again (2,000-
#: 5,400 minor faults per ``gas_disk`` step, most inside the density
#: solve).  The value must sit well above the largest per-step transient,
#: the candidate list (``accel.candidate_bytes``: ~4 MB in a warm step of
#: the benchmark workloads, ~12 MB on a cold gas-disk start), so that no
#: transient is ever mapped on its own and the freed top is never trimmed;
#: memory is still reused, only no longer returned.
_RESIDENT_HEAP_BYTES = 256 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3       # glibc's mallopt params
_heap_fixed: bool | None = None                     # the call's outcome, once


def _keep_heap_resident() -> bool:
    """Fix glibc's trim and mmap thresholds at :data:`_RESIDENT_HEAP_BYTES`
    for this process (and every child it forks later); returns whether
    both took.  Idempotent: the first call decides.  Off glibc, or when
    ``mallopt`` refuses, nothing changes and a debug line says so once.
    Both are needed: either alone still faults a freed block back in
    (a trimmed top, or a block that went to its own mapping)."""
    global _heap_fixed
    if _heap_fixed is None:
        _heap_fixed = False
        if platform.libc_ver()[0] != "glibc":
            _log.debug("heap thresholds left dynamic: the C library is not glibc")
        else:
            mallopt = ctypes.CDLL(None).mallopt
            mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
            _heap_fixed = all(
                mallopt(param, _RESIDENT_HEAP_BYTES) == 1
                for param in (_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD)
            )
            if not _heap_fixed:
                _log.debug("heap thresholds left dynamic: mallopt refused %d bytes",
                           _RESIDENT_HEAP_BYTES)
    return _heap_fixed


def _require_finite(
    kind: str, ps: ParticleSet, names: tuple[str, ...], rows: np.ndarray | None = None
) -> None:
    """Raise ``ValueError`` naming the first row (of ``rows``, or of every
    particle) whose value of one of ``names`` is not finite."""
    for name in names:
        values = getattr(ps, name) if rows is None else getattr(ps, name)[rows]
        finite = np.isfinite(values)
        if finite.ndim > 1:
            finite = finite.all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite))
            row = k if rows is None else int(rows[k])
            raise ValueError(f"{kind} input {name}[{row}] is not finite: {values[k]!r}")


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
    step host does at construction: self-gravity, more particles than
    ``direct_gravity_below``, two CPUs), every tree pass is shared between
    this process and the helper, bit-identical to the serial pass:
    :meth:`submit_gravity` ships it before the SPH pass and :meth:`gravity`
    claims groups and collects it afterwards.  In distributed force mode
    :class:`~repro.fdps.distributed.DistributedGravity` shares its rank
    pass with the same helper (:attr:`helper`).  A lost helper is replaced
    by this process for the rest of the run (:meth:`lose_helper`), and
    :meth:`close` stops it.
    The engine owns the helper and its shared block; nothing configures
    it.  See :mod:`repro.accel`.

    Constructing one keeps this process's heap resident
    (:func:`_keep_heap_resident`): a step's transients are reused from the
    heap instead of being unmapped and faulted in again every pass.
    """

    def __init__(
        self,
        cfg: Any,
        tracer: Tracer | None = None,
        counter: InteractionCounter | None = None,
    ) -> None:
        _keep_heap_resident()
        self.cfg = cfg
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.counter = counter
        self.index = SpatialIndex()
        self.backend = get_backend(getattr(cfg, "backend", None))
        self._hydro_cache: _HydroCache | None = None
        #: Gas particles the kernel-size solve left outside its tolerance,
        #: summed over every :meth:`hydro` pass (0 on a healthy run).
        self.n_unconverged = 0
        self._buffers: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        #: Scratch of the gravity tiles, reused by every tile of every pass
        #: (one engine = one force pass at a time; not thread-safe).
        self._tile_workspace = TileWorkspace()
        #: The process evaluating part of every tree pass, when one runs
        #: (:meth:`start_gravity_helper`; stopped by :meth:`close`).
        self._helper: GravityHelper | None = None
        #: The gravity pass :meth:`submit_gravity` shipped and :meth:`gravity`
        #: has not collected yet: (helper pass number or None, submit time).
        self._pending: tuple[int | None, float] | None = None

    # ---------------------------------------------------------- invalidation
    def notify_positions_changed(self) -> None:
        """Every coordinate may have moved (drift): spatial caches and pair
        lists are stale."""
        self.index.invalidate_positions()
        self._hydro_cache = None

    def notify_rows_moved(self, ps: ParticleSet, rows: np.ndarray) -> None:
        """Only ``rows`` of ``ps`` have new coordinates (an SN region
        replaced by particle ID); nothing else moved, and no other row
        changed its mass or ``h``.

        The pair lists are stale — :meth:`refresh_hydro` returns ``None``
        and the caller runs :meth:`hydro`, the full solve over all the gas.
        When the last pass left the full candidate list, the neighbor grid
        is edited in place (:meth:`SpatialIndex.move_points`), so that pass
        finds its grid and list ready instead of generating both a second
        time.  Otherwise — a reach list, no list, a changed particle count
        — the index invalidates itself and says why once: the same pass,
        from a fresh grid, bit for bit what a fresh engine computes.
        """
        cache, self._hydro_cache = self._hydro_cache, None
        if cache is not None and cache.n_total != len(ps):
            self.index.abandon_grid("the particle count changed since the indexed pass")
        elif self.index.move_points(rows, ps.pos[rows]):
            self.tracer.count("accel.grid_repairs")

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
        from the first pass to here so that a step-7 pass (after
        :meth:`notify_rows_moved`) reuses them; the grid itself stays until
        the next position signal."""
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
        self._pending = None
        if helper is not None:
            helper.close()
        self.release_workspace()

    # -------------------------------------------------------------- buffers
    def _full_buffers(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Persistent (acc, du, vsig) work buffers, zeroed for this call."""
        if self._buffers is None or len(self._buffers[1]) != n:
            self._buffers = (np.zeros((n, 3)), np.zeros(n), np.zeros(n))
        else:
            for buf in self._buffers:
                buf.fill(0.0)
        return self._buffers

    # -------------------------------------------------------------- gravity
    def start_gravity_helper(self, n_particles: int) -> bool:
        """Start the gravity helper process when this engine's tree passes
        can use one; returns whether one runs.

        The rule: ``cfg.self_gravity`` is on, ``n_particles`` is above
        ``cfg.direct_gravity_below`` (smaller sets are summed directly) and
        the host has at least two CPUs — in either force mode: the helper
        shares this engine's tree passes by groups, and the distributed
        force pass by whole ranks.  The step host calls this at
        construction — not lazily at the first pass, so the child starts
        with the affinity the process had before any pinning of the main
        loop and a harness can move it to the other CPUs along with every
        other child.  See :mod:`repro.accel.gravity_helper`.
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

    def submit_gravity(self, ps: ParticleSet) -> None:
        """Check the gravity inputs and, with a helper and a tree pass,
        ship the pass (ring copy + ``go``) so the helper works while this
        process runs the SPH pass; :meth:`gravity` collects it.

        Raises ``ValueError`` naming the first row of ``pos``, ``mass`` or
        ``eps`` that is not finite, before anything is shipped.
        """
        _require_finite("gravity", ps, ("pos", "mass", "eps"))
        cfg, helper, pass_no = self.cfg, self._helper, None
        if helper is not None and len(ps) > cfg.direct_gravity_below:
            try:
                pass_no = helper.submit(
                    ps.pos, ps.mass, ps.eps,
                    cfg.theta, cfg.n_g, cfg.leaf_size, cfg.mixed_precision,
                )
            except HelperLost as lost:
                self.lose_helper(lost)
        self._pending = (pass_no, self.tracer.now())

    def drain_gravity(self) -> None:
        """Leave no pass in flight: cancel one :meth:`submit_gravity` shipped
        that :meth:`gravity` will not collect (an exception came in
        between), or lose the helper; a no-op once the pass is collected."""
        pending, self._pending, helper = self._pending, None, self._helper
        pass_no = None if pending is None else pending[0]
        if pass_no is None or helper is None:
            return
        try:
            helper.cancel(pass_no)
        except HelperLost as lost:
            self.lose_helper(lost)

    def gravity(self, ps: ParticleSet, label: str) -> np.ndarray:
        """Self-gravity on all particles; at most one octree build per call
        (and zero when the cached tree is still valid).

        Collects the pass :meth:`submit_gravity` shipped, or submits its own
        first (so it raises the same ``ValueError`` on non-finite inputs).
        With a gravity helper the tree pass is shared between two processes,
        bit-identical to :func:`~repro.gravity.treegrav.tree_accel`.
        """
        cfg = self.cfg
        if self._pending is None:
            self.submit_gravity(ps)
        try:
            with self.tracer.span(f"{label} Calc_Force", backend=self.backend.name):
                if len(ps) <= cfg.direct_gravity_below:
                    acc = accel_direct(
                        ps.pos, ps.mass, ps.eps, counter=self.counter,
                        backend=self.backend, workspace=self._tile_workspace,
                    )
                    record_gravity_pass(self.tracer, len(ps) ** 2, self._tile_workspace)
                    return acc
                tree = self.index.tree_for(ps.pos, ps.mass, leaf_size=cfg.leaf_size)
                acc, pairs = self._tree_pass(ps, tree)
                record_gravity_pass(self.tracer, pairs, self._tile_workspace)
                return acc
        finally:
            self.drain_gravity()

    def _tree_pass(self, ps: ParticleSet, tree: Octree) -> tuple[np.ndarray, int]:
        """One tree pass: walk every group, then evaluate the groups this
        process claims from the top while the helper claims from the bottom,
        and take the helper's rows — or, without a helper, evaluate every
        group."""
        cfg, tracer, helper = self.cfg, self.tracer, self._helper
        assert self._pending is not None
        pass_no, submitted = self._pending
        t0 = tracer.now()
        tiles = GroupTiles.walk(
            tree, ps.pos, ps.eps, (ps.pos, ps.mass, ps.eps),
            n_g=cfg.n_g, theta=cfg.theta, mixed=cfg.mixed_precision,
        )
        acc = np.zeros_like(ps.pos)
        n = tiles.n_groups
        if pass_no is None or helper is None:
            tiles.evaluate(acc, range(n), self.backend, self._tile_workspace)
        else:
            tiles.evaluate(acc, helper.claims(n), self.backend, self._tile_workspace)
            main_lo = helper.main_lo(n)
            main_s = tracer.now() - t0
            try:
                helper_hi, helper_s = helper.collect(pass_no, acc, tiles)
            except HelperLost as lost:
                self.lose_helper(lost)
                tiles.evaluate(acc, range(main_lo), self.backend, self._tile_workspace)
            else:
                self._pending = None
                tracer.count("accel.grav_split_passes")
                tracer.gauge("accel.grav_main_busy_s", main_s)
                tracer.gauge("accel.grav_helper_busy_s", helper_s)
                tracer.gauge("accel.grav_overlap_s", t0 - submitted)
                tracer.gauge("accel.grav_groups", n)
                tracer.gauge("accel.grav_main_groups", n - main_lo)
                tracer.gauge("accel.grav_helper_groups", helper_hi)
        if self.counter is not None:
            tiles.count(self.counter)
        return acc, int(tiles.costs.sum())

    @property
    def helper(self) -> GravityHelper | None:
        """The running gravity helper, if any: the distributed force pass
        (:meth:`repro.fdps.distributed.DistributedGravity.forces`) shares
        whole ranks with it, and reports a loss to :meth:`lose_helper`."""
        return self._helper

    def lose_helper(self, cause: Exception) -> None:
        """The helper cannot deliver: stop it for good and say so once."""
        helper, self._helper = self._helper, None
        assert helper is not None
        pid = helper.pid
        helper.kill()
        helper.close()
        self.tracer.count("accel.grav_helper_lost")
        _log.warning(
            "gravity helper (pid %s) lost: %s; this process evaluates its "
            "share, in this pass and every later one", pid, cause,
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
    def check_sph_inputs(self, ps: ParticleSet) -> None:
        """Raise ``ValueError`` naming the first gas row whose ``u``, ``h``,
        ``vel`` or ``mass`` is not finite (:meth:`hydro` checks this first;
        the step host checks it before a gravity pass is shipped)."""
        _require_finite("SPH", ps, _SPH_INPUTS, np.flatnonzero(ps.where_type(ParticleType.GAS)))

    def hydro(self, ps: ParticleSet, label: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full density + hydro-force pass on the gas.

        Raises ``ValueError`` on a non-finite SPH input
        (:meth:`check_sph_inputs`) before any work is done.
        Returns (acc, du_dt, vsig) scattered to full-particle arrays,
        refreshes the gas SPH fields on ``ps``, and primes the fast-path
        cache (grid, gather pairs, half force pairs).  The grid comes from
        the index under the gas scope: a second pass at unchanged or locally
        edited positions (:meth:`notify_rows_moved`) reuses the cached grid
        and its candidate list, which therefore outlive this call — the
        owner ends their life with :meth:`release_candidates`.  On a
        tracer it counts ``accel.candidate_generations``,
        ``accel.candidate_widenings`` and ``accel.candidate_pairs`` (the
        lists this pass generated or widened; a reused or repaired one adds
        none), ``accel.reach_list_passes`` (this pass ran on a reach list)
        and gauges ``accel.candidate_bytes``.  After
        :meth:`notify_rows_moved` it is the same full solve, on the edited
        grid or on a fresh one.

        The returned arrays are the engine's *persistent work buffers*:
        they are overwritten in place by the next :meth:`hydro` /
        :meth:`refresh_hydro` call.  ``.copy()`` them to retain a pass's
        values beyond that.
        """
        cfg = self.cfg
        gas = np.flatnonzero(ps.where_type(ParticleType.GAS))
        _require_finite("SPH", ps, _SPH_INPUTS, gas)
        if gas.size < 2:
            self._hydro_cache = None
            return self._full_buffers(len(ps))
        reuses = self.index.stats.grid_reuses
        with self.tracer.span(
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
                # The gas scope: the next pass recognises the grid by it,
                # and move_points maps rows through it.
                scope=gas,
                backend=self.backend,
            )
        grid, gather = d.grid, d.pairs
        assert grid is not None and gather is not None     # a finished solve has both
        tracer = self.tracer
        tracer.count("accel.grid_builds", d.grid_builds)
        tracer.count("accel.grid_reuses", self.index.stats.grid_reuses - reuses)
        tracer.count("accel.density_passes")
        tracer.count("accel.density_sweeps", d.iterations)
        tracer.count("accel.candidate_generations", d.candidate_generations)
        tracer.count("accel.candidate_widenings", d.candidate_widenings)
        tracer.count("accel.candidate_pairs", d.candidate_pairs)
        tracer.count("accel.reach_list_passes", int(d.reach_list))
        # The bytes of the list this pass ran on (a reach list, an edited
        # one too): the step's largest transient, alive until the step's
        # last pass is done.
        tracer.gauge("accel.candidate_bytes", d.candidate_bytes)
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
        force_pairs = half_pairs_from_gather(gather, d.h)
        out = self._force_pass(ps, label, gas, d, d.pres, d.csnd, d.divv, d.curlv, force_pairs)
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
        after :meth:`notify_rows_moved` starts from the repaired grid when
        there is one.  Like
        :meth:`hydro`, the returned arrays are the engine's persistent
        buffers — valid until the next pass.  Raises ``ValueError`` on a
        non-finite SPH input, as :meth:`hydro` does.
        """
        cache = self._hydro_cache
        if cache is None or cache.n_total != len(ps):
            return None
        gas, d = cache.gas, cache.density
        _require_finite("SPH", ps, _SPH_INPUTS, gas)
        with self.tracer.span(
            f"{label} Calc_Kernel_Size_and_Density", backend=self.backend.name
        ):
            pres = pressure(d.dens, ps.u[gas])
            csnd = sound_speed_from_density(d.dens, pres)
            divv, curlv = refresh_velocity_fields(
                d, ps.pos[gas], ps.vel[gas], ps.mass[gas], backend=self.backend
            )
        return self._force_pass(ps, label, gas, d, pres, csnd, divv, curlv, cache.force_pairs)

    def _force_pass(
        self, ps: ParticleSet, label: str, gas: np.ndarray, d: DensityResult,
        pres: np.ndarray, csnd: np.ndarray, divv: np.ndarray, curlv: np.ndarray,
        pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What a full pass and the fast path share: write the gas fields of
        ``ps``, evaluate the hydro forces over ``pairs`` and scatter them into
        the persistent full-particle buffers ``(acc, du_dt, vsig)``."""
        ps.h[gas], ps.dens[gas], ps.pres[gas], ps.csnd[gas] = d.h, d.dens, pres, csnd
        ps.divv[gas], ps.curlv[gas], ps.fgrad[gas] = divv, curlv, d.omega
        acc, du, vsig = self._full_buffers(len(ps))
        with self.tracer.span(f"{label} Calc_Hydro_Force", backend=self.backend.name):
            f = compute_hydro_forces(
                ps.pos[gas], ps.vel[gas], ps.mass[gas], d.h, d.dens, pres, csnd,
                omega=d.omega, divv=divv, curlv=curlv,
                counter=self.counter, pairs=pairs, backend=self.backend,
            )
        acc[gas], du[gas], vsig[gas] = f.acc, f.du_dt, f.v_signal
        return acc, du, vsig
