"""Shared spatial-acceleration service: cached grids, octrees, force pipeline.

The paper's performance story (Sec. 5.2) hinges on never paying for the same
spatial structure twice in one step: a single tree build serves the force
walk and the LET export, and one neighbor binning serves every kernel-size
sweep.  This package is that seam for the reproduction, and it now also
owns the pluggable compute backends evaluating the kernels themselves.

Compute-backend contract
------------------------

:mod:`repro.accel.backends` holds two
:class:`~repro.accel.backends.base.KernelBackend` implementations of the
hot kernels (pairwise/tree-walk gravity tile, SPH density gather,
half-pair hydro scatter).  The rules:

* **Two backends** — ``numpy`` (reference, default) and ``pikg``
  (DSL-generated kernels, jitted when numba is importable, plain Python
  otherwise).  Selection: explicit ``cfg.backend`` > ``$REPRO_BACKEND`` >
  ``numpy``; :class:`ForceEngine` resolves once at construction and threads
  the instance everywhere, so single-rank and multi-rank
  (:class:`repro.fdps.distributed.DistributedGravity`) paths hit identical
  kernels.
* **Invalidation interplay** — backends are *stateless* with respect to
  the simulation: all spatial caching stays in :class:`SpatialIndex`
  (grids, trees) and in per-solve
  :class:`~repro.accel.backends.base.DensityGatherState` objects whose
  lifetime is one kernel-size solve over one immutable grid.  The
  invalidation contract below therefore never needs to reach into a
  backend: dropping the grid/pair caches is sufficient, whatever backend
  produced the numbers.  Backend instances are process-wide singletons and
  safe to share between engines.

Caching / invalidation contract
-------------------------------

:class:`SpatialIndex` owns one reusable cell-linked
:class:`~repro.sph.neighbors.NeighborGrid` and one cached
:class:`~repro.fdps.tree.Octree`.  Because checking array *contents* would
cost as much as rebuilding, validity is explicit:

* The owner MUST signal every change of an indexed coordinate or of the
  membership.  Pure internal-energy or velocity updates need no signal.
  There are three signals, from blunt to sharp:

  - *membership changed* (star formation, domain exchange) —
    :meth:`ForceEngine.notify_membership_changed` /
    :meth:`SpatialIndex.invalidate_all`: grid, tree and pair lists go;
  - *any coordinate may have changed* (drift) —
    :meth:`ForceEngine.notify_positions_changed` /
    :meth:`SpatialIndex.invalidate_positions`: grid, tree and pair lists go;
  - *these rows moved and nothing else did* (an SN region replaced by
    particle ID) — :meth:`ForceEngine.notify_rows_moved` /
    :meth:`SpatialIndex.move_points`: tree and pair lists go; a grid
    holding the full candidate list is **edited** — the moved points
    re-binned, the list repaired in place: the entries with a moved end die
    in a mask, the moved points' walk is appended
    (:meth:`NeighborGrid.move_points
    <repro.sph.neighbors.NeighborGrid.move_points>`) — so the full solve
    that follows neither bins nor generates candidates a second time.  The
    edited list holds the same candidate *set* with bit-equal separations
    as a fresh generation on the same binning, in another order: sums agree
    with a fresh engine's to rounding (1e-12), not bit for bit.

  A local edit answers exactly or not at all: when no grid or no candidate
  list is cached, the list is a reach list, a row is outside the grid's
  scope, the particle count changed, or a new position is not finite, the
  index falls back to ``invalidate_positions`` by itself (never a
  half-repaired grid), counts nothing in ``stats.grid_repairs`` and logs
  the cause once on the ``repro.accel`` logger; the pass after it is a
  fresh engine's, bit for bit.  No option, threshold or environment
  variable chooses between repair and rebuild.  A finite position
  *outside* the box of the first binning is no such case: it is binned to
  the edge cell, which keeps every search exact.
* The density solve's list covers each gas particle's reach
  (:meth:`NeighborGrid.compact_self_pairs
  <repro.sph.neighbors.NeighborGrid.compact_self_pairs>`), and a kernel size
  beyond its reach *widens* it: the list is generated again on the same
  binning, those particles reaching the cell.  A reach list is never
  edited, so a widened list is the full list cut to the new reaches.  A
  position or membership signal drops the grid, and
  :meth:`SpatialIndex.release_pairs` (or replacing the grid in
  :meth:`SpatialIndex.grid_for`) drops list and reach together, so one
  candidate list is alive at a time.
* Accessors (:meth:`SpatialIndex.grid_for`, :meth:`SpatialIndex.tree_for`)
  additionally verify cheap structural facts — particle count, cell-size
  coverage of the requested search radius, scope identity — and rebuild
  (never silently return a stale structure) when they fail.  The density
  solve asks for its grid *under the gas scope*, so a second full pass at
  unchanged or locally edited positions reuses the first one's grid.
* The compact candidate list — the step's largest transient — lives from the
  first pass that generates (or widens) it to the end of the step's last hydro
  evaluation (:meth:`ForceEngine.release_candidates`, called after step 7
  in both arms of the step host); the grid itself stays until the next
  signal, for a pass at unchanged positions to reuse.
* :attr:`SpatialIndex.stats` counts builds, repairs and reuses (the engine
  mirrors the grid counts as ``accel.grid_*`` tracer counters, which
  ``python -m repro.obs report`` prints per step); the steady-state
  integrator step performs at most one grid build per density solve and at
  most one tree build per step (asserted by
  ``tests/accel/test_force_engine.py::test_steady_step_build_budget``), and
  a step whose SN replacement
  was a local edit still builds one grid unless its step-7 solve outgrows
  the cell (a refused edit builds one more).

:class:`ForceEngine` layers the per-step force pipeline on top: persistent
work buffers, one full gravity + density + hydro pass
(:meth:`ForceEngine.gravity` / :meth:`ForceEngine.hydro`), and the step-7
fast path (:meth:`ForceEngine.refresh_hydro`) that re-evaluates hydro on the
cached pair lists after cooling/feedback changed ``u`` and kicks changed
``v`` — positions and kernel sizes being untouched, the result is identical
to a cold recompute whose h solve converges on its first sweep.  After a
position signal of any kind it returns ``None`` and step 7 is a
:meth:`ForceEngine.hydro` — one solve path — which after
:meth:`ForceEngine.notify_rows_moved` starts on the edited grid when the
edit was made.

Gravity helper: two processes per gravity pass
----------------------------------------------

Inside a node the paper's force loop runs in parallel over interaction
groups, each MPI rank runs its own, and gravity and hydro are independent
passes over the same positions; here :class:`ForceEngine` shares every
tree pass with one helper process (:mod:`repro.accel.gravity_helper`) and
lets it run during the SPH pass, and shares the distributed force pass
with it by whole ranks:

* **Flow** — submit → hydro → claim from both ends → collect.  The step
  host checks both passes' inputs, then
  :meth:`ForceEngine.submit_gravity` copies ``pos``/``mass``/``eps`` into
  the shared block and sends ``go``; :meth:`ForceEngine.hydro` runs while
  the helper builds the octree, walks every group and evaluates groups
  ``0, 1, ...``; :meth:`ForceEngine.gravity` then builds and walks the
  same tree here, evaluates ``n-1, n-2, ...`` until it meets the helper's
  claims, and copies the helper's rows.  A :meth:`~ForceEngine.gravity`
  call with nothing submitted submits its own pass (one flow); an
  exception between submit and collect cancels the pass
  (:meth:`ForceEngine.drain_gravity`), so none stays in flight.
* **Claims, not a cut** — two counters in the shared block's header,
  ``helper_hi`` and ``main_lo``, are reset before every ``go``; each side
  publishes a group before evaluating it and stops at the first group the
  other holds.  No lock and no rate prediction: a helper that shares its
  CPU with a serve worker claims fewer groups instead of being waited for.
  Every group is evaluated at least once, and at most the one both sides
  reached together twice, with the same bits both times.
* **Ownership** — the engine owns the helper process and its shared block
  (a :class:`~repro.util.shm.SharedMemoryRing`: ``pos``/``mass``/``eps``
  in; the pass-number tag, the two claims and the helper's ``acc`` rows
  out); it re-creates the block when star formation outgrows it and
  :meth:`ForceEngine.close` stops and reaps the process and unlinks the
  block (``CoupledRunner.close()`` / ``GalaxySimulation.close()`` call it;
  in a forked child holding a copy, the close does nothing).  The ring and
  the child — :class:`repro.util.shm.Child`: the fork, the pipe, the wait
  on the pipe and the process sentinel, the loss rule and the reap — come
  from :mod:`repro.util.shm`, the process toolkit the serve workers use
  too, so this package imports nothing from :mod:`repro.serve`; the helper
  owns nothing it inherits.
* **Start rule** — :meth:`ForceEngine.start_gravity_helper`, called by the
  step host at construction in either force mode, starts it only when
  ``cfg.self_gravity`` is on, the particle count is above
  ``cfg.direct_gravity_below`` and the host has at least two CPUs.  Direct
  summation and a one-CPU host start no process.
* **Rank pass** — in ``force_mode="distributed"`` the engine walks no
  tree; :meth:`DistributedGravity.forces
  <repro.fdps.distributed.DistributedGravity.forces>` ships every rank's
  local particles and LET imports to the engine's helper
  (:attr:`ForceEngine.helper`) and the two processes claim whole ranks
  from the two ends, as they claim groups in a tree pass.  The helper's
  busy seconds go to its ranks' ``Calc_Force`` spans and its interaction
  tally to the run's counter; a rank pass gauges
  ``accel.grav_helper_ranks`` and ``accel.grav_helper_busy_s``.  A loss
  follows the fallback below (:meth:`ForceEngine.lose_helper`).
* **Bit-identity** — the SPH pass never writes ``pos``/``mass``/``eps``;
  main and helper build the same octree and walk the same lists; each
  evaluates its groups with :meth:`GroupTiles.evaluate
  <repro.gravity.treegrav.GroupTiles.evaluate>`, the one group loop that
  :func:`~repro.gravity.treegrav.tree_accel` runs over every group.  A
  tile writes only its targets' rows, in any order, so the assembled
  ``acc`` equals ``tree_accel``'s bit for bit, and so does the particle
  state of a run.
* **Fallback** — a dead helper, one that misses
  :data:`~repro.accel.gravity_helper.DEADLINE_S`, or an answer for another
  pass: main evaluates every group or rank below its own claims itself, counts
  ``accel.grav_helper_lost``, logs one warning and runs every later pass
  alone.  No restart.
* **Trace** — a collected pass counts ``accel.grav_split_passes`` and
  gauges the busy seconds of each side, main's seconds between submit and
  its own walk (``accel.grav_overlap_s``) and the groups each side claimed
  (``accel.grav_main_groups`` / ``accel.grav_helper_groups`` of
  ``accel.grav_groups``).
* **No option** — no config field, keyword or environment variable turns
  the helper on or off; a serial reference is ``tree_accel`` itself, or
  the same engine after :meth:`ForceEngine.close`.

The multi-rank phases (:class:`repro.fdps.distributed.DistributedGravity`)
own one :class:`SpatialIndex` per rank under the same contract, invalidated
at the exchange boundary.  The one step host,
:class:`repro.core.runner.CoupledRunner`, drives them; in its
``force_mode="distributed"`` every rank builds exactly one tree per step,
which serves both the LET export and the force walk (asserted by the
tier-1 tests in ``tests/core/test_coupled.py``).
"""

from repro.accel.backends import get_backend
from repro.accel.engine import ForceEngine
from repro.accel.index import IndexStats, SpatialIndex

__all__ = [
    "ForceEngine",
    "IndexStats",
    "SpatialIndex",
    "get_backend",
]
