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
    :meth:`SpatialIndex.move_points`: tree and pair lists go, but the grid
    is **edited** — the moved points
    re-binned, the compact candidate list repaired
    (:meth:`NeighborGrid.move_points
    <repro.sph.neighbors.NeighborGrid.move_points>`) — so the full pass that
    follows neither bins nor generates candidates a second time.

  A local edit answers exactly or not at all: when no grid or no candidate
  list is cached, a row is outside the grid's scope, the particle count
  changed, or a new position is not finite, the index falls back to
  ``invalidate_positions`` by itself (never a half-repaired grid), counts
  nothing in ``stats.grid_repairs`` and logs the cause once on the
  ``repro.accel`` logger.  No option, threshold or environment variable
  chooses between repair and rebuild.  A finite position *outside* the box
  of the first binning is no such case: it is binned to the edge cell, which
  keeps every search exact.
* What an edited grid guarantees: the same candidate *set* with bit-equal
  separations as a fresh generation on the same binning, hence the same
  gather pairs, ``n_neighbors`` and sweep count; the list's *order* differs,
  so sums agree to rounding (1e-12), not bit for bit.
* Accessors (:meth:`SpatialIndex.grid_for`, :meth:`SpatialIndex.tree_for`)
  additionally verify cheap structural facts — particle count, cell-size
  coverage of the requested search radius, scope identity — and rebuild
  (never silently return a stale structure) when they fail.  The density
  solve asks for its grid *under the gas scope*, so a second full pass at
  unchanged or locally edited positions reuses the first one's grid.
* The compact candidate list — the step's largest transient — lives from the
  first pass that generates it to the end of the step's last hydro
  evaluation (:meth:`ForceEngine.release_candidates`, called by the
  integrators after step 7, or after the only pass of the conventional
  scheme); the grid itself stays for box queries until the next signal.
* :attr:`SpatialIndex.stats` counts builds, repairs and reuses (the engine
  mirrors the grid counts as ``accel.grid_*`` tracer counters, which
  ``python -m repro.obs report`` prints per step); the steady-state
  integrator step performs at most one grid build per density solve and at
  most one tree build per step (asserted by the tier-1 tests and recorded
  by ``benchmarks/bench_accel_reuse.py``), and a step whose SN replacement
  was a local edit still builds one grid unless its step-7 solve outgrows
  the cell.

:class:`ForceEngine` layers the per-step force pipeline on top: persistent
work buffers, one full gravity + density + hydro pass
(:meth:`ForceEngine.gravity` / :meth:`ForceEngine.hydro`), and the step-7
fast path (:meth:`ForceEngine.refresh_hydro`) that re-evaluates hydro on the
cached pair lists after cooling/feedback changed ``u`` and kicks changed
``v`` — positions and kernel sizes being untouched, the result is identical
to a cold recompute whose h solve converges on its first sweep.  After a
position signal of any kind it returns ``None`` and step 7 is a full
:meth:`ForceEngine.hydro` — one solve path — which after
:meth:`ForceEngine.notify_rows_moved` starts on the edited grid.

Gravity helper: two processes per tree pass
-------------------------------------------

Inside a node the paper's force loop runs in parallel over interaction
groups; here :class:`ForceEngine` splits every tree pass with one helper
process (:mod:`repro.accel.gravity_helper`):

* **Ownership** — the engine owns the helper process and its shared block
  (a :class:`~repro.serve.shm.SharedMemoryRing`: ``pos``/``mass``/``eps``
  in, the helper's ``acc`` rows out, tagged with the pass number); it
  re-creates the block when star formation outgrows it and
  :meth:`ForceEngine.close` stops and reaps the process and unlinks the
  block (``CoupledRunner.close()`` / ``GalaxySimulation.close()`` call it).
  The helper is forked with the start-method rule of the shm transport
  (:func:`repro.serve.shm.process_context`) and owns nothing it inherits.
* **Start rule** — :meth:`ForceEngine.start_gravity_helper`, called by the
  step host at construction when the engine does the run's gravity
  (``force_mode="global"``), starts it only when ``cfg.self_gravity`` is
  on, the particle count is above ``cfg.direct_gravity_below`` and the host
  has at least two CPUs.  Distributed force mode, direct summation and a
  one-CPU host start no process.
* **Bit-identity** — main and helper build the same octree, walk every
  group, and cut the groups at the same point into two contiguous runs
  (:func:`~repro.gravity.treegrav.split_point`): the helper's holds its
  share of the pairs, half at first, then the share it delivered at the
  last pass's rates, so a helper that shares its CPU with a serve worker
  is given less instead of being waited for; each evaluates its
  run with :meth:`GroupTiles.evaluate
  <repro.gravity.treegrav.GroupTiles.evaluate>`, the one group loop that
  :func:`~repro.gravity.treegrav.tree_accel` runs over every group.  A
  tile writes only its targets' rows, so the assembled ``acc`` equals
  ``tree_accel``'s bit for bit, and so does the particle state of a run.
* **Fallback** — a dead helper, one that misses
  :data:`~repro.accel.gravity_helper.DEADLINE_S`, or an answer for another
  pass: main evaluates the helper's run itself, counts
  ``accel.grav_helper_lost``, logs one warning and runs every later pass
  alone.  No restart.
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
