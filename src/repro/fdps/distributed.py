"""The distributed FDPS pipeline over the simulated communicator.

This is the multi-rank execution path the paper runs on Fugaku, executed
faithfully (same phases, same messages) on the in-process MPI.  It holds
phases, not a step: the one step host,
:class:`~repro.core.runner.CoupledRunner`, calls them from its eight-step
loop (with ``force_mode="distributed"`` for the force phases too).  Each
rank owns a :class:`repro.accel.SpatialIndex` whose cached octree is reused
everywhere a tree is needed within a force pass, with explicit invalidation
at the exchange boundary (and by the host after its drift):

1. **domain decomposition** — multisection over a seeded random subsample,
   with optional per-particle work weights (Sec. 5.2: the decomposition
   minimizes the *sum* of gravity and hydro work; in global force mode
   the host passes its engine's Table-3-anchored weights);
2. **particle exchange** — every rank sends emigrants through the (flat or
   3-phase torus) alltoallv.  The payload is the *full* packed particle
   (every :data:`repro.fdps.particles.FIELDS` column), so the byte ledger
   counts exactly what migration costs; membership changed, so every rank's
   spatial index is invalidated;
3. **local tree construction** per rank — at most one build per rank per
   force pass, through :meth:`SpatialIndex.tree_for` (a still-valid cached
   tree is reused, and the build/reuse counters record the guarantee);
4. **LET exchange** — monopoles + boundary particles toward every remote
   domain, exported by walking the *same* cached per-rank tree;
5. **force calculation** — group-wise walks over that same cached local
   tree, with the imported LET matter (already per-domain aggregated)
   appended to each group's interaction list;
6. **SN-region ghosts** — the remote gas of an SN cube that crosses its
   owner's domain box (:meth:`DistributedGravity.exchange_region_ghosts`).

The driver is the integration test of the whole framework: forces computed
through the full distributed pipeline must match a single-rank global tree
at tree-code accuracy (:meth:`DistributedGravity.global_accel`), with all
communication visible in the CommStats ledgers (used by the performance
model's byte-anchored comm terms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accel.backends.base import TileWorkspace
from repro.accel.index import SpatialIndex
from repro.fdps.comm import SimComm, TorusTopology
from repro.fdps.domain import DomainDecomposition, process_grid
from repro.fdps.interaction import InteractionCounter
from repro.fdps.let import exchange_let
from repro.fdps.particles import ParticleSet, ParticleType, packed_width
from repro.fdps.tree import Octree
from repro.gravity.treegrav import record_gravity_pass, tree_accel
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.util.timers import TimerRegistry


@dataclass
class DistributedGravity:
    """Multi-rank gravity via the full FDPS pipeline.

    Parameters
    ----------
    n_ranks : number of simulated MPI ranks (main nodes).
    theta : opening angle for both the force walk and the LET export.
    use_torus : route the LET exchange through the 3-phase 3D alltoallv
        (requires ``n_ranks`` to factor into a torus; any count works —
        the factorization is the near-cubic one of ``process_grid``).
    backend : compute-backend name for the force kernels (None resolves
        ``$REPRO_BACKEND``, then ``numpy``) — every rank's walk runs the
        same kernels the single-rank :class:`repro.accel.ForceEngine` uses.
    """

    n_ranks: int
    theta: float = 0.4
    n_g: int = 128
    leaf_size: int = 16
    use_torus: bool = False
    mixed_precision: bool = False
    backend: str | None = None
    #: Per-rank phase spans and the communicator's ledger spans land on it
    #: (``rank`` attr = the simulated rank, so the run report's
    #: slowest-rank merge sees ranks); disabled by default.
    tracer: Tracer | NullTracer = NULL_TRACER
    grid: tuple[int, int, int] = field(init=False)
    comm: SimComm = field(init=False)
    #: One spatial index per rank: the cached octree serves the LET export
    #: and the force walk; its stats record the builds-per-step guarantee.
    indices: list[SpatialIndex] = field(init=False)
    #: One timer registry per rank — the Table-3 bookkeeping of the
    #: distributed phases, merged with :meth:`TimerRegistry.slowest`.
    timers: list[TimerRegistry] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("need at least one rank")
        self.grid = process_grid(self.n_ranks)
        topo = TorusTopology(self.grid) if self.use_torus else None
        self.comm = SimComm(self.n_ranks, topology=topo, tracer=self.tracer)
        self.indices = [SpatialIndex() for _ in range(self.n_ranks)]
        self.timers = [
            TimerRegistry(tracer=self.tracer, rank=r) for r in range(self.n_ranks)
        ]
        from repro.accel.backends import get_backend

        self._backend = get_backend(self.backend)
        #: Gravity tile scratch shared by the per-rank walks and their import
        #: tiles (ranks run one after another; not thread-safe).
        self._tile_workspace = TileWorkspace()

    def release_workspace(self) -> None:
        """Hand the gravity tile scratch back (the owner is done stepping);
        a later pass grows a new one."""
        self._tile_workspace = TileWorkspace()

    # ----------------------------------------------------------------- phases
    def decompose(
        self, ps: ParticleSet, weights: np.ndarray | None = None
    ) -> tuple[DomainDecomposition, np.ndarray]:
        """Phase 1: fit the multisection and assign every particle a rank."""
        with self.timers[0].measure("Decompose_Domain"):
            decomp = DomainDecomposition.fit(ps.pos, self.grid, weights=weights)
            return decomp, decomp.assign(ps.pos)

    def exchange_particles(
        self, locals_: list[ParticleSet], decomp: DomainDecomposition
    ) -> list[ParticleSet]:
        """Phase 2: move emigrants to their new owners via alltoallv.

        Each rank packs its per-destination emigrants as *complete*
        particles — every :data:`~repro.fdps.particles.FIELDS` column,
        via :meth:`ParticleSet.pack` — into one byte-counted buffer per
        destination; receivers rebuild the sets from the wire format.  The
        ledger therefore counts the full migrated payload exactly.  A rank
        whose membership changed (emigrants left or immigrants arrived) has
        its spatial index invalidated; untouched ranks keep their caches.
        """
        p = self.n_ranks
        send: list[list[np.ndarray | None]] = [[None] * p for _ in range(p)]
        keep: list[ParticleSet] = []
        emigrated = [False] * p
        for src in range(p):
            with self.timers[src].measure("Exchange_Particle"):
                ps = locals_[src]
                owner = decomp.assign(ps.pos)
                keep.append(ps.select(owner == src))
                emigrated[src] = len(keep[src]) != len(ps)
                for dst in range(p):
                    if dst == src:
                        continue
                    moving = ps.select(owner == dst)
                    if len(moving) == 0:
                        continue
                    send[src][dst] = moving.pack()  # byte-counted full payload
        recv = (
            self.comm.alltoallv_3d(send, label="exchange_particles")
            if self.use_torus
            else self.comm.alltoallv(send, label="exchange_particles")
        )
        out: list[ParticleSet] = []
        for dst in range(p):
            with self.timers[dst].measure("Exchange_Particle"):
                merged = keep[dst]
                immigrated = False
                for buf in recv[dst]:
                    if buf is not None:
                        merged = merged.append(ParticleSet.unpack(buf))
                        immigrated = True
                out.append(merged)
                if emigrated[dst] or immigrated:
                    self.indices[dst].invalidate_all()
        return out

    def exchange_region_ghosts(
        self,
        locals_: list[ParticleSet],
        requests: list[tuple[int, np.ndarray]],
        side: float,
    ) -> list[ParticleSet]:
        """Pull the remote gas of SN-region cubes across rank boundaries.

        ``requests`` is one ``(owner_rank, center)`` pair per SN event whose
        (side)^3 cube may cross the owner's domain box.  Every *other* rank
        scans its local gas for particles inside each cube and ships full
        packed particles to the owner through the same (flat or 3-phase
        torus) alltoallv as the migration path, charged to the
        ``region_ghost`` ledger label — the owner's ``extract_region`` is
        then rank-complete.  Returns one ghost set per request (empty when
        the cube lies entirely inside the owner's slab).

        Wire format per (src, dst) buffer: concatenated blocks, each one
        header row (slot 0 = request index, slot 1 = particle count, padded
        to ``packed_width()``) followed by that many packed particle rows —
        so the ledger counts the true ghost payload plus one row of framing
        per (request, contributing rank) pair.
        """
        p = self.n_ranks
        half = side / 2.0
        width = packed_width()
        empty = ParticleSet.empty(0)
        ghosts: list[ParticleSet] = [empty.copy() for _ in requests]
        if p == 1 or not requests:
            return ghosts
        send: list[list[np.ndarray | None]] = [[None] * p for _ in range(p)]
        for src in range(p):
            with self.timers[src].measure("Exchange_Region"):
                ps = locals_[src]
                if len(ps) == 0:
                    continue
                gas = ps.where_type(ParticleType.GAS)
                blocks: dict[int, list[np.ndarray]] = {}
                for k, (owner, center) in enumerate(requests):
                    if owner == src:
                        continue
                    c = np.asarray(center, dtype=np.float64)
                    inside = gas & np.all(
                        np.abs(ps.pos - c[None, :]) <= half, axis=1
                    )
                    idx = np.flatnonzero(inside)
                    if idx.size == 0:
                        continue
                    payload = ps.select(idx).pack()
                    header = np.zeros((1, width))
                    header[0, 0] = k
                    header[0, 1] = idx.size
                    blocks.setdefault(owner, []).append(
                        np.concatenate([header, payload])
                    )
                for dst, parts in blocks.items():
                    send[src][dst] = np.concatenate(parts)
        recv = (
            self.comm.alltoallv_3d(send, label="region_ghost")
            if self.use_torus
            else self.comm.alltoallv(send, label="region_ghost")
        )
        for dst in range(p):
            with self.timers[dst].measure("Exchange_Region"):
                for src in range(p):
                    buf = recv[dst][src]
                    if buf is None:
                        continue
                    buf = np.asarray(buf, dtype=np.float64).reshape(-1, width)
                    i = 0
                    while i < len(buf):
                        k = int(buf[i, 0])
                        n = int(buf[i, 1])
                        ghosts[k] = ghosts[k].append(
                            ParticleSet.unpack(buf[i + 1 : i + 1 + n])
                        )
                        i += 1 + n
        return ghosts

    def forces(
        self,
        locals_: list[ParticleSet],
        decomp: DomainDecomposition,
        counter: InteractionCounter | None = None,
    ) -> list[np.ndarray]:
        """Phases 3-5: local trees, LET exchange, group-walk forces.

        Each rank's tree comes from its :class:`SpatialIndex` cache (at most
        one build per rank, zero when still valid) and serves both the LET
        export walk and the force walk; imports enter the group interaction
        lists directly.
        """
        glo = np.min([ps.pos.min(axis=0) for ps in locals_ if len(ps)], axis=0)
        ghi = np.max([ps.pos.max(axis=0) for ps in locals_ if len(ps)], axis=0)
        trees: list[Octree | None] = []
        for rank, ps in enumerate(locals_):
            with self.timers[rank].measure("Tree_Construction"):
                trees.append(
                    self.indices[rank].tree_for(
                        ps.pos, ps.mass, leaf_size=self.leaf_size
                    )
                    if len(ps)
                    else None
                )
        # Empty ranks export nothing; exchange_let wants a tree per rank, so
        # substitute a trivial far-away particle (zero mass = no force).
        safe_trees = [
            t
            if t is not None
            else Octree.build(np.array([[1e12, 1e12, 1e12]]), np.array([0.0]))
            for t in trees
        ]
        with self.timers[0].measure("Exchange_LET"):
            imports = exchange_let(
                self.comm, safe_trees, decomp, glo, ghi, self.theta,
                use_3d=self.use_torus,
            )
        accs: list[np.ndarray] = []
        pairs = 0
        for rank, ps in enumerate(locals_):
            if len(ps) == 0:
                accs.append(np.zeros((0, 3)))
                continue
            with self.timers[rank].measure("Calc_Force", backend=self._backend.name):
                res = tree_accel(
                    ps.pos,
                    ps.mass,
                    ps.eps,
                    theta=self.theta,
                    n_g=self.n_g,
                    leaf_size=self.leaf_size,
                    counter=counter,
                    mixed_precision=self.mixed_precision,
                    extra_pos=imports[rank].pos,
                    extra_mass=imports[rank].mass,
                    tree=trees[rank],
                    backend=self._backend,
                    workspace=self._tile_workspace,
                )
            accs.append(res.acc)
            pairs += res.interactions
        record_gravity_pass(self.tracer, pairs, self._tile_workspace)
        return accs

    # ------------------------------------------------------- whole-set entry
    def scatter(self, ps: ParticleSet) -> tuple[DomainDecomposition, list[ParticleSet]]:
        """Initial distribution of a global set onto the ranks."""
        decomp, owner = self.decompose(ps)
        for index in self.indices:
            index.invalidate_all()
        return decomp, [ps.select(owner == r) for r in range(self.n_ranks)]

    @staticmethod
    def gather(locals_: list[ParticleSet]) -> ParticleSet:
        """Concatenate all ranks back into one global set (pid-sorted)."""
        out = locals_[0]
        for ps in locals_[1:]:
            out = out.append(ps)
        order = np.argsort(out.pid, kind="stable")
        out.reorder(order)
        return out

    def global_accel(self, ps: ParticleSet) -> np.ndarray:
        """One-shot distributed force evaluation.

        Accelerations are returned aligned row-for-row with the input
        ``ps`` (NOT in pid order): ``acc[i]`` is the acceleration of
        ``ps.pid[i]`` whatever that pid is.
        """
        decomp, locals_ = self.scatter(ps)
        accs = self.forces(locals_, decomp)
        pid = np.concatenate([loc.pid for loc in locals_])
        acc = np.concatenate(accs)
        order = np.argsort(pid, kind="stable")
        # acc[order] is pid-sorted; inv maps each input row to the slot of
        # its pid in that sorted order, restoring input-row alignment.
        inv = np.argsort(np.argsort(ps.pid, kind="stable"), kind="stable")
        return acc[order][inv]
