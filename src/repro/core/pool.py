"""Pool-node management: the main/pool communicator split of Sec. 3.1.

The MPI world is split in two: *main* ranks integrate the galaxy, *pool*
ranks run U-Net inference on SN regions.  :class:`PoolManager` keeps the
paper's protocol — :meth:`dispatch` ships a detected SN's (60 pc)^3 region
to the next free pool node, :meth:`collect` merges the prediction back
``latency_steps`` global steps later — but it is now a *thin client* over a
:class:`repro.serve.SurrogateServer`:

* regions cross the transport in the packed-``FIELDS`` wire format of
  :mod:`repro.serve.wire`, and exactly those bytes are charged to the
  :class:`SimComm` ledger (label ``"pool_p2p"``);
* the server's scheduler coalesces concurrent SNe into batches and its
  ``shm`` transport runs them on worker processes genuinely overlapped
  with the main loop — the default ``sync`` transport executes at flush
  time in-process, preserving the old deterministic critical path for
  tests (per-event Gibbs seeding makes both transports bit-identical);
* when every pool node is busy the SN queues on the next one and is
  counted (``ServiceMetrics.n_overflow``) — the paper's sizing, ``n_pool =
  latency_steps``, makes that happen only when more than one SN per step
  fires per pool node; no SN event is ever dropped.

The step host (:class:`repro.core.runner.CoupledRunner`) runs one
``PoolManager`` *per main rank* — one on a 1-rank run — each a client of the
one shared server: requests are rank-tagged via ``client_id`` (so each
rank's :meth:`collect` pops only its own events), the pool-node occupancy
calendar is shared through one :class:`PoolOccupancy` (no double-booking
across ranks), and ``pool_rank_base`` places the pool nodes after *all* main
ranks in the world communicator — every rank's traffic joins the same
``pool_p2p`` ledger.  A manager built on its own (no ``comm``, no shared
calendar, a private sync server from ``surrogate``) is the standalone client
its unit tests and the pool-sizing ablation drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.events import SNEvent
from repro.fdps.comm import SimComm
from repro.fdps.particles import ParticleSet
from repro.serve import SurrogateServer
from repro.surrogate.model import SNSurrogate


@dataclass
class PoolOccupancy:
    """The pool nodes' shared busy calendar (round-robin, per-step grain).

    One instance per *server*: the step host passes one object to every
    rank's :class:`PoolManager` so two ranks can never book the same pool
    node for overlapping latency windows.
    """

    n_pool: int
    busy_until: dict[int, int] = field(default_factory=dict)
    next_rank: int = 0

    def free_rank(self, step: int) -> int | None:
        """First pool rank idle at ``step`` (round-robin scan)."""
        for k in range(self.n_pool):
            cand = (self.next_rank + k) % self.n_pool
            if self.busy_until.get(cand, -1) <= step:
                return cand
        return None

    def book(self, rank: int, until_step: int) -> None:
        self.next_rank = (rank + 1) % self.n_pool
        self.busy_until[rank] = until_step


@dataclass
class PoolManager:
    """Round-robin dispatcher over ``n_pool`` surrogate workers."""

    surrogate: SNSurrogate | None = None
    n_pool: int = 50
    latency_steps: int = 50
    seed: int = 0
    comm: SimComm | None = None     # optional: counts pool traffic bytes
    main_rank: int = 0
    #: Inference service; built lazily (sync transport) from ``surrogate``
    #: when not supplied.  Pass a ``shm``-transport server for true
    #: pool-node overlap.
    server: SurrogateServer | None = None
    #: World rank of pool node 0 on ``comm``: the pool sits after all
    #: ``n_ranks`` main ranks (base ``n_ranks``; 1 for a lone main rank).
    pool_rank_base: int = 1
    #: Client tag for multi-rank runs: when set, the server hands this
    #: manager only its own events back (see ``SurrogateServer.collect``).
    client_id: int | None = None
    #: Shared busy calendar; None builds a private one.
    occupancy: PoolOccupancy | None = None

    events: list[SNEvent] = field(default_factory=list)
    _by_event_id: dict[int, SNEvent] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.n_pool < 1:
            raise ValueError("need at least one pool node")
        if self.comm is not None and self.comm.n_ranks < self.pool_rank_base + self.n_pool:
            raise ValueError("communicator too small for main + pool ranks")
        if self.occupancy is None:
            self.occupancy = PoolOccupancy(n_pool=self.n_pool)
        elif self.occupancy.n_pool != self.n_pool:
            raise ValueError("shared occupancy sized for a different pool")
        if self.server is None:
            if self.surrogate is None:
                raise ValueError("need a surrogate or a SurrogateServer")
            self.server = SurrogateServer(surrogate=self.surrogate, transport="sync")

    # ------------------------------------------------------------------ sizes
    @property
    def n_in_flight(self) -> int:
        return self.server.n_outstanding

    @property
    def n_overflow(self) -> int:
        """SNe that found every pool node busy."""
        return self.server.metrics.n_overflow

    def free_pool_rank(self, step: int) -> int | None:
        """First pool rank idle at ``step`` (round-robin scan)."""
        return self.occupancy.free_rank(step)

    # --------------------------------------------------------------- dispatch
    def dispatch(
        self,
        region: ParticleSet,
        center: np.ndarray,
        star_pid: int,
        time: float,
        step: int,
    ) -> SNEvent:
        """Send one SN region to a pool node (step 2 of the Sec. 3.2 loop)."""
        rank = self.free_pool_rank(step)
        handling = "pooled"
        if rank is None:
            # Every node is busy: queue on the next one anyway — with the
            # paper's sizing (n_pool = latency) this only happens when >1 SN
            # fires per step per pool node.
            self.server.metrics.n_overflow += 1
            rank = self.occupancy.next_rank % self.n_pool
            handling = "queued"
        return_step = step + self.latency_steps
        self.occupancy.book(rank, return_step)

        request = self.server.submit(
            region,
            center,
            star_pid=int(star_pid),
            dispatch_step=int(step),
            return_step=int(return_step),
            base_seed=self.seed,
            client=self.client_id,
        )

        event = SNEvent(
            star_pid=int(star_pid),
            center=np.asarray(center, dtype=np.float64).copy(),
            time=float(time),
            dispatch_step=int(step),
            return_step=int(return_step),
            pool_rank=int(rank),
            n_region_particles=len(region),
            # The request's wire bytes (cached encode) — the same figure the
            # pool_p2p ledger charges, so summary() and CommStats agree.
            region_bytes=int(request.to_buffer().nbytes),
            event_id=request.event_id,
            seed=self.seed,
            handling=handling,
        )
        if self.comm is not None:
            self.comm.send(
                self.main_rank,
                self.pool_rank_base + rank,
                request.to_buffer(),
                tag=event.dispatch_step,
                label="pool_p2p",
            )
        self.events.append(event)
        self._by_event_id[event.event_id] = event
        return event

    # ------------------------------------------------------------------ flush
    def flush(self, step: int) -> None:
        """Ship due batches to the workers *now* (called right after the
        dispatch loop so inference overlaps the force computation).

        A no-op for the sync transport: flushing there would *execute* the
        predictions inline inside the caller's step-(2) timer, moving DL
        seconds from the Receive_SNe breakdown row (where the legacy lazy
        path paid them at collect time) into Send_SNe.  Collect still ticks,
        so sync timing categories match the pre-service code exactly.
        """
        if self.server.transport_name != "sync":
            self.server.tick(step)

    # ----------------------------------------------------------------- collect
    def collect(self, step: int) -> list[tuple[SNEvent, ParticleSet]]:
        """Predictions due at ``step`` (step 4 of the loop).

        Returns (event, predicted particles) pairs; the caller merges them
        with ``replace_by_pid``.  With the shm transport the work
        already happened on the pool workers — a late prediction blocks
        here and the wait is charged to the service metrics.
        """
        out: list[tuple[SNEvent, ParticleSet]] = []
        for response in self.server.collect(step, client=self.client_id):
            event = self._by_event_id.pop(response.event_id)
            event.returned = True
            if self.comm is not None:
                self.comm.send(
                    self.pool_rank_base + event.pool_rank,
                    self.main_rank,
                    response.to_buffer(),
                    tag=event.return_step,
                    label="pool_p2p",
                )
                # drain the mailboxes so the simulated comm doesn't grow
                self.comm.recv(self.pool_rank_base + event.pool_rank)
                self.comm.recv(self.main_rank)
            out.append((event, response.particles))
        return out

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the service (terminates shm-transport workers)."""
        if self.server is not None:
            self.server.close()

    def __enter__(self) -> "PoolManager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -------------------------------------------------------------- statistics
    def summary(self) -> dict:
        returned = sum(1 for e in self.events if e.returned)
        return {
            "n_events": len(self.events),
            "n_returned": returned,
            "n_in_flight": self.n_in_flight,
            "n_overflow": self.n_overflow,
            "total_region_particles": sum(e.n_region_particles for e in self.events),
            "total_region_bytes": sum(e.region_bytes for e in self.events),
            "service": self.server.metrics_dict(),
        }
