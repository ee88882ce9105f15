"""Pool-node management: the main/pool split of Sec. 3.1.

The MPI world is split in two: *main* ranks integrate the galaxy, *pool*
ranks run U-Net inference on SN regions.  Here the split is the pool's own
:class:`SimComm` world of ``n_ranks + n_pool`` ranks, the pool ranks after
the main ranks (``pool_rank_base``).  :class:`PoolManager` keeps the
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

The step host (:class:`repro.core.runner.CoupledRunner`) runs *one*
``PoolManager`` for all of its main ranks, as the paper's pool nodes serve
every main rank: :meth:`dispatch` takes the sending rank (``main_rank``,
recorded on the :class:`SNEvent`), one busy calendar books the pool nodes
for every rank (no double-booking), and ``pool_rank_base`` places the pool
nodes after *all* main ranks in the pool world, so every rank's traffic
joins the same ``pool_p2p`` ledger.  The server hands predictions back in
event-id order — dispatch order — whichever rank sent them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.events import SNEvent
from repro.fdps.comm import SimComm
from repro.fdps.particles import ParticleSet
from repro.serve import SurrogateServer


@dataclass
class PoolManager:
    """Round-robin dispatcher over ``n_pool`` pool nodes of one server."""

    #: Inference service (a ``shm``-transport server overlaps the pool
    #: nodes' work with the main loop).
    server: SurrogateServer
    n_pool: int = 50
    latency_steps: int = 50
    seed: int = 0
    comm: SimComm | None = None     # optional: counts pool traffic bytes
    #: World rank of pool node 0 on ``comm``: the pool sits after all
    #: ``n_ranks`` main ranks (base ``n_ranks``; 1 for a lone main rank).
    pool_rank_base: int = 1

    events: list[SNEvent] = field(default_factory=list)
    _by_event_id: dict[int, SNEvent] = field(default_factory=dict, init=False, repr=False)
    #: The busy calendar: pool rank -> step its prediction is due back.
    _busy_until: dict[int, int] = field(default_factory=dict, init=False, repr=False)
    _next_rank: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_pool < 1:
            raise ValueError("need at least one pool node")
        if self.comm is not None and self.comm.n_ranks < self.pool_rank_base + self.n_pool:
            raise ValueError("communicator too small for main + pool ranks")

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
        for k in range(self.n_pool):
            cand = (self._next_rank + k) % self.n_pool
            if self._busy_until.get(cand, -1) <= step:
                return cand
        return None

    # --------------------------------------------------------------- dispatch
    def dispatch(
        self,
        region: ParticleSet,
        center: np.ndarray,
        star_pid: int,
        time: float,
        step: int,
        main_rank: int = 0,
    ) -> SNEvent:
        """Send one SN region from ``main_rank`` to a pool node (step 2 of
        the Sec. 3.2 loop)."""
        rank = self.free_pool_rank(step)
        handling = "pooled"
        if rank is None:
            # Every node is busy: queue on the next one anyway — with the
            # paper's sizing (n_pool = latency) this only happens when >1 SN
            # fires per step per pool node.
            self.server.metrics.n_overflow += 1
            rank = self._next_rank
            handling = "queued"
        return_step = step + self.latency_steps
        self._next_rank = (rank + 1) % self.n_pool
        self._busy_until[rank] = return_step

        request = self.server.submit(
            region,
            center,
            star_pid=int(star_pid),
            dispatch_step=int(step),
            return_step=int(return_step),
            base_seed=self.seed,
        )

        event = SNEvent(
            star_pid=int(star_pid),
            center=np.asarray(center, dtype=np.float64).copy(),
            time=float(time),
            dispatch_step=int(step),
            return_step=int(return_step),
            pool_rank=int(rank),
            main_rank=int(main_rank),
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
                event.main_rank,
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
        predictions inline inside the caller's step-(2) span, moving DL
        seconds from the Receive_SNe breakdown row into Send_SNe.  Collect
        still ticks, so a sync run pays them under Receive_SNe.
        """
        if self.server.transport_name != "sync":
            self.server.tick(step)

    # ----------------------------------------------------------------- collect
    def collect(self, step: int) -> list[tuple[SNEvent, ParticleSet]]:
        """Predictions due at ``step`` (step 4 of the loop), in event-id
        order.

        Returns (event, predicted particles) pairs; the caller merges them
        with ``replace_by_pid``.  With the shm transport the work
        already happened on the pool workers — a late prediction blocks
        here and the wait is charged to the service metrics.
        """
        out: list[tuple[SNEvent, ParticleSet]] = []
        for response in self.server.collect(step):
            event = self._by_event_id.pop(response.event_id)
            event.returned = True
            if self.comm is not None:
                pool_rank = self.pool_rank_base + event.pool_rank
                self.comm.send(
                    pool_rank,
                    event.main_rank,
                    response.to_buffer(),
                    tag=event.return_step,
                    label="pool_p2p",
                )
                # drain the mailboxes so the simulated comm doesn't grow
                self.comm.recv(pool_rank, src=event.main_rank)
                self.comm.recv(event.main_rank, src=pool_rank)
            out.append((event, response.particles))
        return out

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the service (terminates shm-transport workers)."""
        self.server.close()

    def __enter__(self) -> "PoolManager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -------------------------------------------------------------- statistics
    def summary(self) -> dict:
        events, server = self.events, self.server
        return {
            "n_events": len(events),
            "n_returned": sum(1 for e in events if e.returned),
            "n_in_flight": server.n_outstanding,
            "n_overflow": server.metrics.n_overflow,
            "total_region_particles": sum(e.n_region_particles for e in events),
            "total_region_bytes": sum(e.region_bytes for e in events),
            "service": server.metrics_dict(),
        }
