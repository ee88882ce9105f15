"""Simulated MPI: ranked mailboxes, collectives, and the 3D torus alltoallv.

The paper's scalability hinges on two communication devices that this module
reproduces *algorithmically* (the transport is an in-process loop, but the
message pattern, byte counts and hop structure are the real ones):

* the **main/pool split** of the MPI world (Sec. 3.1): the SN pool is its
  own :class:`SimComm` world of ``n_ranks + n_pool`` ranks, the pool ranks
  after the main ranks (``PoolManager.comm``, ``pool_rank_base``; built
  only by a run with a surrogate server), so main<->pool traffic is plain
  point-to-point on one ledger row (``pool_p2p``);
* the **three-phase 3D ``MPI_Alltoallv``** (Sec. 3.4): ranks are arranged on
  a (qx, qy, qz) grid matching the torus; a flat all-to-all is replaced by
  three axis-wise all-to-alls, so each rank only ever talks to the
  :math:`O(p^{1/3})` ranks in its own line — :meth:`SimComm.alltoallv_3d`.

Every operation updates a :class:`CommStats` ledger (messages, bytes,
byte-hops, per-rank maxima) which feeds the performance model in
:mod:`repro.perf`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.trace import Tracer


@dataclass
class CommStats:
    """Accumulated communication counters for one labelled operation class."""

    n_calls: int = 0
    n_messages: int = 0
    bytes_total: int = 0
    byte_hops: int = 0           # sum over messages of nbytes * torus hops
    max_bytes_per_rank: int = 0  # max over ranks of bytes sent in one call
    #: Sum over calls of the busiest rank's bytes — the bandwidth-bound
    #: critical path of the whole ledger (each call completes no sooner than
    #: its most loaded rank finishes injecting).
    critical_bytes: int = 0

    def merge_call(self, per_rank_bytes: np.ndarray, n_messages: int, byte_hops: int) -> None:
        self.n_calls += 1
        self.n_messages += int(n_messages)
        self.bytes_total += int(per_rank_bytes.sum())
        self.byte_hops += int(byte_hops)
        call_max = int(per_rank_bytes.max(initial=0))
        self.max_bytes_per_rank = max(self.max_bytes_per_rank, call_max)
        self.critical_bytes += call_max


@dataclass
class TorusTopology:
    """A 3D torus of shape (qx, qy, qz) with wrap-around hop metric.

    Stands in for Fugaku's TofuD (whose 6D mesh/torus is conventionally used
    as a folded 3D torus by the rank mapping the paper adopts: the three MPI
    communicators of the 3D alltoallv "match the 3D torus node configuration
    and domain decomposition").
    """

    dims: tuple[int, int, int]

    @property
    def n_ranks(self) -> int:
        qx, qy, qz = self.dims
        return qx * qy * qz

    def coords(self, rank: int) -> tuple[int, int, int]:
        qx, qy, qz = self.dims
        z = rank % qz
        y = (rank // qz) % qy
        x = rank // (qz * qy)
        return x, y, z

    def rank(self, coords: tuple[int, int, int]) -> int:
        qx, qy, qz = self.dims
        x, y, z = coords
        return (x * qy + y) * qz + z

    def hops(self, a: int, b: int) -> int:
        """Minimal torus (wrap-around Manhattan) distance between two ranks."""
        ca, cb = self.coords(a), self.coords(b)
        total = 0
        for d, q in zip((0, 1, 2), self.dims, strict=True):
            diff = abs(ca[d] - cb[d])
            total += min(diff, q - diff)
        return total


def _nbytes(arr: np.ndarray | None) -> int:
    return 0 if arr is None else int(arr.nbytes)


class SimComm:
    """A communicator over ``n_ranks`` simulated processes.

    Data for rank *r* lives at index *r* of the Python lists passed to the
    collectives — a BSP-style "sequential SPMD" execution in which each
    collective performs the full exchange for all ranks at once.  This keeps
    the algorithms (and their counters) identical to the MPI versions while
    remaining debuggable single-process Python.
    """

    def __init__(self, n_ranks: int, topology: TorusTopology | None = None,
                 tracer: Tracer | None = None) -> None:
        if n_ranks <= 0:
            raise ValueError("communicator needs at least one rank")
        self.n_ranks = n_ranks
        self.topology = topology
        if topology is not None and topology.n_ranks != n_ranks:
            raise ValueError("topology size does not match communicator size")
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.stats: dict[str, CommStats] = {}
        self._mailboxes: list[list[tuple[int, int, np.ndarray]]] = [
            [] for _ in range(n_ranks)
        ]

    # ------------------------------------------------------------------ stats
    def _stat(self, label: str) -> CommStats:
        if label not in self.stats:
            self.stats[label] = CommStats()
        return self.stats[label]

    def _merge(self, label: str, per_rank_bytes: np.ndarray, n_messages: int,
               byte_hops: int, t0: float) -> None:
        """One ledger row update + the matching comm-category span.

        Span attrs mirror the :class:`CommStats` increments exactly, so a
        trace's per-label byte sums reproduce the ledger by construction.
        """
        self._stat(label).merge_call(per_rank_bytes, n_messages, byte_hops)
        self.tracer.span_at(
            label, t0, self.tracer.now() - t0, cat="comm",
            bytes=int(per_rank_bytes.sum()),
            messages=int(n_messages),
            critical_bytes=int(per_rank_bytes.max(initial=0)),
        )

    def reset_stats(self) -> None:
        self.stats.clear()

    # --------------------------------------------------------- point to point
    def send(self, src: int, dst: int, arr: np.ndarray, tag: int = 0,
             label: str = "p2p") -> None:
        """Post a message; delivery happens at the matching :meth:`recv`.

        ``label`` picks the :class:`CommStats` ledger row — the pool traffic
        of :mod:`repro.core.pool` uses ``"pool_p2p"`` so the perf model can
        price main<->pool transfers separately from intra-main exchanges.
        """
        t0 = self.tracer.now()
        per_rank = np.zeros(self.n_ranks, dtype=np.int64)
        per_rank[src] = _nbytes(arr)
        hops = self.topology.hops(src, dst) if self.topology else 1
        self._mailboxes[dst].append((src, tag, arr))
        self._merge(label, per_rank, 1, _nbytes(arr) * hops, t0)

    def recv(self, dst: int, src: int | None = None, tag: int | None = None) -> np.ndarray | None:
        """Pop the first matching message for ``dst`` (None if empty)."""
        box = self._mailboxes[dst]
        for i, (s, t, arr) in enumerate(box):
            if (src is None or s == src) and (tag is None or t == tag):
                box.pop(i)
                return arr
        return None

    def pending(self, dst: int) -> int:
        return len(self._mailboxes[dst])

    # ------------------------------------------------------------ collectives
    def alltoallv(
        self,
        send: list[list[np.ndarray | None]],
        label: str = "alltoallv",
    ) -> list[list[np.ndarray | None]]:
        """Flat all-to-all: ``recv[dst][src] = send[src][dst]``.

        Every pair with a non-empty buffer is one message (the naive O(p)
        pattern the 3D algorithm avoids).
        """
        p = self.n_ranks
        if len(send) != p:
            raise ValueError("send matrix must have one row per rank")
        t0 = self.tracer.now()
        per_rank = np.zeros(p, dtype=np.int64)
        n_msg = 0
        byte_hops = 0
        recv: list[list[np.ndarray | None]] = [[None] * p for _ in range(p)]
        for src in range(p):
            row = send[src]
            if len(row) != p:
                raise ValueError("send row length must equal n_ranks")
            for dst in range(p):
                buf = row[dst]
                if buf is None:
                    continue
                nb = _nbytes(buf)
                per_rank[src] += nb
                if src != dst:
                    n_msg += 1
                    hops = self.topology.hops(src, dst) if self.topology else 1
                    byte_hops += nb * hops
                recv[dst][src] = buf
        self._merge(label, per_rank, n_msg, byte_hops, t0)
        return recv

    def alltoallv_3d(
        self,
        send: list[list[np.ndarray | None]],
        label: str = "alltoallv_3d",
    ) -> list[list[np.ndarray | None]]:
        """Three-phase torus alltoallv (Sec. 3.4).

        A message from (x1,y1,z1) to (x2,y2,z2) is staged x -> y -> z: it
        first travels within the x-line to (x2,y1,z1), then within the y-line
        to (x2,y2,z1), then within the z-line to its destination.  Each phase
        is an alltoallv over lines of length q ~ p^{1/3}, so every rank
        exchanges messages with only O(p^{1/3}) peers per phase, at the cost
        of forwarding (each payload crosses the wire up to three times).

        Requires a :class:`TorusTopology`.  Delivery is verified against the
        flat :meth:`alltoallv` in the test suite.
        """
        if self.topology is None:
            raise RuntimeError("alltoallv_3d requires a torus topology")
        topo = self.topology
        p = self.n_ranks
        # in_transit[holder] = list of (final_src, final_dst, payload)
        in_transit: list[list[tuple[int, int, np.ndarray]]] = [[] for _ in range(p)]
        for src in range(p):
            for dst in range(p):
                buf = send[src][dst]
                if buf is not None:
                    in_transit[src].append((src, dst, buf))

        for axis in range(3):
            t0 = self.tracer.now()
            per_rank = np.zeros(p, dtype=np.int64)
            n_msg = 0
            byte_hops = 0
            nxt: list[list[tuple[int, int, np.ndarray]]] = [[] for _ in range(p)]
            # Group per (holder -> hop target) to model message aggregation:
            # all payloads moving between the same pair in this phase share
            # one message, exactly like packing one MPI_Alltoallv buffer.
            pair_bytes: dict[tuple[int, int], int] = {}
            for holder in range(p):
                hc = topo.coords(holder)
                for (src, dst, buf) in in_transit[holder]:
                    dc = topo.coords(dst)
                    target_coords = tuple(
                        dc[d] if d <= axis else hc[d] for d in range(3)
                    )
                    target = topo.rank(target_coords)  # move along `axis` only
                    nxt[target].append((src, dst, buf))
                    if target != holder:
                        nb = _nbytes(buf)
                        per_rank[holder] += nb
                        pair_bytes[(holder, target)] = pair_bytes.get((holder, target), 0) + nb
            for (a, b), nb in pair_bytes.items():
                n_msg += 1
                byte_hops += nb * topo.hops(a, b)
            self._merge(label, per_rank, n_msg, byte_hops, t0)
            in_transit = nxt

        recv: list[list[np.ndarray | None]] = [[None] * p for _ in range(p)]
        for holder in range(p):
            for (src, dst, buf) in in_transit[holder]:
                if dst != holder:
                    raise AssertionError("3D alltoallv routing failed to converge")
                recv[dst][src] = buf
        return recv

    def allgather(self, values: list[np.ndarray], label: str = "allgather") -> list[list[np.ndarray]]:
        """Every rank receives every rank's buffer."""
        send = [[values[src] for _dst in range(self.n_ranks)] for src in range(self.n_ranks)]
        recv = self.alltoallv(send, label=label)
        return [[recv[dst][src] for src in range(self.n_ranks)] for dst in range(self.n_ranks)]

    def allreduce_sum(self, values: list[np.ndarray], label: str = "allreduce") -> np.ndarray:
        """Sum of per-rank buffers (same result on every rank)."""
        gathered = self.allgather(values, label=label)
        return np.sum(np.stack(gathered[0]), axis=0)
