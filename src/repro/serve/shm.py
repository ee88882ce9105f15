"""The worker transport: pool processes over per-batch shared blocks.

``shm`` is the one transport of :mod:`repro.serve` that runs inference off
the main rank: ``n_workers`` OS processes, each of which builds its own
surrogate (from a picklable :class:`~repro.serve.server.SurrogateSpec` or a
pickled :class:`~repro.surrogate.model.SNSurrogate`) and serves batches
from a shared request queue.  A ``multiprocessing.Queue`` alone would
pickle every float64 payload and copy it through a pipe twice (feeder
thread write + reader drain); at the paper's production grid the per-event
payload is hundreds of kilobytes and, as the precursor works found, that
data movement (not the forward pass) is what dominates pool-node cost.
This module keeps the payloads off the pipe:

* Every dispatched batch gets its own block, a
  :class:`~repro.util.shm.SharedMemoryRing` with one float64 slot per
  request, sized to the batch's largest request.  The ring, the fork rule
  and the stop-and-reap of a worker come from :mod:`repro.util.shm`, the
  toolkit the gravity helper uses too.
* Requests are encoded straight into their slots (one memmove of the
  already-wire-framed buffer).  The worker that takes the batch attaches
  the block by name, runs the batched predictor, and overwrites each slot
  with the encoded prediction — a response never outgrows the request
  that carried the same particles (smaller header, identical payload
  shape), so every request fits.
* Only tiny control tuples ``(batch_id, block_name, [nfloats, ...])``
  cross the queues, so pipe traffic is O(events), not O(bytes).

The slots reuse the exact :mod:`repro.serve.wire` framing, so the byte
figures charged to the :class:`~repro.fdps.comm.SimComm` ``pool_p2p``
ledger — always the wire buffer's ``nbytes`` — are identical across the
``sync`` and ``shm`` transports.

Worker protocol
---------------

This module owns the whole worker side: the worker main and the
tagged-row pump of :class:`_ShmTransport`.  Workers post two kinds of row
on the result queue:

* ``("claim", worker_id, batch_id)`` — posted *before* serving, so a death
  mid-batch is attributable to exactly this batch.
* ``("done", worker_id, batch_id, payload, busy_s)`` — the response
  lengths, or the worker-side exception.

A worker that dies is lost for good, as the gravity helper is: the
transport turns each batch it claimed into a :class:`WorkerLost` reply
(the server resolves those inline on the main rank), and the survivors
carry on.  Nothing restarts.  With no worker left the transport is
``degraded``.

Block lifetime
--------------

A block is unlinked once, by the first of: the batch's done row (after
its responses are copied out), the death of the worker that claimed it,
the server expiring the batch, or transport close.  The ``lease-pairing``
lint rule checks that every block is unlinked on a ``finally`` edge or
held in the in-flight map.  Blocks are never reused, so an unlink never
races a worker: a hung or late worker keeps its own mapping and writes
into memory nothing else will read, and its reply is dropped as stale.  A
worker that takes a batch whose block is already gone (it expired while
queued) cannot attach it and skips it.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.obs.trace import NULL_TRACER
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.metrics import ServiceMetrics
from repro.serve.wire import ServeRequest, ServeResponse
from repro.surrogate.model import SNSurrogate
from repro.util.shm import SharedMemoryRing, process_context, stop_process

#: Longest single blocking read on the result queue; bounds how stale the
#: death and deadline checks can get while the main rank waits.
_WAIT_SLICE_S = 0.25

#: Seconds :meth:`_ShmTransport.close` gives a worker to exit before it is
#: killed; a worker still holding an expired batch gets the short one (it
#: exits in that time if it only lost its reply, not if it hangs).
_CLOSE_GRACE_S, _HUNG_GRACE_S = 10.0, 0.25

#: A transport reply: ``(batch_id, worker_id, payload, busy_seconds)``
#: where the payload is the response buffers, a worker-side exception, or
#: a :class:`WorkerLost` marker for a batch lost to a dead worker.
Reply = tuple[int, int, "list[np.ndarray] | Exception", float]


class WorkerLost(RuntimeError):
    """Marker payload: the worker holding this batch died before replying.

    Travels *in band* as a reply payload so the server's absorb loop sees
    worker deaths in dispatch order relative to real replies; it is never
    raised by the transports themselves.
    """


def predict_responses(
    surrogate: SNSurrogate, buffers: list[np.ndarray]
) -> list[ServeResponse]:
    """Decode request buffers, run the batched predictor once, and pair
    each prediction with its request.

    The one inference path of every transport — the ``sync`` transport,
    inline recovery (:func:`repro.serve.server.predict_batch_buffers`) and
    the shm worker (:func:`serve_batch_in_place`) — so their response bytes
    agree by construction: same decode, same batched call, same per-event
    seeded RNG.
    """
    requests = [ServeRequest.from_buffer(b) for b in buffers]
    predicted = surrogate.predict_batch(
        [r.region for r in requests],
        [r.center for r in requests],
        [r.rng() for r in requests],
    )
    return [
        ServeResponse(event_id=r.event_id, return_step=r.return_step, particles=p)
        for r, p in zip(requests, predicted, strict=True)
    ]


def serve_batch_in_place(
    surrogate: SNSurrogate, block: SharedMemoryRing, sizes: list[int]
) -> list[int]:
    """Worker inner loop: decode the requests in ``block``'s slots (``sizes``
    floats each), predict, and overwrite each slot with its response.

    Returns the response lengths.  The requests are copied out of the block
    before decoding, so no view of it outlives this call — not even in an
    exception's traceback — and the caller can unmap it.
    """
    requests = [np.array(block.slot(i, n)) for i, n in enumerate(sizes)]
    return [
        response.encode_into(block.slot(i))
        for i, response in enumerate(predict_responses(surrogate, requests))
    ]


def _shm_worker_main(
    worker_id: int,
    recipe: Any,
    req_q: Any,
    res_q: Any,
    fault_plan: FaultPlan | None = None,
) -> None:
    """Pool-node worker: build the surrogate, then serve batch blocks.

    ``recipe`` is an :class:`SNSurrogate` (used as is) or anything with a
    ``build()`` returning one — a :class:`~repro.serve.server.SurrogateSpec`.
    ``fault_plan`` scripts deliberate failures (chaos tests), counted from
    this worker's first claim.  ``corrupt`` tears the wire magic of the
    first response in its slot.
    """
    injector = FaultInjector(fault_plan or FaultPlan(), worker_id)
    surrogate = recipe if isinstance(recipe, SNSurrogate) else recipe.build()
    while True:
        item = req_q.get()
        if item is None:
            break
        batch_id, name, sizes = item
        try:
            block = SharedMemoryRing(len(sizes), max(sizes), name=name)
        except FileNotFoundError:
            continue        # expired while queued: the server recovered it
        try:
            res_q.put(("claim", worker_id, batch_id))
            injector.on_claim()
            t0 = time.perf_counter()
            try:
                injector.on_predict()
                responses = serve_batch_in_place(surrogate, block, sizes)
            except Exception as exc:  # ship the failure instead of dying silently
                res_q.put(("done", worker_id, batch_id, exc, 0.0))
                continue
            if injector.corrupts_response():
                block.slot(0)[0] = -1.0       # tear the wire magic
            if not injector.drops_response():
                res_q.put(
                    ("done", worker_id, batch_id, responses, time.perf_counter() - t0)
                )
        finally:
            block.close()


class _ShmTransport:
    """N pool workers serving per-batch shared blocks; queues carry names.

    Owns the queue pair, the live worker processes, the blocks of the
    batches in flight, and the tagged-row pump that turns worker rows into
    :data:`Reply` items — including the synthetic :class:`WorkerLost`
    replies for batches whose claiming worker died.  See the module
    docstring on when a block is unlinked.
    """

    def __init__(
        self,
        recipe: Any,
        n_workers: int,
        metrics: ServiceMetrics | None = None,
        fault_plan: FaultPlan | None = None,
        tracer: Any = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("shm transport needs at least one worker")
        ctx = process_context()
        self.n_workers = n_workers
        self._metrics = metrics if metrics is not None else ServiceMetrics()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._req_q = ctx.Queue()
        self._res_q = ctx.Queue()
        #: batch_id -> worker_id that posted the claim row (in-flight only).
        self._claims: dict[int, int] = {}
        #: batch_id -> the batch's block, until it is unlinked.
        self._blocks: dict[int, SharedMemoryRing] = {}
        #: worker_id -> process, for the workers not yet found dead.
        self._procs: dict[int, mp.process.BaseProcess] = {}
        for worker_id in range(n_workers):
            proc = ctx.Process(
                target=_shm_worker_main,
                args=(worker_id, recipe, self._req_q, self._res_q, fault_plan),
                daemon=True,
                name=f"repro-serve-shm-worker-{worker_id}",
            )
            proc.start()
            self._procs[worker_id] = proc

    @property
    def degraded(self) -> bool:
        """True once every worker is lost."""
        return not self._procs

    # ------------------------------------------------------------ dispatch
    def dispatch(self, batch_id: int, buffers: list[np.ndarray]) -> None:
        tt0 = self._tracer.now()
        block = SharedMemoryRing(len(buffers), max(buf.size for buf in buffers))
        self._blocks[batch_id] = block
        for index, buf in enumerate(buffers):
            block.write(index, buf)
        self._metrics.n_shm_slot += len(buffers)
        if self._tracer.enabled:
            self._tracer.span_at(
                "serve.shm.encode", tt0, self._tracer.now() - tt0, cat="serve",
                batch=batch_id, slots=len(buffers),
            )
        self._req_q.put((batch_id, block.name, [buf.size for buf in buffers]))

    def expire_batch(self, batch_id: int) -> None:
        """The server timed this batch out: unlink its block.

        The holder may be a hung worker that will still write its response;
        it writes into its own mapping, which nothing reads any more.  The
        claim is kept, so a later death of that worker is still attributed.
        """
        self._unlink(batch_id)

    def _unlink(self, batch_id: int, sizes: Sequence[int] = ()) -> list[np.ndarray]:
        """Unlink the batch's block, first copying out slot ``i`` trimmed to
        ``sizes[i]`` for each given size; [] when it is already gone."""
        block = self._blocks.pop(batch_id, None)
        if block is None:
            return []
        try:
            return [np.array(block.slot(i, n)) for i, n in enumerate(sizes)]
        finally:
            block.close()

    def _unlink_all(self) -> None:
        for batch_id in list(self._blocks):
            self._unlink(batch_id)

    # ------------------------------------------------------------- replies
    def _handle_row(self, row: tuple[Any, ...]) -> Reply | None:
        tag, worker_id = row[0], row[1]
        if tag == "claim":
            batch_id = row[2]
            self._claims[batch_id] = worker_id
            self._tracer.instant(
                "serve.claim", cat="serve", tid=f"worker-{worker_id}",
                batch=batch_id, worker=worker_id,
            )
            return None
        _tag, worker_id, batch_id, payload, busy_s = row
        self._claims.pop(batch_id, None)
        if isinstance(payload, Exception):
            self._unlink(batch_id)
            return (batch_id, worker_id, payload, busy_s)
        if batch_id not in self._blocks:
            return None     # late reply to a batch already recovered
        return (batch_id, worker_id, self._unlink(batch_id, payload), busy_s)

    def _drain(self) -> list[Reply]:
        out: list[Reply] = []
        while True:
            try:
                row = self._res_q.get_nowait()
            except queue_mod.Empty:
                return out
            reply = self._handle_row(row)
            if reply is not None:
                out.append(reply)

    def _reap(self) -> list[Reply]:
        """Find dead workers and lose them for good: each batch one claimed
        becomes a :class:`WorkerLost` reply, its block unlinked."""
        lost: list[Reply] = []
        for worker_id, proc in list(self._procs.items()):
            if proc.is_alive():
                continue
            proc.join(timeout=0)        # reap the zombie process
            del self._procs[worker_id]
            batches = sorted(b for b, w in self._claims.items() if w == worker_id)
            self._metrics.n_workers_lost += 1
            self._tracer.instant(
                "serve.worker_lost", cat="serve", tid=f"worker-{worker_id}",
                worker=worker_id, batches=batches,
            )
            for batch_id in batches:
                del self._claims[batch_id]
                self._unlink(batch_id)
                lost.append((
                    batch_id, worker_id,
                    WorkerLost(f"serve worker {worker_id} died holding batch {batch_id}"),
                    0.0,
                ))
            if not self._procs:
                # No worker will ever run again: no queued batch will be served.
                self._metrics.degraded = True
                self._unlink_all()
        return lost

    def poll(self) -> list[Reply]:
        return self._drain() + self._reap()

    def wait(self, timeout: float) -> list[Reply]:
        """Block up to ``timeout`` for replies; [] on timeout or degraded.

        This never raises on worker death — deaths come back as
        :class:`WorkerLost` replies, which the *server* resolves inline on
        the main rank.
        """
        deadline = time.monotonic() + timeout
        while True:
            replies = self.poll()
            if replies:
                return replies
            if self.degraded:
                return []
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return []
            try:
                row = self._res_q.get(timeout=min(_WAIT_SLICE_S, remaining))
            except queue_mod.Empty:
                continue
            reply = self._handle_row(row)
            if reply is not None:
                return [reply]

    def close(self) -> None:
        """Stop every worker after a grace period to finish and exit — a
        short one for a worker still holding an expired batch once the rows
        it posted are read: it is hung, and waiting longer would only wait
        out its hang."""
        for _ in self._procs:
            self._req_q.put(None)
        self._drain()
        hung = {w for b, w in self._claims.items() if b not in self._blocks}
        procs, self._procs = self._procs, {}
        for worker_id, proc in procs.items():
            stop_process(proc, _HUNG_GRACE_S if worker_id in hung else _CLOSE_GRACE_S)
        # All workers are gone.  An empty request pipe is what lets
        # join_thread() below terminate even when undelivered batches were
        # buffered for dead workers.
        while True:
            try:
                self._req_q.get_nowait()
            except queue_mod.Empty:
                break
        self._unlink_all()
        for q in (self._req_q, self._res_q):
            q.close()
            q.join_thread()


__all__ = [
    "Reply",
    "WorkerLost",
    "predict_responses",
    "serve_batch_in_place",
]
