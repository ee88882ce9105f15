"""The worker transport: pool processes over per-batch shared blocks.

``shm`` is the one transport of :mod:`repro.serve` that runs inference off
the main rank: ``n_workers`` OS processes, each of which serves the batches
main sends it with the server's own
:class:`~repro.surrogate.model.SNSurrogate`.  Pickling every float64
payload through a pipe would copy it twice; at the paper's production grid
the per-event payload is hundreds of kilobytes and, as the precursor works
found, that data movement (not the forward pass) is what dominates
pool-node cost.  This module keeps the payloads off the pipe:

* Every dispatched batch gets its own block, a
  :class:`~repro.util.shm.SharedMemoryRing` with one float64 slot per
  request, sized to the batch's largest request.
* Requests are encoded straight into their slots (one memmove of the
  already-wire-framed buffer).  The worker attaches the block by name,
  runs the batched predictor, and overwrites each slot with the encoded
  prediction — a response never outgrows the request that carried the
  same particles (smaller header, identical payload shape), so every
  request fits.
* Only tiny control tuples cross the pipes: ``(batch_id, block_name,
  [nfloats, ...])`` out, ``(batch_id, [nfloats, ...] or the exception,
  busy_s)`` back.  Pipe traffic is O(events), not O(bytes).

The slots reuse the exact :mod:`repro.serve.wire` framing, so the byte
figures charged to the :class:`~repro.fdps.comm.SimComm` ``pool_p2p``
ledger — always the wire buffer's ``nbytes`` — are identical across the
``sync`` and ``shm`` transports.

Workers
-------

Each worker is a :class:`~repro.util.shm.Child` (the gravity helper is the
other) whose handler is :func:`_worker`.  A worker inherits the surrogate
object the server holds (it is a ``Child`` argument: forked with the
process, or pickled where only ``spawn`` exists); it builds none, so it
predicts exactly what an inline prediction on main does.  One pipe per
worker, so main sends each batch to the next live worker, round robin,
and knows which worker holds it from the moment it is sent.
:meth:`_ShmTransport.wait` blocks on every live worker's pipe and process
sentinel at once.

One loss rule, the helper's: a worker that dies, closes its pipe, misses
the per-batch deadline (the server calls :meth:`_ShmTransport.expire_batch`),
sends no reply, sends a corrupt one or raises in predict is killed and lost
for good.  Every batch it held comes back as a :class:`WorkerLost` reply
(the server resolves those inline on the main rank), and the survivors
carry on.  Nothing restarts.  With no worker left the transport is
``degraded``.

Block lifetime
--------------

A block is unlinked once, by the first of: the batch's reply (after its
responses are copied out), the loss of the worker holding it, or transport
close.  It has one owner: the in-flight map ``_blocks`` from dispatch on,
and :meth:`_ShmTransport._unlink`, the one place a block leaves that map,
which closes it by leaving a ``with`` on it, a copy-out that raises
included.  A worker's attachment is a ``with`` too.  A worker is killed
before the blocks it holds are unlinked, so no block is gone while a live
worker may still attach it.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.obs.trace import Tracer
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.metrics import ServiceMetrics
from repro.serve.wire import ServeRequest, ServeResponse
from repro.surrogate.model import SNSurrogate
from repro.util.shm import Child, ChildLost, SharedMemoryRing, ready

#: A transport reply: ``(batch_id, worker_id, payload, busy_seconds)``
#: where the payload is the decoded responses or a :class:`WorkerLost`
#: marker for a batch whose worker was lost.
Reply = tuple[int, int, "list[ServeResponse] | WorkerLost", float]


class WorkerLost(RuntimeError):
    """Marker payload: the worker holding this batch was lost before it
    delivered.

    Travels *in band* as a reply payload so the server's absorb loop sees
    every fault in one place; it is never raised by the transports.
    """


def predict_responses(
    surrogate: SNSurrogate, buffers: list[np.ndarray]
) -> list[ServeResponse]:
    """Decode request buffers, run the batched predictor once, and pair
    each prediction with its request.

    The one inference path of every prediction — the server's inline one
    (every ``sync`` batch and every recovery) and the shm worker's
    (:func:`serve_batch_in_place`) — so their response bytes agree by
    construction: same surrogate, same decode, same batched call, same
    per-event seeded RNG.
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


def _worker(
    worker_id: int, surrogate: SNSurrogate, fault_plan: FaultPlan | None,
) -> Callable[[tuple[int, str, list[int]]], tuple[Any, ...] | None]:
    """Pool-node worker: the handler that serves one batch block per
    message with ``surrogate``.

    ``fault_plan`` scripts deliberate failures (chaos tests), counted from
    this worker's first batch.  ``corrupt`` tears the wire magic of the
    first response in its slot; ``drop`` returns no reply.
    """
    injector = FaultInjector(fault_plan or FaultPlan(), worker_id)

    def serve(msg: tuple[int, str, list[int]]) -> tuple[Any, ...] | None:
        batch_id, name, sizes = msg
        injector.on_batch()
        t0 = time.perf_counter()
        with SharedMemoryRing(len(sizes), max(sizes), name=name) as block:
            try:
                injector.on_predict()
                responses = serve_batch_in_place(surrogate, block, sizes)
                if injector.corrupts_response():
                    block.slot(0)[0] = -1.0       # tear the wire magic
            except Exception as exc:  # ship the failure instead of dying silently
                return (batch_id, exc, 0.0)
        if injector.drops_response():
            return None
        return (batch_id, responses, time.perf_counter() - t0)

    return serve


class _ShmTransport:
    """N pool workers serving per-batch shared blocks; pipes carry names.

    Owns the live workers, the blocks of the batches in flight and which
    worker holds each, and turns worker replies into :data:`Reply` items —
    including the :class:`WorkerLost` replies of every batch a lost worker
    held.  See the module docstring on when a block is unlinked.
    """

    def __init__(
        self,
        surrogate: SNSurrogate,
        n_workers: int,
        metrics: ServiceMetrics | None = None,
        fault_plan: FaultPlan | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("shm transport needs at least one worker")
        self.n_workers = n_workers
        self._metrics = metrics if metrics is not None else ServiceMetrics()
        self._tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: batch_id -> the batch's block, until it is unlinked.
        self._blocks: dict[int, SharedMemoryRing] = {}
        #: batch_id -> the worker it was sent to (in flight only).
        self._holder: dict[int, int] = {}
        #: Replies found but not yet handed to the server.
        self._replies: list[Reply] = []
        self._sent = 0
        #: worker_id -> the worker, for the workers not yet lost.
        self._workers = {
            worker_id: Child(
                _worker, worker_id, surrogate, fault_plan,
                name=f"repro-serve-shm-worker-{worker_id}",
            )
            for worker_id in range(n_workers)
        }

    @property
    def degraded(self) -> bool:
        """True once every worker is lost."""
        return not self._workers

    # ------------------------------------------------------------ dispatch
    def dispatch(self, batch_id: int, buffers: list[np.ndarray]) -> int:
        """Send the batch to the next live worker, round robin; returns its id."""
        tt0 = self._tracer.now()
        block = SharedMemoryRing(len(buffers), max(buf.size for buf in buffers))
        self._blocks[batch_id] = block
        for index, buf in enumerate(buffers):
            block.write(index, buf)
        self._metrics.n_shm_slot += len(buffers)
        self._tracer.span_at(
            "serve.shm.encode", tt0, self._tracer.now() - tt0, cat="serve",
            batch=batch_id, slots=len(buffers),
        )
        live = sorted(self._workers)
        worker_id = live[self._sent % len(live)]
        self._sent += 1
        self._holder[batch_id] = worker_id
        msg = (batch_id, block.name, [buf.size for buf in buffers])
        try:
            self._workers[worker_id].send(msg)
        except ChildLost as lost:
            self._lose(worker_id, str(lost))
        return worker_id

    def expire_batch(self, batch_id: int) -> None:
        """The server timed this batch out: lose the worker holding it."""
        worker_id = self._holder.get(batch_id)
        if worker_id is not None:
            self._lose(worker_id, f"batch {batch_id} missed its deadline")

    def _unlink(self, batch_id: int, sizes: Sequence[int] = ()) -> list[np.ndarray]:
        """Unlink the batch's block, first copying out slot ``i`` trimmed to
        ``sizes[i]`` for each given size; [] when it is already gone."""
        block = self._blocks.pop(batch_id, None)
        if block is None:
            return []
        with block:
            return [np.array(block.slot(i, n)) for i, n in enumerate(sizes)]

    # ------------------------------------------------------------- replies
    def _lose(self, worker_id: int, cause: str) -> None:
        """Kill the worker for good: each batch it held becomes a
        :class:`WorkerLost` reply, its block unlinked."""
        child = self._workers.pop(worker_id)
        child.kill()
        child.close()
        batches = sorted(b for b, w in self._holder.items() if w == worker_id)
        self._metrics.n_workers_lost += 1
        self._tracer.instant(
            "serve.worker_lost", cat="serve", tid=f"worker-{worker_id}",
            worker=worker_id, batches=batches, cause=cause,
        )
        for batch_id in batches:
            del self._holder[batch_id]
            self._unlink(batch_id)
            self._replies.append((
                batch_id, worker_id,
                WorkerLost(f"serve worker {worker_id} lost holding batch {batch_id}: {cause}"),
                0.0,
            ))
        if not self._workers:
            self._metrics.degraded = True

    def _read(self, worker_id: int) -> None:
        """Take one reply of the worker, or lose it."""
        try:
            batch_id, result, busy_s = self._workers[worker_id].recv(0.0)
        except ChildLost as lost:
            self._lose(worker_id, str(lost))
            return
        if isinstance(result, Exception):
            self._metrics.n_worker_errors += 1
            self._lose(worker_id, f"predict raised {result!r}")
            return
        n_slots = self._blocks[batch_id].n_slots
        if len(result) != n_slots:         # an unlisted event would never resolve
            self._lose(worker_id, f"corrupt response ({len(result)} lengths for {n_slots} slots)")
            return
        try:
            responses = [ServeResponse.from_buffer(b) for b in self._unlink(batch_id, result)]
        except ValueError as exc:          # a WireFormatError, or a bad slot length
            self._lose(worker_id, f"corrupt response ({exc})")
            return
        del self._holder[batch_id]
        self._replies.append((batch_id, worker_id, responses, busy_s))

    def poll(self) -> list[Reply]:
        return self.wait(0.0)

    def wait(self, timeout: float) -> list[Reply]:
        """Replies, blocking up to ``timeout`` on every live worker's pipe
        and sentinel for the first; [] on timeout or degraded.

        This never raises on a worker fault — a lost worker's batches come
        back as :class:`WorkerLost` replies, which the *server* resolves
        inline on the main rank.
        """
        if self._workers and not self._replies:
            for worker_id in ready(self._workers, timeout):
                self._read(worker_id)
        out, self._replies = self._replies, []
        return out

    def close(self) -> None:
        """Stop and reap every worker, then unlink every block left."""
        workers, self._workers = self._workers, {}
        for child in workers.values():
            child.close()
        for batch_id in list(self._blocks):
            self._unlink(batch_id)


__all__ = [
    "Reply",
    "WorkerLost",
    "predict_responses",
    "serve_batch_in_place",
]
