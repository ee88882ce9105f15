"""The worker transport: supervised pool processes over per-batch shared blocks.

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

This module owns the whole worker side: the worker main, the
:class:`_WorkerSupervisor` that restarts dead workers, and the tagged-row
pump of :class:`_ShmTransport`.  Workers post three kinds of row on the
result queue:

* ``("hb", worker_id)`` — idle heartbeat, every :data:`HEARTBEAT_S`.
* ``("claim", worker_id, batch_id)`` — posted *before* serving, so a death
  mid-batch is attributable to exactly this batch.
* ``("done", worker_id, batch_id, payload, busy_s)`` — the response
  lengths, or the worker-side exception.

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
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.obs.trace import NULL_TRACER
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.metrics import ServiceMetrics
from repro.serve.wire import ServeRequest, ServeResponse
from repro.surrogate.model import SNSurrogate
from repro.util.shm import SharedMemoryRing, process_context, stop_process

#: Seconds an idle worker waits for a request before posting a heartbeat
#: row — the supervisor's liveness signal between batches.
HEARTBEAT_S = 5.0

#: Longest single blocking read on the result queue; bounds how stale the
#: supervisor's death/timeout checks can get while the main rank waits.
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


@dataclass(frozen=True)
class SupervisionConfig:
    """Tunables for worker supervision and in-flight recovery."""

    #: Worker deaths without an intervening served batch before the
    #: supervisor stops restarting that worker slot.
    max_consecutive_failures: int = 3
    #: Restart backoff: ``base * 2**(failures-1)`` seconds, capped.
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: Seconds a dispatched batch may go unanswered before it is declared
    #: lost (hung worker / dropped reply) and recovered.
    batch_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_consecutive_failures < 1:
            raise ValueError("max_consecutive_failures must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("need 0 <= backoff_base_s <= backoff_cap_s")
        if self.batch_timeout_s <= 0:
            raise ValueError("batch_timeout_s must be positive")


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
    ``fault_plan`` scripts deliberate failures (chaos tests); the injector
    is rebuilt per worker lifetime, so a restarted worker re-runs its
    script from claim #1.  ``corrupt`` tears the wire magic of the first
    response in its slot.
    """
    injector = FaultInjector(fault_plan or FaultPlan(), worker_id)
    surrogate = recipe if isinstance(recipe, SNSurrogate) else recipe.build()
    while True:
        try:
            item = req_q.get(timeout=HEARTBEAT_S)
        except queue_mod.Empty:
            res_q.put(("hb", worker_id))
            continue
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


@dataclass
class _WorkerSlot:
    """Supervision state for one worker position in the pool."""

    worker_id: int
    proc: mp.process.BaseProcess | None = None
    #: Deaths since the last successfully served batch.
    failures: int = 0
    #: Monotonic time the pending restart fires (None: no restart pending).
    restart_at: float | None = None
    died_at: float | None = None
    last_seen: float = 0.0
    #: True once the supervisor stopped restarting this slot.
    gave_up: bool = False


class _WorkerSupervisor:
    """Detects dead workers, restarts them with backoff, tracks give-up.

    Owns the worker processes; the transport supplies the spawn callable.
    Liveness combines ``is_alive`` with the tagged rows workers post on the
    result queue (heartbeats while idle, claims while busy) — ``note_seen``
    timestamps both, and ``reap`` turns ``is_alive`` edges into restart
    schedules.  A slot that dies ``max_consecutive_failures`` times without
    serving a batch in between is abandoned; when every slot is abandoned
    the supervisor reports ``degraded`` and the server finishes the run
    inline.
    """

    def __init__(self, spawn: Callable[[int], mp.process.BaseProcess],
                 n_workers: int, config: SupervisionConfig,
                 metrics: ServiceMetrics, tracer: Any = None) -> None:
        self._spawn = spawn
        self._config = config
        self._metrics = metrics
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._slots = [_WorkerSlot(worker_id=i) for i in range(n_workers)]

    def start(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            slot.proc = self._spawn(slot.worker_id)
            slot.last_seen = now

    @property
    def n_workers(self) -> int:
        return len(self._slots)

    @property
    def degraded(self) -> bool:
        return all(s.gave_up for s in self._slots)

    def alive_worker_ids(self) -> list[int]:
        return [
            s.worker_id for s in self._slots
            if s.proc is not None and s.proc.is_alive()
        ]

    def note_seen(self, worker_id: int) -> None:
        self._slots[worker_id].last_seen = time.monotonic()

    def note_success(self, worker_id: int) -> None:
        """A served batch resets the slot's consecutive-failure count."""
        self._slots[worker_id].failures = 0

    def reap(self) -> list[int]:
        """One supervision pass; returns worker ids found dead *this* pass.

        Newly dead workers get a restart scheduled ``backoff_base_s *
        2**(failures-1)`` (capped) in the future, executed by a later pass;
        each restart is counted and its detection-to-respawn latency
        sampled into ``metrics.recovery_s``.
        """
        now = time.monotonic()
        cfg = self._config
        dead: list[int] = []
        for slot in self._slots:
            if slot.gave_up:
                continue
            if slot.proc is not None and not slot.proc.is_alive():
                slot.proc.join(timeout=0)       # reap the zombie process
                slot.proc = None
                slot.failures += 1
                slot.died_at = now
                dead.append(slot.worker_id)
                if slot.failures > cfg.max_consecutive_failures:
                    slot.gave_up = True
                    slot.restart_at = None
                else:
                    backoff = min(
                        cfg.backoff_cap_s,
                        cfg.backoff_base_s * 2.0 ** (slot.failures - 1),
                    )
                    slot.restart_at = now + backoff
            elif (slot.proc is None and slot.restart_at is not None
                  and now >= slot.restart_at):
                slot.proc = self._spawn(slot.worker_id)
                slot.restart_at = None
                slot.last_seen = now
                self._metrics.n_worker_restarts += 1
                self._tracer.instant(
                    "serve.worker_restart", cat="serve",
                    tid=f"worker-{slot.worker_id}", worker=slot.worker_id,
                    failures=slot.failures,
                )
                if slot.died_at is not None:
                    self._metrics.recovery_s.append(now - slot.died_at)
        if dead and self.degraded:
            self._metrics.degraded = True
        return dead

    def close(self, hung: frozenset[int]) -> None:
        """Stop every worker after a grace period to finish and exit — a
        short one for the ``hung`` ones (holding a batch past its deadline):
        waiting longer for them would only wait out their hang."""
        for slot in self._slots:
            proc, slot.proc = slot.proc, None
            slot.gave_up = True
            if proc is not None:
                grace = _HUNG_GRACE_S if slot.worker_id in hung else _CLOSE_GRACE_S
                stop_process(proc, grace_s=grace)


class _ShmTransport:
    """N supervised workers serving per-batch shared blocks; queues carry names.

    Owns the queue pair, the :class:`_WorkerSupervisor`, the blocks of the
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
        supervision: SupervisionConfig | None = None,
        tracer: Any = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("shm transport needs at least one worker")
        self._ctx = process_context()
        self._recipe = recipe
        self._fault_plan = fault_plan
        self._metrics = metrics if metrics is not None else ServiceMetrics()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._req_q = self._ctx.Queue()
        self._res_q = self._ctx.Queue()
        #: batch_id -> worker_id that posted the claim row (in-flight only).
        self._claims: dict[int, int] = {}
        #: batch_id -> the batch's block, until it is unlinked.
        self._blocks: dict[int, SharedMemoryRing] = {}
        self._supervisor = _WorkerSupervisor(
            self._spawn, n_workers, supervision or SupervisionConfig(),
            self._metrics, tracer=self._tracer,
        )
        self._supervisor.start()

    def _spawn(self, worker_id: int) -> mp.process.BaseProcess:
        proc = self._ctx.Process(
            target=_shm_worker_main,
            args=(worker_id, self._recipe, self._req_q, self._res_q, self._fault_plan),
            daemon=True,
            name=f"repro-serve-shm-worker-{worker_id}",
        )
        proc.start()
        return proc

    @property
    def n_workers(self) -> int:
        return self._supervisor.n_workers

    @property
    def degraded(self) -> bool:
        return self._supervisor.degraded

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
        self._supervisor.note_seen(worker_id)
        if tag == "hb":
            return None
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
        self._supervisor.note_success(worker_id)
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
        """Supervision pass: convert worker deaths into WorkerLost replies,
        unlinking the blocks of the batches the dead workers claimed."""
        dead = self._supervisor.reap()
        lost: list[Reply] = []
        for worker_id in dead:
            for batch_id in [b for b, w in self._claims.items() if w == worker_id]:
                del self._claims[batch_id]
                self._unlink(batch_id)
                lost.append((
                    batch_id, worker_id,
                    WorkerLost(f"serve worker {worker_id} died holding batch {batch_id}"),
                    0.0,
                ))
        if dead and self._supervisor.degraded:
            # No worker will ever run again: no queued batch will be served.
            self._unlink_all()
        return lost

    def poll(self) -> list[Reply]:
        return self._drain() + self._reap()

    def wait(self, timeout: float) -> list[Reply]:
        """Block up to ``timeout`` for replies; [] on timeout or degraded.

        This never raises on worker death — deaths come back as
        :class:`WorkerLost` replies, which the *server* recovers
        (re-dispatch, or inline on the main rank).
        """
        deadline = time.monotonic() + timeout
        while True:
            replies = self.poll()
            if replies:
                return replies
            if self._supervisor.degraded:
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
        for _ in self._supervisor.alive_worker_ids():
            self._req_q.put(None)
        # A worker that still holds an expired batch after the rows it
        # posted are read is hung on it.
        self._drain()
        self._supervisor.close(frozenset(
            w for b, w in self._claims.items() if b not in self._blocks
        ))
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
    "SupervisionConfig",
    "WorkerLost",
    "predict_responses",
    "serve_batch_in_place",
]
