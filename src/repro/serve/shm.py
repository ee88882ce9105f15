"""The worker transport: supervised pool processes over a shared-memory ring.

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

* :class:`SharedMemoryRing` — one ``multiprocessing.shared_memory`` block
  cut into fixed-size float64 slots, mapped as an ``(n_slots, slot_floats)``
  array in the main process and in every worker.
* Requests are encoded straight into a free slot (one memmove of the
  already-wire-framed buffer); workers decode them *from the slot*, run the
  batched predictor, and overwrite the slot with the encoded prediction in
  place — a response never outgrows the request that carried the same
  particles (smaller header, identical payload shape).
* Only tiny control tuples ``(batch_id, [(slot, nfloats), ...])`` cross the
  queues, so pipe traffic is O(events), not O(bytes).

The slots reuse the exact :mod:`repro.serve.wire` framing, so the byte
figures charged to the :class:`~repro.fdps.comm.SimComm` ``pool_p2p``
ledger — always the wire buffer's ``nbytes`` — are identical across the
``sync`` and ``shm`` transports.

Backpressure: a request that does not fit a slot (or arrives while every
slot is in flight) rides the request queue pickled, for that one event,
counted in :attr:`~repro.serve.metrics.ServiceMetrics.n_shm_fallback` —
correctness never depends on the ring being big enough.

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
  entries, or the worker-side exception.

Lease safety under faults
-------------------------

A slot leased to an in-flight batch has three ways home, and every one of
them must be crash-safe (the ``lease-pairing`` lint rule checks the
acquire/release pairing statically):

* **done row** — the normal path: :meth:`_ShmTransport._handle_row` frees
  the batch's leases on success *and* failure edges (``finally``).
* **dead worker** — the supervisor attributes claimed batches to the dead
  process; its leases are reclaimed immediately (a dead worker cannot
  touch the ring again), counted in ``metrics.n_slots_reclaimed``.
* **expired batch** — a *timed-out* batch's worker may be hung, not dead,
  and may still read/write the slots.  The leases are parked in a zombie
  registry instead of freed (freeing would race the hung worker's
  in-place response write into a re-leased slot); they return to the free
  stack only on proof the holder is done with them — its late done row,
  a *newer* claim row from the same (strictly serial) worker, its death,
  or transport close after every worker has exited.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from collections.abc import Callable
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Union

import numpy as np

from repro.obs.trace import NULL_TRACER
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.metrics import ServiceMetrics
from repro.serve.wire import ServeRequest, ServeResponse, WireFormatError
from repro.surrogate.model import SNSurrogate

#: Seconds an idle worker waits for a request before posting a heartbeat
#: row — the supervisor's liveness signal between batches.
HEARTBEAT_S = 5.0

#: Longest single blocking read on the result queue; bounds how stale the
#: supervisor's death/timeout checks can get while the main rank waits.
_WAIT_SLICE_S = 0.25

#: A transport reply: ``(batch_id, worker_id, payload, busy_seconds)``
#: where the payload is the response buffers, a worker-side exception, or
#: a :class:`WorkerLost` marker for a batch lost to a dead worker.
Reply = tuple[int, int, "list[np.ndarray] | Exception", float]

#: A control entry: ``(SLOT, index, nfloats)`` for ring-resident payloads,
#: ``(INLINE, buffer)`` for queue-pickled fallbacks.
Entry = Union[tuple[int, int, int], tuple[int, np.ndarray]]

#: Control-entry tags: payload lives in a ring slot / rides the queue.
SLOT = 0
INLINE = 1


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


def process_context() -> mp.context.BaseContext:
    """The start method of every process this repo starts: ``fork`` where
    the platform has it (a child starts in milliseconds, with the parent's
    imports), else ``spawn``.  A child must therefore take everything it
    uses as arguments and own nothing it inherits (see
    :class:`SharedMemoryRing` on why a ring has no finalizer)."""
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without taking tracker ownership.

    Python 3.13+ has ``track=False`` for exactly this.  Before 3.13 an
    attach re-registers the name with the resource tracker; within one
    multiprocessing process tree the tracker is shared (its fd rides fork
    and the spawn preparation data) and its cache is a set, so the extra
    registration is an idempotent no-op that the owner's ``unlink``
    clears — explicitly unregistering here would instead make that
    ``unlink`` double-remove and spam KeyError from the tracker.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: shared tracker, registration harmless
        return shared_memory.SharedMemory(name=name)


class SharedMemoryRing:
    """A shared block of ``n_slots`` fixed-size float64 slots.

    The creating (main) process owns the segment and unlinks it on
    :meth:`close`; workers attach by ``name`` and only unmap.  Slot
    allocation policy lives with the caller — the ring itself is just the
    mapped memory.
    """

    def __init__(self, n_slots: int, slot_floats: int, name: str | None = None) -> None:
        if n_slots < 1 or slot_floats < 1:
            raise ValueError("ring needs at least one slot of at least one float")
        self.n_slots = int(n_slots)
        self.slot_floats = int(slot_floats)
        if name is None:
            self._seg = shared_memory.SharedMemory(
                create=True, size=self.n_slots * self.slot_floats * 8
            )
            self._owner = True
        else:
            self._seg = _attach(name)
            self._owner = False
        self.name = self._seg.name
        self._arr: np.ndarray | None = np.ndarray(
            (self.n_slots, self.slot_floats), dtype=np.float64, buffer=self._seg.buf
        )

    @property
    def nbytes(self) -> int:
        return self.n_slots * self.slot_floats * 8

    def slot(self, index: int, nfloats: int | None = None) -> np.ndarray:
        """A live view of slot ``index`` (optionally length-trimmed).

        Control tuples cross process boundaries, so both coordinates are
        validated before any memory is touched: an out-of-range index or a
        length exceeding the slot capacity raises
        :class:`~repro.serve.wire.WireFormatError` — a corrupt control
        entry is a recoverable transport fault, not an IndexError deep in
        numpy.
        """
        if self._arr is None:
            raise ValueError("ring is closed")
        if not 0 <= int(index) < self.n_slots:
            raise WireFormatError(
                f"shm slot index {index} outside ring of {self.n_slots} slots"
            )
        row = self._arr[int(index)]
        if nfloats is None:
            return row
        if not 0 < int(nfloats) <= self.slot_floats:
            raise WireFormatError(
                f"shm slot payload length {nfloats} not in (0, {self.slot_floats}]"
            )
        return row[: int(nfloats)]

    def write(self, index: int, buf: np.ndarray) -> int:
        """Memmove an encoded wire buffer into a slot; returns floats used."""
        if self._arr is None:
            raise ValueError("ring is closed")
        n = buf.size
        self._arr[index, :n] = buf
        return n

    def close(self) -> None:
        if self._arr is None:
            return
        self._arr = None
        self._seg.close()
        if self._owner:
            try:
                self._seg.unlink()
            except FileNotFoundError:
                pass
    # No __del__: a fork-started worker inherits the owner's ring object,
    # and a finalizer there would unlink the segment under the main process
    # when the worker exits.  Lifetime is explicit — the transport (owner)
    # and the worker main (attachments) both close() in their shutdown
    # paths, and the resource tracker covers hard crashes of the creator.


def serve_batch_in_place(
    surrogate: SNSurrogate,
    ring: SharedMemoryRing,
    entries: list[Entry],
    pad_to: int | None = None,
) -> list[Entry]:
    """Worker inner loop: decode from slots, predict, overwrite in place.

    ``entries`` come from :meth:`_ShmTransport.dispatch`: ``(SLOT, index,
    nfloats)`` for ring-resident requests, ``(INLINE, buffer)`` for
    fallback requests that rode the queue.  Returns response entries of the
    same two shapes.  The prediction path is byte-identical to
    :func:`repro.serve.server.predict_batch_buffers` — same decode, same
    batched predictor call, same per-event seeded RNG — so both transports
    stay bit-identical.
    """
    requests: list[ServeRequest] = []
    out_slots: list[int | None] = []
    for entry in entries:
        if entry[0] == SLOT:
            _, index, nfloats = entry
            requests.append(ServeRequest.from_buffer(ring.slot(index, nfloats)))
            out_slots.append(index)
        else:
            requests.append(ServeRequest.from_buffer(entry[1]))
            out_slots.append(None)
    predicted = surrogate.predict_batch(
        [r.region for r in requests],
        [r.center for r in requests],
        [r.rng() for r in requests],
        pad_to=pad_to,
    )
    out = []
    for request, index, particles in zip(requests, out_slots, predicted, strict=True):
        response = ServeResponse(
            event_id=request.event_id,
            return_step=request.return_step,
            particles=particles,
        )
        if index is None:
            out.append((INLINE, response.to_buffer()))
        else:
            used = response.encode_into(ring.slot(index))
            out.append((SLOT, index, used))
    return out


def _shm_worker_main(
    worker_id: int,
    recipe: Any,
    ring_name: str,
    n_slots: int,
    slot_floats: int,
    req_q: Any,
    res_q: Any,
    pad_to: int | None,
    fault_plan: FaultPlan | None = None,
) -> None:
    """Pool-node worker: attach the ring, build the surrogate, serve.

    ``recipe`` is an :class:`SNSurrogate` (used as is) or anything with a
    ``build()`` returning one — a :class:`~repro.serve.server.SurrogateSpec`.
    ``fault_plan`` scripts deliberate failures (chaos tests); the injector
    is rebuilt per worker lifetime, so a restarted worker re-runs its
    script from claim #1.  ``corrupt`` tears the wire magic of the first
    response *in its ring slot* when the response is slot-resident.
    """
    injector = FaultInjector(fault_plan or FaultPlan(), worker_id)
    ring = SharedMemoryRing(n_slots, slot_floats, name=ring_name)
    try:
        surrogate = recipe if isinstance(recipe, SNSurrogate) else recipe.build()
        while True:
            try:
                item = req_q.get(timeout=HEARTBEAT_S)
            except queue_mod.Empty:
                res_q.put(("hb", worker_id))
                continue
            if item is None:
                break
            batch_id, entries = item
            res_q.put(("claim", worker_id, batch_id))
            injector.on_claim()
            t0 = time.perf_counter()
            try:
                injector.on_predict()
                responses = serve_batch_in_place(surrogate, ring, entries, pad_to)
            except Exception as exc:  # ship the failure instead of dying silently
                res_q.put(("done", worker_id, batch_id, exc, 0.0))
                continue
            if injector.corrupts_response() and responses:
                entry = responses[0]
                if entry[0] == SLOT:
                    ring.slot(entry[1])[0] = -1.0       # tear the wire magic
                else:
                    entry[1][0] = -1.0
            if injector.drops_response():
                continue
            res_q.put(
                ("done", worker_id, batch_id, responses, time.perf_counter() - t0)
            )
    finally:
        ring.close()


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

    def close(self) -> None:
        for slot in self._slots:
            proc, slot.proc = slot.proc, None
            slot.gave_up = True
            if proc is None:
                continue
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)


class _ShmTransport:
    """N supervised workers reading/writing ring slots; queues carry indices.

    Owns the queue pair, the :class:`_WorkerSupervisor`, the ring with its
    slot-lease books, and the tagged-row pump that turns worker rows into
    :data:`Reply` items — including the synthetic :class:`WorkerLost`
    replies for batches whose claiming worker died.  See the module
    docstring's fault section for the three ways a lease comes home.
    """

    def __init__(
        self,
        recipe: Any,
        n_workers: int,
        pad_to: int | None = None,
        n_slots: int = 32,
        slot_floats: int = 0,
        metrics: ServiceMetrics | None = None,
        fault_plan: FaultPlan | None = None,
        supervision: SupervisionConfig | None = None,
        tracer: Any = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("shm transport needs at least one worker")
        if slot_floats < 1:
            raise ValueError("shm transport needs a positive slot size")
        self._ctx = process_context()
        self._recipe = recipe
        self._pad_to = pad_to
        self._fault_plan = fault_plan
        self._metrics = metrics if metrics is not None else ServiceMetrics()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._req_q = self._ctx.Queue()
        self._res_q = self._ctx.Queue()
        #: batch_id -> worker_id that posted the claim row (in-flight only).
        self._claims: dict[int, int] = {}
        self._closed = False
        self._ring = SharedMemoryRing(n_slots, slot_floats)
        self._free = list(range(n_slots - 1, -1, -1))   # stack of free slots
        self._batch_slots: dict[int, list[int]] = {}    # in-flight slot leases
        #: Leases of expired (timed-out) batches, parked until their holder
        #: is provably done: batch_id -> (claiming worker or None, slots).
        self._zombies: dict[int, tuple[int | None, list[int]]] = {}
        self._supervisor = _WorkerSupervisor(
            self._spawn, n_workers, supervision or SupervisionConfig(),
            self._metrics, tracer=self._tracer,
        )
        self._supervisor.start()

    def _spawn(self, worker_id: int) -> mp.process.BaseProcess:
        proc = self._ctx.Process(
            target=_shm_worker_main,
            args=(
                worker_id, self._recipe, self._ring.name, self._ring.n_slots,
                self._ring.slot_floats, self._req_q, self._res_q, self._pad_to,
                self._fault_plan,
            ),
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

    @property
    def n_free_slots(self) -> int:
        return len(self._free)

    # ------------------------------------------------------------ dispatch
    def dispatch(self, batch_id: int, buffers: list[np.ndarray]) -> None:
        tt0 = self._tracer.now()
        entries: list[Entry] = []
        leased: list[int] = []
        n_fallback = 0
        for buf in buffers:
            if self._free and buf.size <= self._ring.slot_floats:
                index = self._free.pop()
                self._ring.write(index, buf)
                leased.append(index)
                entries.append((SLOT, index, buf.size))
                self._metrics.n_shm_slot += 1
            else:
                # Oversize request or exhausted ring: this one event rides
                # the queue, pickled.
                self._metrics.n_shm_fallback += 1
                n_fallback += 1
                entries.append((INLINE, buf))
        self._batch_slots[batch_id] = leased
        if self._tracer.enabled:
            self._tracer.span_at(
                "serve.shm.encode", tt0, self._tracer.now() - tt0, cat="serve",
                batch=batch_id, slots=len(leased), fallbacks=n_fallback,
            )
        self._req_q.put((batch_id, entries))

    def expire_batch(self, batch_id: int) -> None:
        """The server timed this batch out: park its leases as zombies.

        The holder may be a *hung* worker that will still write its
        in-place response into these slots; returning them to the free
        stack now would hand a worker's output buffer to a new request.
        The claim attribution is kept: if the worker later dies still
        holding the batch, the death reclaims the zombie; if it eventually
        replies, the reply frees the leases and the server drops it as a
        stale duplicate.
        """
        leased = self._batch_slots.pop(batch_id, [])
        if leased:
            self._zombies[batch_id] = (self._claims.get(batch_id), leased)

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
            # Workers are strictly serial: a fresh claim proves this worker
            # is done touching every batch it claimed earlier, so any zombie
            # leases attributed to it are safe to free.  The claim also
            # attributes a previously unclaimed zombie batch to its holder.
            if batch_id in self._zombies:
                self._zombies[batch_id] = (worker_id, self._zombies[batch_id][1])
            stale = [
                b for b, (w, _) in self._zombies.items()
                if w == worker_id and b != batch_id
            ]
            freed: list[int] = []
            try:
                for b in stale:
                    freed.extend(self._zombies.pop(b)[1])
            finally:
                self._free.extend(freed)
            return None
        _tag, worker_id, batch_id, payload, busy_s = row
        self._claims.pop(batch_id, None)
        # Memmove slot-resident responses out of the ring and free the
        # leases — for late (previously expired) done rows too, via the
        # zombie registry, and on the worker-exception edge alike.
        leased = self._batch_slots.pop(batch_id, None)
        if leased is None:
            leased = self._zombies.pop(batch_id, (None, []))[1]
        try:
            if isinstance(payload, Exception):
                return (batch_id, worker_id, payload, busy_s)
            self._supervisor.note_success(worker_id)
            buffers: list[np.ndarray] = []
            for entry in payload:
                if entry[0] == SLOT:
                    _, index, nfloats = entry
                    buffers.append(np.array(self._ring.slot(index, nfloats)))
                else:
                    buffers.append(entry[1])
            return (batch_id, worker_id, buffers, busy_s)
        finally:
            self._free.extend(leased)

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
        """Supervision pass: convert worker deaths into WorkerLost replies.

        A dead worker can never touch the ring again, so the leases of the
        batches it claimed and the zombie leases attributed to it return to
        the free stack at once.
        """
        dead = self._supervisor.reap()
        lost: list[Reply] = []
        freed: list[int] = []
        try:
            for worker_id in dead:
                for batch_id in [b for b, w in self._claims.items() if w == worker_id]:
                    del self._claims[batch_id]
                    freed.extend(self._batch_slots.pop(batch_id, []))
                    lost.append((
                        batch_id, worker_id,
                        WorkerLost(
                            f"serve worker {worker_id} died holding batch {batch_id}"
                        ),
                        0.0,
                    ))
                for b in [b for b, (w, _) in self._zombies.items() if w == worker_id]:
                    freed.extend(self._zombies.pop(b)[1])
        finally:
            self._free.extend(freed)
            self._metrics.n_slots_reclaimed += len(freed)
        if dead and self._supervisor.degraded:
            # No worker will ever run again: everything still leased to the
            # transport (claimed or queued) is safe to take back.
            self._reclaim_all()
        return lost

    def _reclaim_all(self) -> None:
        # No live workers remain (degraded, or close after join): every
        # outstanding lease — in-flight and zombie — is safe to take back.
        freed: list[int] = []
        try:
            for leased in self._batch_slots.values():
                freed.extend(leased)
            self._batch_slots.clear()
            for _w, leased in self._zombies.values():
                freed.extend(leased)
            self._zombies.clear()
        finally:
            self._free.extend(freed)
            self._metrics.n_slots_reclaimed += len(freed)

    def poll(self) -> list[Reply]:
        return self._drain() + self._reap()

    def wait(self, timeout: float) -> list[Reply]:
        """Block up to ``timeout`` for replies; [] on timeout or degraded.

        This never raises on worker death — deaths come back as
        :class:`WorkerLost` replies and the *server* decides (recover or
        raise) per its fault mode.
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
        if self._closed:
            return
        self._closed = True
        for _ in self._supervisor.alive_worker_ids():
            self._req_q.put(None)
        self._supervisor.close()
        # All workers are gone.  Drain both queues: late done-rows still
        # return their slot leases through _handle_row, and an empty
        # request pipe is what lets join_thread() below terminate even when
        # undelivered batches were buffered for dead workers.
        while True:
            try:
                self._handle_row(self._res_q.get_nowait())
            except queue_mod.Empty:
                break
        while True:
            try:
                self._req_q.get_nowait()
            except queue_mod.Empty:
                break
        self._reclaim_all()
        self._ring.close()
        for q in (self._req_q, self._res_q):
            q.close()
            q.join_thread()


__all__ = [
    "INLINE",
    "SLOT",
    "Entry",
    "Reply",
    "SharedMemoryRing",
    "SupervisionConfig",
    "WorkerLost",
    "process_context",
    "serve_batch_in_place",
]
