"""`SurrogateServer` — the asynchronous, batched SN-inference service.

The server owns a :class:`BatchScheduler`, the recovery policy, and one of
two transports:

* ``sync`` — predictions execute in-process at flush time on the caller's
  thread.  Deterministic, dependency-free, and exactly the critical-path
  shape of the old lazy ``PoolManager`` — the tests' reference path.
* ``shm`` — ``n_workers`` OS processes, each of which builds its own
  surrogate (from a picklable :class:`SurrogateSpec` or a pickled
  :class:`SNSurrogate`) and serves batches whose requests and predictions
  live in :class:`repro.util.shm.SharedMemoryRing` slots; the queues
  carry only slot indices (see :mod:`repro.serve.shm`, which owns the
  worker protocol and supervision).  Inference then genuinely overlaps the
  main loop: the only wall-clock the main rank ever pays is the
  submit/collect bookkeeping, plus an *exposed wait* (recorded in
  :class:`ServiceMetrics`) when a prediction misses its return step.

Because the Gibbs re-sampling is seeded per event
(:func:`repro.serve.wire.event_rng`), both transports — and any batch
composition or worker count — produce bit-identical predictions.

Fault tolerance
---------------

The ``shm`` transport survives worker faults instead of surfacing them as
crashes of the main rank:

* **In-flight request registry** — the server keeps every dispatched
  batch's request buffers until the batch's responses are absorbed, so a
  lost batch can be *re-dispatched* byte-identically (the requests keep
  their original ``dispatch_step``, hence the same per-event RNG) or
  resolved *inline* on the main rank by the same surrogate recipe the
  workers build.  Duplicate replies from a worker that was merely slow are
  idempotent: a response for an event already completed is dropped.
* **Worker supervision** — the transport's supervisor
  (:class:`repro.serve.shm._WorkerSupervisor`) detects dead workers
  (``is_alive`` plus tagged heartbeat/claim rows on the result queue),
  restarts them from the picklable recipe with capped exponential backoff,
  and attributes each in-flight batch to the worker that claimed it so a
  death converts exactly the claimed batches into :class:`WorkerLost`
  replies.  After ``SupervisionConfig.max_consecutive_failures`` failures
  without a successful batch a worker slot is abandoned; when every slot
  is abandoned the service *degrades*: all outstanding and future work
  runs inline on the main rank, bit-identically, and the run finishes.
* **Per-batch timeouts** — a batch with no response within
  ``SupervisionConfig.batch_timeout_s`` (a *hung* worker, or a dropped
  reply) is expired at the transport and recovered like a death.

Every recovery is counted, never swallowed (``n_worker_restarts``,
``n_redispatch``, ``n_fault_oracle``, ``n_slots_reclaimed``,
``n_batch_timeouts``, ``recovery_s`` in :class:`ServiceMetrics`).
Failures are injectable on purpose through a
:class:`~repro.serve.faults.FaultPlan` (or the ``REPRO_SERVE_FAULTS``
environment variable) — see :mod:`repro.serve.faults` and
``tests/serve/test_faults.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.fdps.particles import ParticleSet
from repro.serve.batch import BatchScheduler
from repro.serve.faults import FaultPlan
from repro.obs.trace import NULL_TRACER
from repro.serve.metrics import ServiceMetrics
from repro.serve.shm import (
    Reply,
    SupervisionConfig,
    WorkerLost,
    _ShmTransport,
    predict_responses,
)
from repro.serve.wire import ServeRequest, ServeResponse, WireFormatError, request_nfloats
from repro.surrogate.model import SedovBlastOracle, SNSurrogate
from repro.util.constants import SN_ENERGY
from repro.util.shm import owner_finalizer

#: Seconds of *zero progress* (no replies, no recoveries) the server
#: tolerates before giving up with TimeoutError — a backstop against
#: protocol bugs, not the per-batch deadline (that is
#: ``SupervisionConfig.batch_timeout_s``).
WORKER_TIMEOUT_S = 120.0

#: Re-dispatch attempts of a lost batch before its remaining events resolve
#: inline on the main rank.
MAX_REDISPATCH = 2


@dataclass(frozen=True)
class SurrogateSpec:
    """A picklable recipe for building the surrogate inside a worker.

    ``kind="oracle"`` builds the analytic Sedov oracle; ``kind="model"``
    loads an exported U-Net through :class:`repro.ml.serialize
    .InferenceEngine` — the two pool-node deployments of Sec. 3.3.
    """

    kind: str = "oracle"
    n_grid: int = 16
    side: float = 60.0
    gibbs_sweeps: int = 8
    # oracle parameters
    t_after: float = 0.1
    energy: float = SN_ENERGY
    t_floor: float = 10.0
    # model parameters
    model_path: str | None = None
    #: Non-default field-transform parameters as (rho_floor, t_floor,
    #: v_floor, v_scale); None means the default FieldTransform.  Captured
    #: so a worker-built surrogate encodes/decodes exactly like the
    #: in-process one.
    transform: tuple[float, ...] | None = None

    def _transform_kwargs(self) -> dict[str, Any]:
        if self.transform is None:
            return {}
        from repro.surrogate.transforms import FieldTransform

        return {"transform": FieldTransform(*self.transform)}

    def build(self) -> SNSurrogate:
        if self.kind == "oracle":
            return SNSurrogate(
                oracle=SedovBlastOracle(
                    energy=self.energy, t_after=self.t_after, t_floor=self.t_floor
                ),
                n_grid=self.n_grid,
                side=self.side,
                gibbs_sweeps=self.gibbs_sweeps,
                **self._transform_kwargs(),
            )
        if self.kind == "model":
            from repro.ml.serialize import InferenceEngine

            if self.model_path is None:
                raise ValueError("kind='model' requires model_path")
            return SNSurrogate(
                predictor=InferenceEngine.load(self.model_path),
                n_grid=self.n_grid,
                side=self.side,
                gibbs_sweeps=self.gibbs_sweeps,
                **self._transform_kwargs(),
            )
        raise ValueError(f"unknown surrogate spec kind {self.kind!r}")

    @classmethod
    def from_surrogate(cls, surr: SNSurrogate) -> "SurrogateSpec":
        """Best-effort spec for an existing surrogate.

        Two deployments are derivable: the analytic Sedov oracle, and a
        trained exported model whose predictor remembers where it was
        loaded from (:class:`repro.ml.serialize.InferenceEngine` records
        ``model_path``) — workers then reload the export themselves instead
        of inheriting a pickled copy of every weight tensor.
        """
        from dataclasses import astuple

        from repro.surrogate.transforms import FieldTransform

        if type(surr.transform) is not FieldTransform:
            raise ValueError(
                "no derivable spec: the surrogate uses a custom transform "
                "object the spec cannot capture; let the server pickle the "
                "surrogate itself"
            )
        transform = (
            None if surr.transform == FieldTransform()
            else astuple(surr.transform)
        )
        if isinstance(surr.oracle, SedovBlastOracle):
            return cls(
                kind="oracle",
                n_grid=surr.n_grid,
                side=surr.side,
                gibbs_sweeps=surr.gibbs_sweeps,
                t_after=surr.oracle.t_after,
                energy=surr.oracle.energy,
                t_floor=surr.oracle.t_floor,
                transform=transform,
            )
        model_path = getattr(surr.predictor, "model_path", None)
        if model_path:
            return cls(
                kind="model",
                model_path=str(model_path),
                n_grid=surr.n_grid,
                side=surr.side,
                gibbs_sweeps=surr.gibbs_sweeps,
                transform=transform,
            )
        raise ValueError(
            "no derivable spec: the surrogate is neither Sedov-oracle-backed "
            "nor backed by a predictor that records its model_path (load the "
            "export via InferenceEngine.load); pass a SurrogateSpec("
            "kind='model', model_path=...) or let the server pickle the "
            "surrogate object itself"
        )


def predict_batch_buffers(
    surrogate: SNSurrogate, buffers: list[np.ndarray]
) -> list[np.ndarray]:
    """Decode a request batch, run the batched predictor, encode responses
    (:func:`~repro.serve.shm.predict_responses`, the shm worker's path)."""
    return [r.to_buffer() for r in predict_responses(surrogate, buffers)]


class _SyncTransport:
    """Execute batches inline on the caller's thread (the reference path)."""

    def __init__(self, surrogate: SNSurrogate, metrics: ServiceMetrics) -> None:
        self._surrogate = surrogate
        self._metrics = metrics
        self._done: list[Reply] = []

    @property
    def n_workers(self) -> int:
        return 0

    @property
    def degraded(self) -> bool:
        return False

    def dispatch(self, batch_id: int, buffers: list[np.ndarray]) -> None:
        t0 = time.perf_counter()
        responses = predict_batch_buffers(self._surrogate, buffers)
        elapsed = time.perf_counter() - t0
        self._metrics.inline_predict_s += elapsed
        self._done.append((batch_id, -1, responses, elapsed))

    def poll(self) -> list[Reply]:
        out, self._done = self._done, []
        return out

    def wait(self, timeout: float) -> list[Reply]:
        raise RuntimeError("sync transport never has in-flight batches")

    def expire_batch(self, batch_id: int) -> None:
        pass

    def close(self) -> None:
        pass


@dataclass
class _Event:
    """One submitted SN event, from :meth:`SurrogateServer.submit` until
    :meth:`SurrogateServer.collect` hands its response back."""

    dispatch_step: int
    return_step: int
    client: int | None
    response: ServeResponse | None = None


@dataclass
class _Batch:
    """One dispatched batch, held until its responses are absorbed so a lost
    batch can be re-dispatched or resolved inline (the in-flight registry)."""

    buffers: list[np.ndarray]
    dispatched_at: float        # time.monotonic() at dispatch
    trace_t0: float | None      # tracer.now() at dispatch, when tracing
    generation: int = 0         # re-dispatch generation


class SurrogateServer:
    """Batched inference over SN regions with the sync or shm transport.

    Parameters
    ----------
    surrogate : in-process surrogate (required for ``sync``; for ``shm``
        it is the recipe source when ``spec`` is absent — a spec is derived
        when possible, else the object itself is pickled — and the builder
        of inline fault-recovery predictions).
    spec : a :class:`SurrogateSpec` workers build from (preferred for
        ``shm`` — each worker loads its own model instead of inheriting a
        pickled copy through the spawn args).
    transport : ``"sync"`` or ``"shm"`` (worker processes over a zero-copy
        shared-memory ring, see :mod:`repro.serve.shm`).
    n_workers / max_batch / max_wait_steps : see module and
        :class:`BatchScheduler` docs.
    shm_slots / shm_slot_particles : ``shm`` ring sizing — slot count and
        the per-slot particle capacity (a bigger request falls back to the
        pickled queue path for that event, so these are performance knobs,
        not correctness limits).
    fault_plan : scripted failure injection for the workers — a
        :class:`~repro.serve.faults.FaultPlan`, its string form, or None to
        read ``REPRO_SERVE_FAULTS`` from the environment.
    supervision : :class:`SupervisionConfig` overriding restart backoff,
        give-up threshold, and the per-batch timeout.
    """

    def __init__(
        self,
        surrogate: SNSurrogate | None = None,
        spec: SurrogateSpec | None = None,
        transport: str = "sync",
        n_workers: int = 2,
        max_batch: int = 8,
        max_wait_steps: int = 1,
        shm_slots: int = 32,
        shm_slot_particles: int = 4096,
        fault_plan: FaultPlan | str | None = None,
        supervision: SupervisionConfig | None = None,
        tracer: Any = None,
    ) -> None:
        if surrogate is None and spec is None:
            raise ValueError("need a surrogate or a SurrogateSpec")
        self.transport_name = transport
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = ServiceMetrics(started_at=time.perf_counter())
        self.scheduler = BatchScheduler(
            max_batch=max_batch,
            max_wait_steps=max_wait_steps,
            metrics=self.metrics,
        )
        self._surrogate = surrogate
        self._spec = spec
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        elif isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        self._fault_plan = fault_plan
        self._supervision = supervision if supervision is not None else SupervisionConfig()
        self._transport: _SyncTransport | _ShmTransport
        if transport == "sync":
            self._transport = _SyncTransport(self.local_surrogate, self.metrics)
        elif transport == "shm":
            self._transport = _ShmTransport(
                self._worker_recipe(), n_workers, n_slots=shm_slots,
                slot_floats=request_nfloats(shm_slot_particles),
                metrics=self.metrics,
                fault_plan=self._fault_plan, supervision=self._supervision,
                tracer=self.tracer,
            )
            self.metrics.shm_n_slots = shm_slots
            self.metrics.shm_slot_bytes = request_nfloats(shm_slot_particles) * 8
        elif transport == "process":
            raise ValueError(
                "the 'process' transport is retired: use transport='shm' "
                "(the same worker pool; results are bit-identical)"
            )
        else:
            raise ValueError(f"unknown transport {transport!r}")
        self._next_event_id = 0
        self._next_batch_id = 0
        self._events: dict[int, _Event] = {}     # event id -> outstanding event
        self._batches: dict[int, _Batch] = {}    # batch id -> batch in flight
        self._last_depth_sample_step: int | None = None
        #: Stops the transport on close() or collection, in this process
        #: only: a forked child's copy of the server owns no worker.
        self._finalizer = owner_finalizer(self, self._transport.close)

    # -------------------------------------------------------------- plumbing
    def _worker_recipe(self) -> SurrogateSpec | SNSurrogate | None:
        """What the ``shm`` workers build their surrogate from.

        Prefer a :class:`SurrogateSpec` (explicit, or derived from the
        in-process surrogate — oracle- and exported-model-backed both
        derive) so each worker builds its own; fall back to pickling the
        surrogate object for predictors with no serializable recipe.
        """
        if self._spec is not None:
            return self._spec
        try:
            return SurrogateSpec.from_surrogate(self._surrogate)
        except ValueError:
            return self._surrogate

    @property
    def local_surrogate(self) -> SNSurrogate:
        """An in-process surrogate (built lazily from the spec if needed).

        This is also the fault-recovery fallback: it is built from the
        *same* recipe the workers build from, so inline recovery
        predictions are bit-identical to what the lost worker would have
        returned.
        """
        if self._surrogate is None:
            self._surrogate = self._spec.build()
        return self._surrogate

    @property
    def n_workers(self) -> int:
        return self._transport.n_workers

    @property
    def n_outstanding(self) -> int:
        """Events submitted but not yet handed back by :meth:`collect`."""
        return len(self._events)

    @property
    def degraded(self) -> bool:
        """True once the worker pool is abandoned and service runs inline."""
        return self._transport.degraded

    def supervise(self) -> None:
        """One explicit supervision pass (deaths → recovery, due restarts).

        Supervision normally rides on the transport polling inside
        :meth:`collect`; a workload that finishes before a scheduled
        restart's backoff elapses would otherwise close with the restart
        pending forever.  Chaos tests (and callers that must leave the
        pool healthy for a next phase) drive the supervisor to quiescence
        with this instead of sleeping and hoping a collect happens by.
        """
        self._absorb(self._transport.poll())

    # ---------------------------------------------------------------- submit
    def submit(
        self,
        region: ParticleSet,
        center: np.ndarray,
        star_pid: int,
        dispatch_step: int,
        return_step: int,
        base_seed: int = 0,
        client: int | None = None,
    ) -> ServeRequest:
        """Encode one SN region and queue it for batched prediction.

        ``client`` tags the event for multi-client (coupled multi-rank)
        runs: :meth:`collect` with the same tag hands back only this
        client's predictions; a collect without a tag takes every event.
        """
        request = ServeRequest(
            event_id=self._next_event_id,
            base_seed=int(base_seed),
            star_pid=int(star_pid),
            dispatch_step=int(dispatch_step),
            return_step=int(return_step),
            center=np.asarray(center, dtype=np.float64),
            region=region,
        )
        self._next_event_id += 1
        buf = request.to_buffer()
        self.metrics.n_submitted += 1
        self.metrics.bytes_in += int(buf.nbytes)
        self._events[request.event_id] = _Event(
            request.dispatch_step, request.return_step,
            None if client is None else int(client),
        )
        self.scheduler.add(buf, dispatch_step, return_step)
        return request

    # ------------------------------------------------------------------ tick
    def tick(self, step: int) -> None:
        """Flush due batches to the transport (idempotent within a step).

        Both the dispatch-side flush and :meth:`collect` tick; the queue
        depth is sampled only on the first tick of a step (before any
        flush) so the observability stream has one pre-flush sample per
        step.
        """
        if step != self._last_depth_sample_step:
            self._last_depth_sample_step = step
            self.metrics.queue_depth_samples.append(self.scheduler.queue_depth)
        for buffers in self.scheduler.due_batches(step):
            self._dispatch(buffers)

    def _dispatch(self, buffers: list[np.ndarray], redispatch_gen: int = 0) -> None:
        if self._transport.degraded:
            # No live workers: the batch would sit in the request queue
            # until its timeout; resolve it inline right away instead.
            self._resolve_inline_fault(buffers, "service degraded: no live workers")
            return
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        trace_t0 = None
        if self.tracer.enabled:
            trace_t0 = self.tracer.now()
            self.tracer.instant(
                "serve.dispatch", cat="serve", batch=batch_id,
                events=len(buffers), generation=redispatch_gen,
            )
        self._batches[batch_id] = _Batch(
            buffers, time.monotonic(), trace_t0, redispatch_gen
        )
        self._transport.dispatch(batch_id, buffers)

    # --------------------------------------------------------------- collect
    def collect(self, step: int, client: int | None = None) -> list[ServeResponse]:
        """All predictions due at ``step``.

        Drains finished batches without blocking; if a due prediction is
        still running (the pool is genuinely contended) the call blocks
        until it lands and charges the wait to ``metrics.exposed_wait_s`` —
        the non-overlapped remainder the paper's ideal sizing drives to
        zero.  Worker faults encountered on the way are recovered.

        With a ``client`` tag only that client's events are handed back
        (and popped); other clients' completions stay buffered for their
        own collect calls, and a collect without a tag takes every
        client's.  The wait itself is still global — every due event must
        have landed before any client's delivery, which keeps the coupled
        runner's per-rank collect order deterministic.
        """
        self.tick(step)  # any request due back by now is past its deadline
        self._wait(step)
        return self._deliver(step, client)

    def collect_all(self, client: int | None = None) -> list[ServeResponse]:
        """Flush and wait for everything outstanding (drain/shutdown path)."""
        for buffers in self.scheduler.flush_all(step=0):
            self._dispatch(buffers)
        self._wait(None)
        return self._deliver(None, client)

    def _wait(self, step: int | None) -> None:
        """Block until every event due at ``step`` (every outstanding event
        for None) has its response, recovering worker faults on the way.

        Only a wait for a due step is exposed on the main rank: it alone
        charges ``exposed_wait_s`` and raises when a degraded service
        cannot produce a due event.
        """
        self._absorb(self._transport.poll())
        last_progress = time.monotonic()
        while self._missing(step):
            self._check_timeouts()
            if not self._missing(step):
                break
            if self._transport.degraded:
                self._recover_all_in_flight("service degraded: no live workers")
                if step is not None and self._missing(step):
                    raise RuntimeError(
                        "due serve events unrecoverable: service degraded and "
                        "inline recovery did not produce them"
                    )
                break
            t0 = time.perf_counter()
            tt0 = self.tracer.now()
            replies = self._transport.wait(self._wait_slice())
            if step is not None:
                waited = time.perf_counter() - t0
                self.metrics.exposed_wait_s += waited
                if self.tracer.enabled:
                    self.tracer.span_at(
                        "serve.exposed_wait", tt0, waited, cat="serve", step=step,
                    )
            if replies:
                self._absorb(replies)
                last_progress = time.monotonic()
            elif time.monotonic() - last_progress > WORKER_TIMEOUT_S:
                raise TimeoutError(
                    f"no serve progress within {WORKER_TIMEOUT_S:.0f}s"
                )

    def _deliver(self, step: int | None, client: int | None) -> list[ServeResponse]:
        """Pop the completed events due at ``step`` (all for None) in event-id
        order, keeping other clients' for their own collect."""
        out = []
        for eid in sorted(self._events):
            event = self._events[eid]
            if event.response is None or (client is not None and event.client != client):
                continue
            if step is None or event.return_step <= step:
                out.append(event.response)
                del self._events[eid]
                # Draining has no caller step: the return step, when the
                # prediction was due, is the honest latency stand-in.
                self.metrics.record_completion(
                    event.dispatch_step, event.return_step if step is None else step
                )
        return out

    def _wait_slice(self) -> float:
        """Longest single transport wait — short enough that per-batch
        timeouts are checked several times per timeout window."""
        return max(0.05, min(1.0, self._supervision.batch_timeout_s / 4.0))

    def _missing(self, step: int | None) -> bool:
        """An event due at ``step`` (any, for None) has no response yet."""
        return any(
            e.response is None and (step is None or e.return_step <= step)
            for e in self._events.values()
        )

    # ------------------------------------------------------- fault recovery
    def _event_pending(self, event_id: int) -> bool:
        event = self._events.get(event_id)
        return event is not None and event.response is None

    def _check_timeouts(self) -> None:
        """Expire batches past the per-batch deadline and recover them."""
        if not self._batches:
            return
        timeout = self._supervision.batch_timeout_s
        now = time.monotonic()
        expired = [
            bid for bid, batch in sorted(self._batches.items())
            if now - batch.dispatched_at > timeout
        ]
        for bid in expired:
            self.metrics.n_batch_timeouts += 1
            self._transport.expire_batch(bid)
            self._recover_batch(
                bid, redispatch=True,
                cause=f"batch {bid} timed out after {timeout:.0f}s",
            )

    def _recover_batch(self, batch_id: int, redispatch: bool, cause: str) -> None:
        """Re-deliver a lost batch's still-pending events.

        Re-dispatch re-sends the *original* request buffers, so the
        per-event RNG (seeded by dispatch step, not wall time) and hence the
        prediction bytes are unchanged; events past :data:`MAX_REDISPATCH`
        attempts — or worker-independent failures — resolve inline.
        """
        batch = self._batches.pop(batch_id, None)
        if batch is None:
            return
        pending = [b for b in batch.buffers if self._event_pending(int(b[2]))]
        if not pending:
            return
        can_redispatch = (
            redispatch
            and batch.generation < MAX_REDISPATCH
            and self.n_workers > 0
            and not self._transport.degraded
        )
        if can_redispatch:
            self.metrics.n_redispatch += 1
            self.tracer.instant(
                "serve.redispatch", cat="serve", batch=batch_id,
                events=len(pending), generation=batch.generation + 1, cause=cause,
            )
            self._dispatch(pending, redispatch_gen=batch.generation + 1)
        else:
            self._resolve_inline_fault(pending, cause)

    def _recover_all_in_flight(self, cause: str) -> None:
        for batch_id in sorted(self._batches):
            self._recover_batch(batch_id, redispatch=False, cause=cause)

    def _resolve_inline_fault(self, buffers: list[np.ndarray], cause: str) -> None:
        """Serve request buffers on the main rank — the recovery of last
        resort, bit-identical because :attr:`local_surrogate` is built from
        the same recipe the workers use."""
        t0 = time.perf_counter()
        tt0 = self.tracer.now()
        try:
            responses = predict_batch_buffers(self.local_surrogate, buffers)
        except Exception as exc:
            raise RuntimeError(
                f"serve worker fault ({cause}) could not be recovered inline"
            ) from exc
        elapsed = time.perf_counter() - t0
        self.metrics.inline_predict_s += elapsed
        if self.tracer.enabled:
            self.tracer.span_at(
                "serve.inline_recovery", tt0, elapsed, cat="serve",
                tid="inline", events=len(buffers), cause=cause,
            )
        self.metrics.n_fault_oracle += len(buffers)
        for buf in responses:
            self._store_response(buf)

    def _absorb(self, replies: list[Reply]) -> None:
        for batch_id, worker_id, payload, busy_s in replies:
            batch = self._batches.get(batch_id)
            if batch is None:
                # Stale duplicate: a hung worker finally answered a batch
                # already recovered (idempotent — the transport has freed
                # its resources; the events were delivered elsewhere).
                continue
            if isinstance(payload, WorkerLost):
                self._recover_batch(batch_id, redispatch=True, cause=str(payload))
                continue
            if isinstance(payload, Exception):
                self.metrics.n_worker_errors += 1
                # The worker is alive and shipped a predict failure: the
                # fault is request-dependent, so a retry on another worker
                # would hit the same bug — go straight to inline recovery.
                self._recover_batch(
                    batch_id, redispatch=False,
                    cause=f"worker {worker_id} predict error: {payload!r}",
                )
                continue
            if worker_id >= 0:
                self.metrics.add_worker_busy(worker_id, busy_s)
            corrupt = False
            for buf in payload:
                try:
                    self._store_response(buf)
                except WireFormatError:
                    corrupt = True
            if corrupt:
                # A torn response cannot name its event: recover whichever
                # of the batch's events the good buffers did not cover.
                self._recover_batch(
                    batch_id, redispatch=True,
                    cause=f"corrupt response from worker {worker_id}",
                )
                continue
            if self.tracer.enabled:
                t0 = batch.trace_t0
                now = self.tracer.now()
                lane = f"worker-{worker_id}" if worker_id >= 0 else "inline"
                self.tracer.span_at(
                    "serve.batch", t0 if t0 is not None else now,
                    now - t0 if t0 is not None else 0.0, cat="serve",
                    tid=lane, batch=batch_id, events=len(payload),
                    busy_s=busy_s, worker=worker_id,
                )
            del self._batches[batch_id]

    def _store_response(self, buf: np.ndarray) -> None:
        response = ServeResponse.from_buffer(buf)
        event = self._events.get(response.event_id)
        if event is None or event.response is not None:
            return  # stale duplicate from a re-dispatched or expired batch
        self.metrics.bytes_out += int(buf.nbytes)
        event.response = response

    # ----------------------------------------------------------------- close
    def close(self) -> None:
        """Stop the transport's workers; idempotent, and a no-op in a
        forked child holding a copy of this server."""
        if self._finalizer.alive:
            self.metrics.stopped_at = time.perf_counter()
        self._finalizer()

    def __enter__(self) -> "SurrogateServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def metrics_dict(self) -> dict[str, Any]:
        """The versioned :meth:`ServiceMetrics.to_dict` export of this server."""
        return self.metrics.to_dict(
            max_batch=self.scheduler.max_batch, n_workers=self.n_workers
        )
