"""`SurrogateServer` — the asynchronous, batched SN-inference service.

The server owns a :class:`BatchScheduler`, the recovery policy, and one of
two transports:

* ``sync`` — predictions execute in-process at flush time on the caller's
  thread.  Deterministic, dependency-free, and the whole prediction cost
  sits on the main loop's collect — the tests' reference path.
* ``shm`` — ``n_workers`` OS processes, each of which builds its own
  surrogate (from a picklable :class:`SurrogateSpec` or a pickled
  :class:`SNSurrogate`) and serves batches whose requests and predictions
  live in one shared-memory block per batch; each worker's pipe carries
  only block names (see :mod:`repro.serve.shm`, which owns the worker
  protocol).
  Inference then genuinely overlaps the main loop: the only wall-clock
  the main rank ever pays is the submit/collect bookkeeping, plus an
  *exposed wait* (recorded in :class:`ServiceMetrics`) when a prediction
  misses its return step.

Because the Gibbs re-sampling is seeded per event
(:func:`repro.serve.wire.event_rng`), both transports — and any batch
composition or worker count — produce bit-identical predictions.

Fault tolerance
---------------

The ``shm`` pool follows the gravity helper's rule: a fault never crashes
the main rank and never changes a result, and nothing is retried.  A
worker that dies, misses :data:`BATCH_DEADLINE_S` (hung, or it dropped its
reply), sends a corrupt reply or raises in predict is killed and lost for
good; every batch it held comes back from the transport as a
:class:`WorkerLost` reply, and the server has one recovery for all of
them: the batch's pending events resolve *inline* on the main rank, from
the request buffers it keeps until a batch is absorbed, by the same
surrogate recipe the workers build and with the same per-event seeds —
bit-identical to what the worker would have returned.  The surviving
workers carry on.  With none left the service is *degraded*: all
outstanding and future work runs inline on the main rank and the run
finishes.

Every recovery is counted, never swallowed (``n_workers_lost`` for every
loss, ``n_batch_timeouts`` and ``n_worker_errors`` for two of its causes,
``n_fault_oracle`` for the events resolved inline, in
:class:`ServiceMetrics`).
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
from repro.obs.trace import Tracer
from repro.serve.metrics import ServiceMetrics
from repro.serve.shm import Reply, WorkerLost, _ShmTransport, predict_responses
from repro.serve.wire import ServeRequest, ServeResponse
from repro.surrogate.model import SedovBlastOracle, SNSurrogate
from repro.util.constants import SN_ENERGY
from repro.util.shm import owner_finalizer

#: Seconds of *zero progress* (no replies, no recoveries) the server
#: tolerates before giving up with TimeoutError — a backstop against
#: protocol bugs, not the per-batch deadline.
WORKER_TIMEOUT_S = 120.0

#: Seconds a dispatched batch may go unanswered before it is expired (hung
#: worker or dropped reply) and its pending events resolve inline.
BATCH_DEADLINE_S = 30.0


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


def _predict_on_main(surrogate: SNSurrogate, buffers: list[np.ndarray]) -> list[ServeResponse]:
    """The responses a worker would deliver, predicted here: encoded and
    decoded as the shm transport's are."""
    return [ServeResponse.from_buffer(b) for b in predict_batch_buffers(surrogate, buffers)]


class _SyncTransport:
    """Execute batches inline on the caller's thread (the reference path)."""

    def __init__(self, surrogate: SNSurrogate, metrics: ServiceMetrics, tracer: Tracer) -> None:
        self._surrogate = surrogate
        self._metrics = metrics
        self._tracer = tracer
        self._done: list[Reply] = []

    @property
    def n_workers(self) -> int:
        return 0

    @property
    def degraded(self) -> bool:
        return False

    def dispatch(self, batch_id: int, buffers: list[np.ndarray]) -> int:
        t0 = self._tracer.now()
        responses = _predict_on_main(self._surrogate, buffers)
        elapsed = self._tracer.now() - t0
        self._metrics.inline_predict_s += elapsed
        self._done.append((batch_id, -1, responses, elapsed))
        return -1

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
    response: ServeResponse | None = None


@dataclass
class _Batch:
    """One dispatched batch, held until its responses are absorbed so a lost
    batch can be resolved inline (the in-flight registry)."""

    buffers: list[np.ndarray]
    dispatched_at: float        # tracer.now() at dispatch


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
    transport : ``"sync"`` or ``"shm"`` (worker processes over zero-copy
        shared-memory blocks, see :mod:`repro.serve.shm`).
    n_workers / max_batch / max_wait_steps : see module and
        :class:`BatchScheduler` docs.
    fault_plan : scripted failure injection for the workers — a
        :class:`~repro.serve.faults.FaultPlan`, its string form, or None to
        read ``REPRO_SERVE_FAULTS`` from the environment.
    """

    def __init__(
        self,
        surrogate: SNSurrogate | None = None,
        spec: SurrogateSpec | None = None,
        transport: str = "sync",
        n_workers: int = 2,
        max_batch: int = 8,
        max_wait_steps: int = 1,
        fault_plan: FaultPlan | str | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if surrogate is None and spec is None:
            raise ValueError("need a surrogate or a SurrogateSpec")
        self.transport_name = transport
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
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
        self._transport: _SyncTransport | _ShmTransport
        if transport == "sync":
            self._transport = _SyncTransport(self.local_surrogate, self.metrics, self.tracer)
        elif transport == "shm":
            self._transport = _ShmTransport(
                self._worker_recipe(), n_workers, metrics=self.metrics,
                fault_plan=fault_plan, tracer=self.tracer,
            )
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

    # ---------------------------------------------------------------- submit
    def submit(
        self,
        region: ParticleSet,
        center: np.ndarray,
        star_pid: int,
        dispatch_step: int,
        return_step: int,
        base_seed: int = 0,
    ) -> ServeRequest:
        """Encode one SN region and queue it for batched prediction."""
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
        self._events[request.event_id] = _Event(request.dispatch_step, request.return_step)
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

    def _dispatch(self, buffers: list[np.ndarray]) -> None:
        if self._transport.degraded:
            # No live worker to send it to: resolve it inline right away.
            self._resolve_inline_fault(buffers, "service degraded: no live workers")
            return
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        self._batches[batch_id] = _Batch(buffers, self.tracer.now())
        worker_id = self._transport.dispatch(batch_id, buffers)
        self.tracer.instant(
            "serve.dispatch", cat="serve", batch=batch_id, events=len(buffers),
            worker=worker_id,
        )

    # --------------------------------------------------------------- collect
    def collect(self, step: int) -> list[ServeResponse]:
        """All predictions due at ``step``, in event-id order.

        Drains finished batches without blocking; if a due prediction is
        still running (the pool is genuinely contended) the call blocks
        until it lands and charges the wait to ``metrics.exposed_wait_s`` —
        the non-overlapped remainder the paper's ideal sizing drives to
        zero.  Worker faults encountered on the way are recovered.
        """
        self.tick(step)  # any request due back by now is past its deadline
        self._wait(step)
        return self._deliver(step)

    def collect_all(self) -> list[ServeResponse]:
        """Flush and wait for everything outstanding (drain/shutdown path)."""
        for buffers in self.scheduler.flush_all():
            self._dispatch(buffers)
        self._wait(None)
        return self._deliver(None)

    def _wait(self, step: int | None) -> None:
        """Block until every event due at ``step`` (every outstanding event
        for None) has its response, recovering worker faults on the way.

        Only a wait for a due step is exposed on the main rank: it alone
        charges ``exposed_wait_s`` and raises when a degraded service
        cannot produce a due event.
        """
        tracer = self.tracer
        self._absorb(self._transport.poll())
        last_progress = tracer.now()
        while self._missing(step):
            self._check_timeouts()
            if not self._missing(step):
                break
            if self._transport.degraded:
                # Every batch of the last lost worker came back as a
                # WorkerLost reply and resolved inline when it was absorbed.
                if step is not None and self._missing(step):
                    raise RuntimeError(
                        "due serve events unrecoverable: service degraded and "
                        "inline recovery did not produce them"
                    )
                break
            t0 = tracer.now()
            replies = self._transport.wait(self._wait_slice())
            now = tracer.now()
            if step is not None:
                self.metrics.exposed_wait_s += now - t0
                tracer.span_at("serve.exposed_wait", t0, now - t0, cat="serve", step=step)
            if replies:
                self._absorb(replies)
                last_progress = now
            elif now - last_progress > WORKER_TIMEOUT_S:
                raise TimeoutError(
                    f"no serve progress within {WORKER_TIMEOUT_S:.0f}s"
                )

    def _deliver(self, step: int | None) -> list[ServeResponse]:
        """Pop the completed events due at ``step`` (all for None) in event-id
        order."""
        out = []
        for eid in sorted(self._events):
            event = self._events[eid]
            if event.response is None:
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
        return max(0.05, min(1.0, BATCH_DEADLINE_S / 4.0))

    def _missing(self, step: int | None) -> bool:
        """An event due at ``step`` (any, for None) has no response yet."""
        return any(
            e.response is None and (step is None or e.return_step <= step)
            for e in self._events.values()
        )

    # ------------------------------------------------------- fault recovery
    def _check_timeouts(self) -> None:
        """Lose the worker of each batch past the per-batch deadline; the
        batches it held, this one among them, resolve inline."""
        now = self.tracer.now()
        for bid in sorted(self._batches):
            batch = self._batches.get(bid)     # absorbed with an earlier one?
            if batch is not None and now - batch.dispatched_at > BATCH_DEADLINE_S:
                self.metrics.n_batch_timeouts += 1
                self._transport.expire_batch(bid)
                self._absorb(self._transport.poll())

    def _recover_batch(self, batch_id: int, cause: str) -> None:
        """Resolve a lost batch's events inline on the main rank (a lost
        worker delivered none of them)."""
        batch = self._batches.pop(batch_id, None)
        if batch is not None:
            self._resolve_inline_fault(batch.buffers, cause)

    def _resolve_inline_fault(self, buffers: list[np.ndarray], cause: str) -> None:
        """Serve request buffers on the main rank — the recovery of last
        resort, bit-identical because :attr:`local_surrogate` is built from
        the same recipe the workers use."""
        t0 = self.tracer.now()
        try:
            responses = _predict_on_main(self.local_surrogate, buffers)
        except Exception as exc:
            raise RuntimeError(
                f"serve worker fault ({cause}) could not be recovered inline"
            ) from exc
        elapsed = self.tracer.now() - t0
        self.metrics.inline_predict_s += elapsed
        self.tracer.span_at(
            "serve.inline_recovery", t0, elapsed, cat="serve",
            tid="inline", events=len(buffers), cause=cause,
        )
        self.metrics.n_fault_oracle += len(buffers)
        for response in responses:
            self._store_response(response)

    def _absorb(self, replies: list[Reply]) -> None:
        for batch_id, worker_id, payload, busy_s in replies:
            if isinstance(payload, WorkerLost):
                self._recover_batch(batch_id, str(payload))
                continue
            batch = self._batches.pop(batch_id)
            if worker_id >= 0:
                self.metrics.add_worker_busy(worker_id, busy_s)
            for response in payload:
                self._store_response(response)
            lane = f"worker-{worker_id}" if worker_id >= 0 else "inline"
            self.tracer.span_at(
                "serve.batch", batch.dispatched_at, self.tracer.now() - batch.dispatched_at,
                cat="serve", tid=lane, batch=batch_id, events=len(payload),
                busy_s=busy_s, worker=worker_id,
            )

    def _store_response(self, response: ServeResponse) -> None:
        self.metrics.bytes_out += int(response.to_buffer().nbytes)
        self._events[response.event_id].response = response

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
