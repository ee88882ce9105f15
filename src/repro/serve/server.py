"""`SurrogateServer` — the asynchronous, batched SN-inference service.

The server owns a :class:`BatchScheduler`, the recovery policy, the
surrogate it was given, and at most one worker transport:

* ``sync`` — no transport: the server predicts each batch on this process
  when it flushes, on the caller's thread.  Deterministic,
  dependency-free, and the whole prediction cost sits on the main loop —
  the tests' reference path.
* ``shm`` — ``n_workers`` OS processes, each serving the surrogate object
  the server holds (a forked worker inherits it; under ``spawn`` it is
  pickled), on batches whose requests and predictions live in one
  shared-memory block per batch; each worker's pipe carries only block
  names (see :mod:`repro.serve.shm`, which owns the worker protocol).
  Inference then genuinely overlaps the main loop: the only wall-clock
  the main rank ever pays is the submit/collect bookkeeping, plus an
  *exposed wait* (recorded in :class:`ServiceMetrics`) when a prediction
  misses its return step.

Every prediction made on this process — a ``sync`` batch, or a lost
batch's recovery — goes through one method, :meth:`SurrogateServer
._predict_inline`, which encodes and decodes the responses as a worker's
are.  Because the Gibbs re-sampling is seeded per event
(:func:`repro.serve.wire.event_rng`) and every path runs the same
surrogate object, both transports — and any batch composition or worker
count — produce bit-identical predictions.

Fault tolerance
---------------

The ``shm`` pool follows the gravity helper's rule: a fault never crashes
the main rank and never changes a result, and nothing is retried.  A
worker that dies, misses :data:`BATCH_DEADLINE_S` (hung, or it dropped its
reply), sends a corrupt reply or raises in predict is killed and lost for
good; every batch it held comes back from the transport as a
:class:`WorkerLost` reply, and the server has one recovery for all of
them: the batch's pending events resolve *inline* on the main rank, from
the request buffers it keeps until a batch is absorbed, by the surrogate
the workers serve and with the same per-event seeds — bit-identical to
what the worker would have returned.  The surviving workers carry on.
With none left the service is *degraded*: all outstanding and future work
runs inline on the main rank and the run finishes.

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
    """The checkpoint's recipe for the surrogate of a run.

    ``kind="oracle"`` builds the analytic Sedov oracle; ``kind="model"``
    loads an exported U-Net through :class:`repro.ml.serialize
    .InferenceEngine` — the two pool-node deployments of Sec. 3.3.
    :meth:`GalaxySimulation.save <repro.core.simulation.GalaxySimulation
    .save>` writes it and ``restore`` builds the surrogate back from it;
    the server and its workers never see it.
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
    #: so a restored surrogate encodes/decodes exactly like the saved one.
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
        """The spec that builds this surrogate back, or ``ValueError``.

        Two deployments are derivable: the analytic Sedov oracle (exactly
        :class:`SedovBlastOracle`), and a trained exported model whose
        predictor remembers where it was loaded from (exactly
        :class:`repro.ml.serialize.InferenceEngine`, which records
        ``model_path``) — a checkpoint then names the export instead of
        holding every weight tensor.  A subclass of either may predict
        anything, so it has no spec.
        """
        from dataclasses import astuple

        from repro.ml.serialize import InferenceEngine
        from repro.surrogate.transforms import FieldTransform

        if type(surr.transform) is not FieldTransform:
            raise ValueError(
                "no derivable spec: the surrogate uses a custom transform "
                "object the spec cannot capture; pass the surrogate itself "
                "to restore(surrogate=...)"
            )
        transform = (
            None if surr.transform == FieldTransform()
            else astuple(surr.transform)
        )
        if type(surr.oracle) is SedovBlastOracle:
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
        if type(surr.predictor) is InferenceEngine and surr.predictor.model_path:
            return cls(
                kind="model",
                model_path=surr.predictor.model_path,
                n_grid=surr.n_grid,
                side=surr.side,
                gibbs_sweeps=surr.gibbs_sweeps,
                transform=transform,
            )
        raise ValueError(
            "no derivable spec: the surrogate is neither Sedov-oracle-backed "
            "nor backed by a plain InferenceEngine that records its model_path "
            "(load the export via InferenceEngine.load); pass the surrogate "
            "itself to restore(surrogate=...)"
        )


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
    """Batched inference over SN regions, on this process or on shm workers.

    Parameters
    ----------
    surrogate : the surrogate every prediction runs: this process's (every
        ``sync`` batch, and the inline recovery of a lost ``shm`` batch)
        and each ``shm`` worker's (inherited under ``fork``, pickled under
        ``spawn``) — one object, so every path returns the same bytes.
    transport : ``"sync"`` (no workers: batches are predicted on this
        process) or ``"shm"`` (worker processes over zero-copy
        shared-memory blocks, see :mod:`repro.serve.shm`).
    n_workers / max_batch / max_wait_steps : see module and
        :class:`BatchScheduler` docs.
    fault_plan : scripted failure injection for the workers — a
        :class:`~repro.serve.faults.FaultPlan`, its string form, or None to
        read ``REPRO_SERVE_FAULTS`` from the environment.
    tracer : the run's :class:`~repro.obs.trace.Tracer` (an untraced one by
        default).
    """

    def __init__(
        self,
        surrogate: SNSurrogate,
        transport: str = "sync",
        n_workers: int = 2,
        max_batch: int = 8,
        max_wait_steps: int = 1,
        fault_plan: FaultPlan | str | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.local_surrogate = surrogate
        self.transport_name = transport
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.metrics = ServiceMetrics(started_at=time.perf_counter())
        self.scheduler = BatchScheduler(
            max_batch=max_batch,
            max_wait_steps=max_wait_steps,
            metrics=self.metrics,
        )
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        elif isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        #: The worker pool; None for ``sync``, which has no workers.
        self._transport: _ShmTransport | None = None
        if transport == "shm":
            self._transport = _ShmTransport(
                surrogate, n_workers, metrics=self.metrics,
                fault_plan=fault_plan, tracer=self.tracer,
            )
        elif transport == "process":
            raise ValueError(
                "the 'process' transport is retired: use transport='shm' "
                "(the same worker pool; results are bit-identical)"
            )
        elif transport != "sync":
            raise ValueError(f"unknown transport {transport!r}")
        self._next_event_id = 0
        self._next_batch_id = 0
        self._events: dict[int, _Event] = {}     # event id -> outstanding event
        self._batches: dict[int, _Batch] = {}    # batch id -> batch in flight
        self._last_depth_sample_step: int | None = None
        #: Stops the workers on close() or collection, in this process
        #: only: a forked child's copy of the server owns no worker.
        self._finalizer = owner_finalizer(
            self, self._transport.close if self._transport is not None else lambda: None
        )

    @property
    def n_workers(self) -> int:
        """Worker processes started (0 for ``sync``)."""
        return 0 if self._transport is None else self._transport.n_workers

    @property
    def n_outstanding(self) -> int:
        """Events submitted but not yet handed back by :meth:`collect`."""
        return len(self._events)

    @property
    def degraded(self) -> bool:
        """True once the worker pool is abandoned and service runs inline."""
        return self._transport is not None and self._transport.degraded

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
        transport = self._transport
        if transport is not None and transport.degraded:
            # No live worker to send it to: resolve it inline right away.
            self._predict_inline(buffers, cause="service degraded: no live workers")
            return
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        worker_id = -1
        if transport is not None:
            self._batches[batch_id] = _Batch(buffers, self.tracer.now())
            worker_id = transport.dispatch(batch_id, buffers)
        self.tracer.instant(
            "serve.dispatch", cat="serve", batch=batch_id, events=len(buffers),
            worker=worker_id,
        )
        if transport is None:
            self._predict_inline(buffers, batch_id=batch_id)

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
        transport = self._transport
        if transport is None:
            return          # sync: every batch was predicted when it shipped
        tracer = self.tracer
        self._absorb(transport.poll())
        last_progress = tracer.now()
        while self._missing(step):
            self._check_timeouts(transport)
            if not self._missing(step):
                break
            if transport.degraded:
                # Every batch of the last lost worker came back as a
                # WorkerLost reply and resolved inline when it was absorbed.
                if step is not None and self._missing(step):
                    raise RuntimeError(
                        "due serve events unrecoverable: service degraded and "
                        "inline recovery did not produce them"
                    )
                break
            t0 = tracer.now()
            replies = transport.wait(self._wait_slice())
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
    def _check_timeouts(self, transport: _ShmTransport) -> None:
        """Lose the worker of each batch past the per-batch deadline; the
        batches it held, this one among them, resolve inline."""
        now = self.tracer.now()
        for bid in sorted(self._batches):
            batch = self._batches.get(bid)     # absorbed with an earlier one?
            if batch is not None and now - batch.dispatched_at > BATCH_DEADLINE_S:
                self.metrics.n_batch_timeouts += 1
                transport.expire_batch(bid)
                self._absorb(transport.poll())

    def _recover_batch(self, batch_id: int, cause: str) -> None:
        """Resolve a lost batch's events inline on the main rank (a lost
        worker delivered none of them)."""
        batch = self._batches.pop(batch_id, None)
        if batch is not None:
            self._predict_inline(batch.buffers, cause=cause)

    def _predict_inline(
        self, buffers: list[np.ndarray], batch_id: int = -1, cause: str | None = None,
    ) -> None:
        """Predict request buffers on this process: batch ``batch_id`` of
        ``sync``, or — given a ``cause`` — the recovery of a batch no worker
        can serve (its events count in ``n_fault_oracle``).

        The responses are encoded and decoded as a worker's are, by the
        surrogate object the workers serve, so they are the worker's bytes.
        """
        t0 = self.tracer.now()
        try:
            responses = [
                ServeResponse.from_buffer(r.to_buffer())
                for r in predict_responses(self.local_surrogate, buffers)
            ]
        except Exception as exc:
            if cause is None:
                raise
            raise RuntimeError(
                f"serve worker fault ({cause}) could not be recovered inline"
            ) from exc
        elapsed = self.tracer.now() - t0
        self.metrics.inline_predict_s += elapsed
        if cause is None:
            self.tracer.span_at(
                "serve.batch", t0, elapsed, cat="serve", tid="inline",
                batch=batch_id, events=len(buffers), busy_s=elapsed, worker=-1,
            )
        else:
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
            self.metrics.add_worker_busy(worker_id, busy_s)
            for response in payload:
                self._store_response(response)
            self.tracer.span_at(
                "serve.batch", batch.dispatched_at, self.tracer.now() - batch.dispatched_at,
                cat="serve", tid=f"worker-{worker_id}", batch=batch_id, events=len(payload),
                busy_s=busy_s, worker=worker_id,
            )

    def _store_response(self, response: ServeResponse) -> None:
        self.metrics.bytes_out += int(response.to_buffer().nbytes)
        self._events[response.event_id].response = response

    # ----------------------------------------------------------------- close
    def close(self) -> None:
        """Stop the workers; idempotent, and a no-op in a forked child
        holding a copy of this server."""
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
