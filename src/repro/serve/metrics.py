"""Service observability: what the inference service is doing, in numbers.

:class:`ServiceMetrics` is filled in by the server and scheduler as
requests flow through, and exports one versioned flat dict
(:meth:`ServiceMetrics.to_dict`) that traces attach, the benchmarks write
next to their timing rows and :func:`repro.perf.costmodel.serve_summary`
prices: queue depth, batch occupancy, per-event latency percentiles (in
global steps), worker busy time, and the wall-clock the main rank spent
*blocked* on a late prediction — the exposed (non-overlapped) part of the
DL time that the paper's Figs. 6–7 exclude because, ideally, it is zero.

Fault tolerance is observable here too: lost workers, inline fault
fallbacks, per-batch timeouts and worker exceptions all land in counters —
the serve recovery paths *count* faults, they never swallow them (the
``silent-except`` lint rule holds that line statically).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

#: Version stamp of the :meth:`ServiceMetrics.to_dict` export.  Consumers
#: (the run report, the cost model, archived ``BENCH_*.json`` rows) key on
#: it; bump on any rename/removal/semantic change of an exported field —
#: *adding* fields is compatible and needs no bump.  5: ``n_workers_lost``
#: counts every lost worker (a death, a missed deadline, a dropped or
#: corrupt reply, a raise in predict), not only the dead ones.
METRICS_SCHEMA_VERSION = 5


@dataclass
class ServiceMetrics:
    """Counters and samples accumulated over one server lifetime."""

    n_submitted: int = 0
    n_completed: int = 0
    n_batches: int = 0
    bytes_in: int = 0            # request buffers crossing to the workers
    bytes_out: int = 0           # response buffers crossing back
    #: Pending-queue depth sampled at every tick.
    queue_depth_samples: list[int] = field(default_factory=list)
    #: Events per flushed batch.
    batch_sizes: list[int] = field(default_factory=list)
    #: Per-event latency in global steps: collect step - dispatch step.
    latency_steps: list[int] = field(default_factory=list)
    #: Per-event steps spent waiting in the scheduler before the flush.
    flush_wait_steps: list[int] = field(default_factory=list)
    #: Seconds each worker spent inside the predictor.
    worker_busy_s: dict[int, float] = field(default_factory=dict)
    #: Wall seconds the *main* rank blocked waiting for a due prediction.
    exposed_wait_s: float = 0.0
    #: Wall seconds spent running predictions inline on the main rank
    #: (sync transport flushes, inline fault recovery).
    inline_predict_s: float = 0.0
    #: SNe that found every pool node busy and queued on the next one.
    n_overflow: int = 0
    #: Always 0: no path degrades an SN to the Sedov oracle any more.  Kept,
    #: with ``n_overflow``, because the end-to-end benchmark
    #: (``benchmarks/e2e/measure.py``) reads both into its fallback share.
    n_oracle_fallback: int = 0
    # --- fault tolerance (inline recovery) -----------------------------------
    #: Workers lost, whatever the fault (schema 5; dead ones only before);
    #: a lost worker is killed and never replaced.
    n_workers_lost: int = 0
    #: Always 0: nothing restarts a lost worker or re-dispatches a lost
    #: batch.  Kept, both, because the end-to-end benchmark
    #: (``benchmarks/e2e/measure.py``) reads them.
    n_worker_restarts: int = 0
    n_redispatch: int = 0
    #: Events resolved inline on the main rank by the fault fallback (the
    #: same surrogate the workers build, so results stay bit-identical).
    n_fault_oracle: int = 0
    #: In-flight batches that blew their per-batch deadline (hung worker or
    #: dropped reply); each loses its worker.
    n_batch_timeouts: int = 0
    #: Exceptions workers shipped back from predict; each loses its worker.
    n_worker_errors: int = 0
    #: True once the server gave up on its workers and went inline-only.
    degraded: bool = False
    # --- shm-transport accounting --------------------------------------------
    #: Requests dispatched zero-copy through a slot of their batch's block.
    n_shm_slot: int = 0
    #: Always 0: every request has a slot in its batch's block.  Kept, with
    #: ``n_shm_slot``, because the end-to-end benchmark
    #: (``benchmarks/e2e/measure.py``) reads both into its fallback share.
    n_shm_fallback: int = 0
    # --- wall-clock window for utilization ----------------------------------
    started_at: float | None = None
    stopped_at: float | None = None

    # ----------------------------------------------------------- accumulation
    def record_batch(self, size: int) -> None:
        self.n_batches += 1
        self.batch_sizes.append(int(size))

    def record_completion(self, dispatch_step: int, collect_step: int) -> None:
        self.n_completed += 1
        self.latency_steps.append(int(collect_step) - int(dispatch_step))

    def add_worker_busy(self, worker_id: int, seconds: float) -> None:
        self.worker_busy_s[worker_id] = (
            self.worker_busy_s.get(worker_id, 0.0) + float(seconds)
        )

    # -------------------------------------------------------------- summaries
    def batch_occupancy(self, max_batch: int) -> float:
        """Mean fill fraction of flushed batches (1.0 = always full)."""
        if not self.batch_sizes or max_batch <= 0:
            return 0.0
        return float(np.mean(self.batch_sizes)) / float(max_batch)

    def latency_percentiles(self) -> tuple[float, float]:
        """(p50, p95) event latency in global steps."""
        if not self.latency_steps:
            return (0.0, 0.0)
        arr = np.asarray(self.latency_steps, dtype=np.float64)
        return (float(np.percentile(arr, 50)), float(np.percentile(arr, 95)))

    def worker_utilization(self, n_workers: int = 0) -> float:
        """Mean busy fraction over *all* workers in the service window.

        ``n_workers`` is the pool size; workers that never received a batch
        contribute zero busy time, so they must count in the denominator —
        otherwise a 2-worker service fed entirely through worker 0 would
        report worker 0's busy fraction as the pool mean.
        """
        if not self.worker_busy_s or self.started_at is None:
            return 0.0
        stop = self.stopped_at if self.stopped_at is not None else time.perf_counter()
        if stop <= self.started_at:
            return 0.0
        window = stop - self.started_at
        denom = max(int(n_workers), len(self.worker_busy_s))
        return float(sum(self.worker_busy_s.values()) / (denom * window))

    def to_dict(self, max_batch: int = 0, n_workers: int = 0) -> dict:
        """The one export: every counter and summary, stamped with ``schema``.

        This is the shape attached to traces (``service_metrics`` meta) and
        consumed by :func:`repro.perf.costmodel.serve_summary` — the schema
        field lets archived exports be validated years later.  Safe at any
        point of the server's life: before it started, mid-flight and after
        a window whose start is past its stop.
        """
        p50, p95 = self.latency_percentiles()
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "n_submitted": self.n_submitted,
            "n_completed": self.n_completed,
            "n_batches": self.n_batches,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "mean_queue_depth": (
                float(np.mean(self.queue_depth_samples))
                if self.queue_depth_samples
                else 0.0
            ),
            "max_queue_depth": (
                int(max(self.queue_depth_samples)) if self.queue_depth_samples else 0
            ),
            "mean_batch_size": (
                float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0
            ),
            "batch_occupancy": self.batch_occupancy(max_batch),
            "latency_steps_p50": p50,
            "latency_steps_p95": p95,
            "mean_flush_wait_steps": (
                float(np.mean(self.flush_wait_steps)) if self.flush_wait_steps else 0.0
            ),
            "worker_busy_s": dict(self.worker_busy_s),
            "worker_utilization": self.worker_utilization(n_workers),
            "exposed_wait_s": self.exposed_wait_s,
            "inline_predict_s": self.inline_predict_s,
            "n_overflow": self.n_overflow,
            "n_oracle_fallback": self.n_oracle_fallback,
            "n_shm_slot": self.n_shm_slot,
            "n_shm_fallback": self.n_shm_fallback,
            "n_worker_restarts": self.n_worker_restarts,
            "n_redispatch": self.n_redispatch,
            "n_fault_oracle": self.n_fault_oracle,
            "n_batch_timeouts": self.n_batch_timeouts,
            "n_worker_errors": self.n_worker_errors,
            "n_workers_lost": self.n_workers_lost,
            "degraded": self.degraded,
        }
