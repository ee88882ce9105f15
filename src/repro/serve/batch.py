"""Request coalescing: in-flight SN regions -> voxel batches.

The scheduler holds encoded requests between :meth:`add` and the next
:meth:`due_batches` call and decides *when* to flush, trading batch
occupancy (bigger batches amortize the per-call overhead of the inference
engine) against deadline safety (every prediction must land within
``latency_steps`` of its dispatch).  Two triggers:

* **full** — as soon as ``max_batch`` requests are pending, a full batch is
  cut immediately (and repeatedly, when a burst queued several batches);
* **deadline** — a request never waits more than ``max_wait_steps`` global
  steps in the queue: once the oldest pending request reaches its flush
  deadline the whole remainder is flushed as one partial batch, so the
  prediction has the rest of its latency window to execute overlapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serve.metrics import ServiceMetrics


@dataclass
class _Pending:
    buffer: np.ndarray          # encoded ServeRequest
    enqueue_step: int
    flush_deadline: int         # latest step at which this request must ship


@dataclass
class BatchScheduler:
    """Deadline-aware batch coalescing over encoded serve requests."""

    max_batch: int = 8
    max_wait_steps: int = 1
    metrics: ServiceMetrics | None = None
    _pending: list[_Pending] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_steps < 0:
            raise ValueError("max_wait_steps must be >= 0")

    # ------------------------------------------------------------------ state
    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    def add(self, buffer: np.ndarray, step: int, return_step: int) -> None:
        """Queue one encoded request dispatched at ``step``.

        The flush deadline is ``step + max_wait_steps`` but never later than
        the step *before* the prediction is due back — a request that waited
        that long must ship even into an empty batch.
        """
        deadline = min(int(step) + self.max_wait_steps, int(return_step) - 1)
        self._pending.append(
            _Pending(
                buffer=buffer,
                enqueue_step=int(step),
                flush_deadline=max(deadline, int(step)),
            )
        )

    # ------------------------------------------------------------------ flush
    def due_batches(self, step: int) -> list[list[np.ndarray]]:
        """Cut every batch that must ship at ``step`` (FIFO order)."""
        batches: list[list[np.ndarray]] = []
        # Full batches first: a burst that queued >= max_batch ships now.
        while len(self._pending) >= self.max_batch:
            batches.append(self._cut(self.max_batch, step))
        # Deadline: the oldest pending request pulls the remainder along.
        if self._pending and any(p.flush_deadline <= step for p in self._pending):
            batches.append(self._cut(len(self._pending), step))
        return batches

    def flush_all(self, step: int) -> list[list[np.ndarray]]:
        """Unconditionally ship everything (drain/shutdown path)."""
        batches: list[list[np.ndarray]] = []
        while self._pending:
            batches.append(self._cut(min(self.max_batch, len(self._pending)), step))
        return batches

    def _cut(self, size: int, step: int) -> list[np.ndarray]:
        taken, self._pending = self._pending[:size], self._pending[size:]
        if self.metrics is not None:
            self.metrics.record_batch(len(taken))
            for p in taken:
                self.metrics.flush_wait_steps.append(int(step) - p.enqueue_step)
        return [p.buffer for p in taken]
