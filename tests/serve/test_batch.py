"""BatchScheduler: full-batch and deadline flushing, metrics, validation."""

import numpy as np
import pytest

from repro.serve.batch import BatchScheduler
from repro.serve.metrics import ServiceMetrics


def _buf(event_id):
    b = np.zeros(13)
    b[2] = event_id
    return b


def _add(sched, event_id, step, return_step=None):
    sched.add(_buf(event_id), step, return_step if return_step is not None else step + 50)


def test_full_batch_flushes_immediately():
    s = BatchScheduler(max_batch=3, max_wait_steps=10)
    for k in range(3):
        _add(s, k, step=0)
    batches = s.due_batches(0)
    assert [len(b) for b in batches] == [3]
    assert s.queue_depth == 0


def test_burst_cuts_multiple_full_batches():
    s = BatchScheduler(max_batch=2, max_wait_steps=10)
    for k in range(5):
        _add(s, k, step=0)
    batches = s.due_batches(0)
    assert [len(b) for b in batches] == [2, 2]
    assert s.queue_depth == 1  # the tail waits for its deadline


def test_partial_batch_waits_until_deadline():
    s = BatchScheduler(max_batch=4, max_wait_steps=2)
    _add(s, 0, step=5)
    assert s.due_batches(5) == []
    assert s.due_batches(6) == []
    batches = s.due_batches(7)  # 5 + max_wait_steps
    assert [len(b) for b in batches] == [1]


def test_deadline_never_passes_return_step():
    # A request due back at step 6 must flush by step 5 even with a long
    # configured wait.
    s = BatchScheduler(max_batch=4, max_wait_steps=100)
    _add(s, 0, step=4, return_step=6)
    assert s.due_batches(4) == []
    assert [len(b) for b in s.due_batches(5)] == [1]


def test_deadline_pulls_remainder_along():
    s = BatchScheduler(max_batch=4, max_wait_steps=2)
    _add(s, 0, step=0)
    _add(s, 1, step=1)
    batches = s.due_batches(2)  # event 0's deadline; event 1 rides along
    assert [len(b) for b in batches] == [2]


def test_fifo_order_preserved():
    s = BatchScheduler(max_batch=2, max_wait_steps=0)
    for k in (7, 8, 9):
        _add(s, k, step=0)
    flat = [int(b[2]) for batch in s.due_batches(0) for b in batch]
    assert flat == [7, 8, 9]


def test_flush_all_drains_everything():
    s = BatchScheduler(max_batch=2, max_wait_steps=50)
    for k in range(3):
        _add(s, k, step=0)
    batches = s.flush_all()
    assert [len(b) for b in batches] == [2, 1]
    assert s.queue_depth == 0


def test_metrics_record_batches_and_waits():
    m = ServiceMetrics()
    s = BatchScheduler(max_batch=2, max_wait_steps=3, metrics=m)
    _add(s, 0, step=0)
    _add(s, 1, step=1)
    s.due_batches(1)  # full batch
    assert m.batch_sizes == [2]
    assert m.flush_wait_steps == [1, 0]
    assert m.batch_occupancy(max_batch=2) == 1.0


def test_validation():
    with pytest.raises(ValueError):
        BatchScheduler(max_batch=0)
    with pytest.raises(ValueError):
        BatchScheduler(max_batch=2, max_wait_steps=-1)
