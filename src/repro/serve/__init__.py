"""``repro.serve`` — asynchronous, batched surrogate-inference service.

The paper's headline performance claim (Sec. 3.1–3.2, Figs. 6–7) is that
SN surrogate inference runs on dedicated *pool* ranks, fully overlapped
with the main-node integration, so the DL time never touches the critical
path.  This package realizes that overlap in-process-tree form:

* :class:`SurrogateServer` — owns worker processes (or a deterministic
  in-process ``sync`` transport), a :class:`BatchScheduler` that coalesces
  in-flight SN regions into voxel batches with deadline-aware flushing, and
  a :class:`ServiceMetrics` ledger (queue depth, batch occupancy, p50/p95
  latency in steps, worker utilization, exposed wait).
* :mod:`repro.serve.wire` — the packed-``FIELDS`` wire format every region
  and prediction crosses the transport in (documented there, field by
  field), whose exact byte counts the :class:`~repro.fdps.comm.SimComm`
  ledger charges.

:class:`repro.core.pool.PoolManager` is a thin client over this service;
``examples/serve_inference.py`` drives a standalone server,
``examples/serve_trained_unet.py`` serves a trained exported U-Net, and
``benchmarks/bench_serve_throughput.py`` / ``bench_shm_transport.py``
measure regions/s, overlap efficiency, and cross-transport parity.

Choosing a transport
--------------------

Both produce bit-identical predictions (per-event seeded Gibbs); they
differ only in *where* inference runs and *how* the payload bytes move:

========== ===================== ============================== =====================
transport  where inference runs  payload copy semantics         when to use
========== ===================== ============================== =====================
``sync``   caller's thread, at   none — buffers stay in          tests, debugging,
           flush time            process                         deterministic refs;
                                                                 inference is fully
                                                                 exposed on the main
                                                                 path
``shm``    ``n_workers`` OS      zero-copy: one memmove into a   overlapped serving
           processes             slot of the batch's own shared  (the paper's pool
                                 block, worker decodes from and  nodes) — pipe
                                 overwrites the slot in place;   traffic is
                                 each worker's pipe carries      O(events), not
                                 only block names                O(bytes)
========== ===================== ============================== =====================

Under ``shm`` every dispatched batch gets its own shared-memory block with
one slot per request, sized to the batch's largest request; a response
never outgrows its request, so every event travels zero-copy and there is
no size to tune.  The block
(:class:`~repro.util.shm.SharedMemoryRing`) and the rule that workers own
nothing they inherit live in :mod:`repro.util.shm`, the process toolkit
this package shares with the force engine's gravity helper;
:mod:`repro.serve.shm` is the worker protocol on top of it.  The
``SimComm`` ``pool_p2p`` ledger always charges the wire buffer's exact
``nbytes``, so the measured communication volume is transport-independent.

Failure modes and recovery
--------------------------

A long production run must treat inline recovery on the main rank — not a
crash — as the worst case (the shared-ML-server deployments the paper line
targets run for days).  The ``shm`` pool follows the gravity helper's
rule, and both are a :class:`~repro.util.shm.Child`: a fault costs main
rank time, never a result, and nothing is retried or restarted.  The
``sync`` transport has no workers and nothing to survive.  Each fault is
detected its own way:

=========================== ============================================
fault                       detection
=========================== ============================================
worker dies (crash, OOM,    its process sentinel or pipe EOF, seen while
kill)                       the server waits on every worker at once
worker hangs, or drops a    the per-batch deadline
reply                       (``server.BATCH_DEADLINE_S``)
response corrupt            :class:`~repro.serve.wire.WireFormatError`
                            when main decodes it
worker raises in predict    the exception comes back as its reply
=========================== ============================================

and recovered one way: the worker is killed and lost for good, *every*
batch it held resolves *inline* on the main rank from the request buffers
main keeps, no later batch is sent to it, and the other workers carry on.
With no worker left the service *degrades*: all work runs inline on the
main rank and the run still finishes.

Inline recovery decodes the original request buffers, whose
``dispatch_step`` seeds the per-event RNG, so the prediction bytes are
unchanged: a run with injected worker kills finishes **bit-identical** to
a fault-free run, with the recoveries visible only in
:class:`ServiceMetrics` (``n_workers_lost`` for every loss,
``n_batch_timeouts`` and ``n_worker_errors`` for two of its causes,
``n_fault_oracle`` for the events resolved inline).  Faults are
scripted deterministically via :class:`FaultPlan` / ``REPRO_SERVE_FAULTS``
— see :mod:`repro.serve.faults`, ``tests/serve/test_faults.py``, and
``benchmarks/bench_serve_faults.py``.

Coupled multi-rank runs: one server, many clients
-------------------------------------------------

In the paper's production topology every *main* rank submits its own SN
regions to the shared pool (Fig. 1); here the
:class:`~repro.core.runner.CoupledRunner` gives each simulated
rank its own :class:`~repro.core.pool.PoolManager` client of **one**
``SurrogateServer``.  Two server features exist for exactly that shape:

* ``submit(..., client=r)`` tags a request with its owner rank, and
  ``collect(step, client=r)`` / ``collect_all(client=r)`` deliver only
  that client's due predictions — while still *waiting* globally, so
  batches mixing several ranks' events flush exactly as they would for a
  single caller.  Event ids, batch composition and per-event seeds are
  assigned in submission order, which the coupled runner makes the global
  (= single-rank) dispatch order;
* a shared :class:`~repro.core.pool.PoolOccupancy` calendar arbitrates
  pool-node bookings across clients, so two ranks can never double-book a
  pool rank and the booking sequence is identical to a single-rank run.

The result is the contract ``tests/core/test_coupled.py`` enforces: an
``n_ranks > 1`` coupled run is byte-identical to the single-rank one, on
every transport.  ``benchmarks/bench_coupled_scaling.py`` measures what
the shared service costs and hides at scale.
"""

from repro.serve.batch import BatchScheduler
from repro.serve.faults import Fault, FaultInjector, FaultPlan, InjectedWorkerError
from repro.serve.metrics import ServiceMetrics
from repro.serve.server import SurrogateServer, SurrogateSpec, predict_batch_buffers
from repro.serve.shm import WorkerLost
from repro.serve.wire import (
    ServeRequest,
    ServeResponse,
    WireFormatError,
    event_rng,
    request_nfloats,
    response_nfloats,
)

__all__ = [
    "BatchScheduler",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "InjectedWorkerError",
    "ServeRequest",
    "ServeResponse",
    "ServiceMetrics",
    "SurrogateServer",
    "SurrogateSpec",
    "WireFormatError",
    "WorkerLost",
    "event_rng",
    "predict_batch_buffers",
    "request_nfloats",
    "response_nfloats",
]
