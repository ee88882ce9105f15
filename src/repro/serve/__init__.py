"""``repro.serve`` — asynchronous, batched surrogate-inference service.

The paper's headline performance claim (Sec. 3.1–3.2, Figs. 6–7) is that
SN surrogate inference runs on dedicated *pool* ranks, fully overlapped
with the main-node integration, so the DL time never touches the critical
path.  This package realizes that overlap in-process-tree form:

* :class:`SurrogateServer` — owns worker processes (or a deterministic
  in-process ``sync`` transport), a :class:`BatchScheduler` that coalesces
  in-flight SN regions into padded voxel batches with deadline-aware
  flushing, and a :class:`ServiceMetrics` ledger (queue depth, batch
  occupancy, p50/p95 latency in steps, worker utilization, exposed wait).
* :mod:`repro.serve.wire` — the packed-``FIELDS`` wire format every region
  and prediction crosses the transport in (documented there, field by
  field), whose exact byte counts the :class:`~repro.fdps.comm.SimComm`
  ledger charges.
* :class:`OverflowPolicy` — explicit backpressure (queue / block / spill /
  oracle) replacing the old silent overflow counter; no SN event is ever
  dropped without at least an oracle-fallback prediction.

:class:`repro.core.pool.PoolManager` is a thin client over this service;
``examples/serve_inference.py`` drives a standalone server,
``examples/serve_trained_unet.py`` serves a trained exported U-Net, and
``benchmarks/bench_serve_throughput.py`` / ``bench_shm_transport.py``
measure regions/s, overlap efficiency, and cross-transport parity.

Choosing a transport
--------------------

All three produce bit-identical predictions (per-event seeded Gibbs); they
differ only in *where* inference runs and *how* the payload bytes move:

========== ===================== ============================== =====================
transport  where inference runs  payload copy semantics         when to use
========== ===================== ============================== =====================
``sync``   caller's thread, at   none — buffers stay in          tests, debugging,
           flush time            process                         deterministic refs;
                                                                 inference is fully
                                                                 exposed on the main
                                                                 path
``process`` ``n_workers`` OS     pickled through a queue pipe,   overlap on small
           processes             twice per direction (request    payloads / toy
                                 out, response back)             grids; no shared
                                                                 memory available
``shm``    ``n_workers`` OS      zero-copy: one memmove into a   production regions
           processes             shared ring slot, worker        (the paper's 64^3
                                 decodes from and overwrites     serving path) —
                                 the slot in place; queues       pipe traffic is
                                 carry only slot indices         O(events), not
                                                                 O(bytes)
========== ===================== ============================== =====================

The ``SimComm`` ``pool_p2p`` ledger always charges the wire buffer's exact
``nbytes``, so the measured communication volume is transport-independent.

Failure modes and recovery
--------------------------

A long production run must treat the oracle fallback — not a crash — as
the worst case (the shared-ML-server deployments the paper line targets
run for days).  Under the default ``fault_mode="recover"`` the worker
transports survive every worker-side fault; the ``sync`` transport has no
workers and nothing to survive:

=================== ======================== ===============================
fault               detection                recovery
=================== ======================== ===============================
worker dies         ``is_alive`` edge in the supervisor restarts it from the
(crash, OOM, kill)  supervision pass; the    picklable recipe with capped
                    claim row attributes the exponential backoff; the lost
                    batch it held            batch re-dispatches from the
                                             in-flight request registry
worker hangs        per-batch timeout        batch re-dispatches; the hung
                    (``SupervisionConfig     worker's shm leases park as
                    .batch_timeout_s``)      zombies until provably released
response dropped    per-batch timeout        same as a hang
response corrupt    :class:`~repro.serve     batch re-dispatches; events the
                    .wire.WireFormatError`   good buffers covered are kept
                    at decode                (idempotent)
worker raises       exception row on the     events resolve *inline* on the
in predict          result queue             main rank (request-dependent
                                             faults would recur on retry)
repeated failures   ``max_consecutive_       service *degrades*: all work
                    failures`` per worker;   runs inline on the main rank
                    every slot abandoned     and the run still finishes
=================== ======================== ===============================

Re-dispatched requests keep their original ``dispatch_step``, so the
per-event RNG — and therefore the prediction bytes — are unchanged: a run
with injected worker kills finishes **bit-identical** to a fault-free run,
with the recoveries visible only in :class:`ServiceMetrics`
(``n_worker_restarts``, ``n_redispatch``, ``n_fault_oracle``,
``n_slots_reclaimed``, ``n_batch_timeouts``, ``recovery_s``).
``fault_mode="raise"`` disables all of this and surfaces the first fault
as an exception (debugging the workers themselves).  Faults are scripted
deterministically via :class:`FaultPlan` / ``REPRO_SERVE_FAULTS`` — see
:mod:`repro.serve.faults`, ``tests/serve/test_faults.py``, and
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
from repro.serve.policies import FaultMode, OverflowPolicy
from repro.serve.server import (
    SupervisionConfig,
    SurrogateServer,
    SurrogateSpec,
    WorkerLost,
    predict_batch_buffers,
)
from repro.serve.shm import SharedMemoryRing
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
    "FaultMode",
    "FaultPlan",
    "InjectedWorkerError",
    "OverflowPolicy",
    "ServeRequest",
    "ServeResponse",
    "ServiceMetrics",
    "SharedMemoryRing",
    "SupervisionConfig",
    "SurrogateServer",
    "SurrogateSpec",
    "WireFormatError",
    "WorkerLost",
    "event_rng",
    "predict_batch_buffers",
    "request_nfloats",
    "response_nfloats",
]
