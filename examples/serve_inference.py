"""Standalone surrogate serving: many concurrent clients, one service.

Drives a :class:`repro.serve.SurrogateServer` outside any simulation — the
"pool nodes as a service" view: several simulated main-rank clients each
dispatch SN regions on their own cadence, the scheduler coalesces them
into batches, worker processes run the predictions overlapped, and every
client gets its results back within its latency window.  Prints the
service metrics (queue depth, batch occupancy, latency percentiles, worker
utilization) and the overlap summary of the perf cost model.

Run:  python examples/serve_inference.py
"""

import time

import numpy as np

from repro.fdps.particles import ParticleSet, ParticleType
from repro.perf.costmodel import serve_summary
from repro.serve import SurrogateServer
from repro.surrogate.model import SedovBlastOracle, SNSurrogate

N_CLIENTS = 4          # simulated main ranks
N_STEPS = 24           # global steps driven by each client
LATENCY_STEPS = 8      # prediction horizon in steps
SN_PERIOD = 4          # each client fires one SN every SN_PERIOD steps
MAIN_STEP_S = 0.02     # each step's "integration work" (wall-clock)


def make_region(n: int, seed: int) -> ParticleSet:
    """A random (60 pc)^3 gas region standing in for an SN neighborhood."""
    rng = np.random.default_rng(seed)
    ps = ParticleSet.from_arrays(
        pos=rng.uniform(-28, 28, (n, 3)),
        mass=rng.uniform(0.5, 2.0, n),
        pid=np.arange(n) + 100_000 * seed,
        ptype=np.full(n, int(ParticleType.GAS)),
    )
    ps.u[:] = rng.uniform(10, 60, n)
    ps.h[:] = 8.0
    return ps


def main() -> None:
    surrogate = SNSurrogate(oracle=SedovBlastOracle(t_after=0.1), n_grid=12, side=60.0)
    server = SurrogateServer(
        surrogate=surrogate, transport="shm", n_workers=2,
        max_batch=4, max_wait_steps=1,
    )
    print(f"server up: {server.n_workers} workers, "
          f"max batch {server.scheduler.max_batch}")

    received = 0
    with server:
        t0 = time.perf_counter()
        for step in range(N_STEPS + LATENCY_STEPS):
            # Each client fires on its own phase; requests from different
            # clients land in the same step and get coalesced.
            if step < N_STEPS:
                for client in range(N_CLIENTS):
                    if (step + client) % SN_PERIOD == 0:
                        server.submit(
                            make_region(60, seed=97 * step + client),
                            center=np.zeros(3),
                            star_pid=1000 * client + step,
                            dispatch_step=step,
                            return_step=step + LATENCY_STEPS,
                        )
            server.tick(step)
            time.sleep(MAIN_STEP_S)  # the clients' "integration work"
            for response in server.collect(step):
                received += 1
                assert response.return_step <= step
        wall = time.perf_counter() - t0

    metrics = server.metrics_dict()
    print(f"\n{metrics['n_submitted']} regions submitted, {received} "
          f"predictions returned in {wall:.2f} s wall")
    print(f"  mean queue depth   {metrics['mean_queue_depth']:.2f}")
    print(f"  batch occupancy    {metrics['batch_occupancy']:.2f}")
    print(f"  latency p50 / p95  {metrics['latency_steps_p50']:.0f} / "
          f"{metrics['latency_steps_p95']:.0f} steps")
    print(f"  worker utilization {metrics['worker_utilization']:.2f}")
    print(f"  exposed wait       {metrics['exposed_wait_s'] * 1e3:.1f} ms")

    summary = serve_summary(metrics)
    print("\noverlap summary (perf cost model):")
    for key, value in summary.items():
        print(f"  {key:22s} {value:.3f}")


if __name__ == "__main__":
    main()
