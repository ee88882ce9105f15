"""Ablation benches for the design choices DESIGN.md calls out.

1. **pool sizing / latency** (Sec. 3.2's n_pool = latency rule): sweep the
   pool-node count at fixed SN rate and measure overflow;
2. **mixed precision** (Sec. 4.3): force accuracy of the relative-float32
   kernel vs float64 and vs a naive float32 cast;
3. **hierarchical vs shared timesteps** (Sec. 1): why individual timesteps
   do NOT rescue adaptive schemes — the global per-substep overhead caps
   the speedup regardless of how few particles sit in the deep bins;
4. **3-phase torus vs flat alltoallv** (Sec. 3.4): message-count reduction
   at p = 512 ranks.
"""

import numpy as np

from benchmarks.conftest import fmt_table
from repro.core.pool import PoolManager
from repro.fdps.comm import SimComm, TorusTopology
from repro.fdps.particles import ParticleSet, ParticleType
from repro.gravity.kernels import accel_between, accel_between_mixed
from repro.serve import SurrogateServer
from repro.sph.timestep import hierarchical_efficiency
from repro.surrogate.model import SedovBlastOracle, SNSurrogate


def _region(n=40, seed=0):
    rng = np.random.default_rng(seed)
    ps = ParticleSet.from_arrays(
        pos=rng.uniform(-25, 25, (n, 3)),
        mass=np.full(n, 1.0),
        pid=np.arange(n),
        ptype=np.full(n, int(ParticleType.GAS)),
    )
    ps.u[:] = 25.0
    ps.h[:] = 8.0
    return ps


def test_ablation_pool_sizing(benchmark, write_result):
    """One SN per step for 100 steps: n_pool >= latency avoids overflow."""

    def _sweep():
        rows = []
        latency = 20
        for n_pool in (5, 10, 15, 20, 30):
            surr = SNSurrogate(oracle=SedovBlastOracle(), n_grid=8, side=60.0)
            mgr = PoolManager(
                server=SurrogateServer(surrogate=surr), n_pool=n_pool, latency_steps=latency
            )
            for step in range(100):
                mgr.dispatch(_region(seed=step % 3), np.zeros(3), step, 0.0, step)
                mgr.collect(step)
            rows.append([n_pool, latency, mgr.n_overflow])
        return rows

    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    write_result(
        "ablation_pool_sizing", fmt_table(["n_pool", "latency", "overflows"], rows)
    )
    by_pool = {r[0]: r[2] for r in rows}
    assert by_pool[20] == 0 and by_pool[30] == 0  # the paper's sizing rule
    assert by_pool[5] > by_pool[10] > 0           # undersized pools overflow


def test_ablation_mixed_precision(benchmark, write_result):
    """Sec. 4.3: relative-f32 keeps accuracy where naive f32 loses it."""

    def _measure():
        rng = np.random.default_rng(0)
        rows = []
        for offset in (0.0, 1e4, 1e6, 1e8):
            pos = rng.normal(0, 1.0, (200, 3)) + np.array([offset, 0.0, 0.0])
            mass = rng.uniform(0.5, 2.0, 200)
            eps = np.full(200, 0.05)
            ref = accel_between(pos, eps, pos, mass, eps, exclude_self=True)
            mixed = accel_between_mixed(pos, eps, pos, mass, eps, exclude_self=True)
            p32 = pos.astype(np.float32).astype(np.float64)
            naive = accel_between(p32, eps, p32, mass, eps, exclude_self=True)
            scale = np.linalg.norm(ref, axis=1).max()
            rows.append(
                [
                    offset,
                    float(np.abs(mixed - ref).max() / scale),
                    float(np.abs(naive - ref).max() / scale),
                ]
            )
        return rows

    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    write_result(
        "ablation_mixed_precision",
        fmt_table(["offset [pc]", "relative-f32 err", "naive-f32 err"], rows),
    )
    for _offset, err_mixed, _err_naive in rows:
        assert err_mixed < 1e-3  # group-relative f32 never degrades
    # Far from the origin the naive cast is catastrophically worse.
    assert rows[-1][2] > 100 * rows[-1][1]


def test_ablation_hierarchical_timesteps(benchmark, write_result):
    """Sec. 1: individual timesteps cannot beat the global-overhead ceiling."""

    def _model():
        rng = np.random.default_rng(1)
        rows = []
        for hot_fraction in (0.1, 0.01, 0.001, 0.0001):
            # Disk gas at dt_base; a hot SN tail 16x shorter.
            n = 100_000
            dts = np.full(n, 2.0e-3)
            n_hot = max(int(hot_fraction * n), 1)
            dts[:n_hot] = 2.0e-3 / 16.0
            out = hierarchical_efficiency(dts, dt_base=2.0e-3, fixed_overhead=0.3)
            rows.append(
                [hot_fraction, out["k_max"], out["speedup"], out["speedup_ceiling"]]
            )
        return rows

    rows = benchmark.pedantic(_model, rounds=1, iterations=1)
    write_result(
        "ablation_hierarchical",
        fmt_table(["hot fraction", "k_max", "speedup", "ceiling"], rows),
    )
    speedups = [r[2] for r in rows]
    ceiling = rows[0][3]
    # Speedup grows as the hot tail shrinks but saturates at the ceiling —
    # the reason the paper abandons hierarchical stepping for the surrogate.
    assert all(b >= a for a, b in zip(speedups, speedups[1:]))
    assert speedups[-1] <= ceiling + 1e-9
    assert speedups[-1] > 0.8 * ceiling


def test_ablation_torus_alltoallv(benchmark, write_result):
    """Sec. 3.4: 3-phase torus vs flat all-to-all at p = 512."""

    def _count():
        topo = TorusTopology((8, 8, 8))
        p = topo.n_ranks
        payload = np.ones(8)
        send = [[payload if s != d else None for d in range(p)] for s in range(p)]
        flat = SimComm(p, topology=topo)
        flat.alltoallv(send, label="alltoallv")
        routed = SimComm(p, topology=topo)
        routed.alltoallv_3d(send, label="alltoallv_3d")
        return (
            flat.stats["alltoallv"].n_messages,
            routed.stats["alltoallv_3d"].n_messages,
            flat.stats["alltoallv"].bytes_total,
            routed.stats["alltoallv_3d"].bytes_total,
        )

    n_flat, n_routed, b_flat, b_routed = benchmark.pedantic(
        _count, rounds=1, iterations=1
    )
    write_result(
        "ablation_torus_a2a",
        fmt_table(
            ["scheme", "messages", "bytes"],
            [["flat", n_flat, b_flat], ["3-phase torus", n_routed, b_routed]],
        ),
    )
    # p(p-1) = 261,632 messages flat vs <= 3 p (q-1) = 10,752 routed:
    # a 24x message reduction bought with <= 3x the forwarded bytes.
    assert n_flat == 512 * 511
    assert n_routed < n_flat / 20
    assert b_routed <= 3 * b_flat
