"""SNSurrogate.predict_batch: serial parity, order independence, padding."""

import numpy as np

from repro.core.pool import PoolManager
from repro.fdps.particles import ParticleSet, ParticleType
from repro.ml.unet import UNet3D
from repro.serve import SurrogateServer
from repro.serve.wire import event_rng
from repro.surrogate.model import SedovBlastOracle, SNSurrogate


def _region(n=30, seed=0):
    rng = np.random.default_rng(seed)
    ps = ParticleSet.from_arrays(
        pos=rng.uniform(-25, 25, (n, 3)),
        mass=np.full(n, 1.0),
        pid=np.arange(n) + 1000 * seed,
        ptype=np.full(n, int(ParticleType.GAS)),
    )
    ps.u[:] = 25.0
    ps.h[:] = 8.0
    return ps


def _oracle_surr():
    return SNSurrogate(oracle=SedovBlastOracle(t_after=0.1), n_grid=8, side=60.0)


def _unet_surr():
    net = UNet3D(in_channels=8, out_channels=5, base_channels=2, depth=1, seed=0)
    return SNSurrogate(predictor=net, n_grid=8, side=60.0)


def _events(n):
    return [(k, _region(seed=k), np.zeros(3)) for k in range(n)]


def test_batch_matches_serial_bit_for_bit():
    surr = _oracle_surr()
    events = _events(4)
    serial = [
        surr.predict_particles(r, c, event_rng(0, pid, 0)) for pid, r, c in events
    ]
    batched = surr.predict_batch(
        [r for _, r, _ in events],
        [c for _, _, c in events],
        [event_rng(0, pid, 0) for pid, _, _ in events],
    )
    for ref, got in zip(serial, batched):
        for name, arr in ref.data.items():
            assert np.array_equal(got.data[name], arr), name


def test_batch_order_independence():
    """Satellite regression: per-event seeding makes predictions invariant
    under dispatch/collect ordering."""
    surr = _oracle_surr()
    events = _events(3)
    fwd = surr.predict_batch(
        [r for _, r, _ in events], [c for _, _, c in events],
        [event_rng(0, pid, 0) for pid, _, _ in events],
    )
    rev = surr.predict_batch(
        [r for _, r, _ in reversed(events)], [c for _, _, c in reversed(events)],
        [event_rng(0, pid, 0) for pid, _, _ in reversed(events)],
    )
    for ref, got in zip(fwd, reversed(rev)):
        assert np.array_equal(got.pos, ref.pos)
        assert np.array_equal(got.u, ref.u)


def test_pool_collect_order_independence():
    """Same regression at the PoolManager level: two managers dispatching
    the same SNe in opposite orders produce identical per-star predictions
    (the old shared-RNG collect made them order-dependent)."""

    def run(order):
        m = PoolManager(
            server=SurrogateServer(surrogate=_oracle_surr()), n_pool=4, latency_steps=5, seed=0
        )
        for k in order:
            m.dispatch(_region(seed=k), np.zeros(3), star_pid=k, time=0.0, step=0)
        return {e.star_pid: p for e, p in m.collect(5)}

    a = run([0, 1, 2])
    b = run([2, 0, 1])
    assert set(a) == set(b)
    for pid in a:
        assert np.array_equal(a[pid].pos, b[pid].pos)
        assert np.array_equal(a[pid].vel, b[pid].vel)
        assert np.array_equal(a[pid].u, b[pid].u)


def test_empty_region_passes_through():
    surr = _oracle_surr()
    out = surr.predict_batch(
        [ParticleSet.empty(0), _region(seed=1)],
        [np.zeros(3), np.zeros(3)],
        [event_rng(0, 0, 0), event_rng(0, 1, 0)],
    )
    assert len(out[0]) == 0
    assert len(out[1]) == 30


def test_unet_batch_matches_serial():
    surr = _unet_surr()
    events = _events(3)
    serial = [
        surr.predict_particles(r, c, event_rng(0, pid, 0)) for pid, r, c in events
    ]
    batched = surr.predict_batch(
        [r for _, r, _ in events], [c for _, _, c in events],
        [event_rng(0, pid, 0) for pid, _, _ in events],
    )
    for ref, got in zip(serial, batched):
        assert np.array_equal(got.pos, ref.pos)
        assert np.array_equal(got.u, ref.u)
