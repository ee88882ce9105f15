"""The process toolkit both child kinds share: the gravity helper and the
shm serve workers are one :class:`Child` each, lost by one rule and reaped
by one function, and an inherited handle's ``close()`` in a forked child
leaves the owner's processes and rings alone."""

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.accel import ForceEngine
from repro.core.integrator import IntegratorConfig
from repro.fdps.interaction import InteractionCounter
from repro.fdps.particles import ParticleSet, ParticleType
from repro.gravity.treegrav import tree_accel
from repro.ic.galaxy import make_mw_mini
from repro.obs.trace import Tracer
from repro.serve import SurrogateServer
from repro.surrogate.model import SedovBlastOracle, SNSurrogate
from repro.util.shm import Child, ChildLost, SharedMemoryRing, process_context, stop_process


def _region(n=40, seed=0):
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


def _predictions(server, n_events=3, return_step=5):
    for k in range(n_events):
        server.submit(_region(seed=k), np.zeros(3), star_pid=k, dispatch_step=0,
                      return_step=return_step)
    server.tick(0)
    return {r.event_id: r.particles.pack().tobytes() for r in server.collect(return_step)}


def _surr():
    return SNSurrogate(oracle=SedovBlastOracle(t_after=0.1), n_grid=8, side=60.0)


def _close_inherited(helper, server):
    helper.close()
    server.close()


def test_close_in_a_forked_child_touches_nothing():
    ps = make_mw_mini(4000, seed=1)
    tracer = Tracer()
    engine = ForceEngine(IntegratorConfig(), tracer=tracer,
                         counter=InteractionCounter())
    assert engine.start_gravity_helper(len(ps))
    cfg = engine.cfg
    ref = tree_accel(ps.pos, ps.mass, ps.eps, theta=cfg.theta, n_g=cfg.n_g,
                     leaf_size=cfg.leaf_size, mixed_precision=cfg.mixed_precision)
    with SurrogateServer(surrogate=_surr(), transport="sync", max_batch=2) as sync:
        reference = _predictions(sync)
    server = SurrogateServer(surrogate=_surr(), transport="shm", n_workers=1, max_batch=2)
    helper = engine._helper
    try:
        ring = helper._ring
        child = process_context().Process(target=_close_inherited, args=(helper, server))
        child.start()
        child.join(30)
        assert child.exitcode == 0             # close() returned without error

        assert helper._child.proc.is_alive()
        assert list(server._transport._workers) == [0]
        assert server._transport._workers[0].proc.is_alive()
        assert server.metrics.n_workers_lost == 0
        # The helper's ring is still linked (the server keeps no segment
        # between batches: each batch has its own block).
        SharedMemoryRing(ring.n_slots, ring.slot_floats, name=ring.name).close()
        assert np.array_equal(engine.gravity(ps, "1st"), ref.acc)
        assert tracer.counters["accel.grav_split_passes"] == 1
        assert "accel.grav_helper_lost" not in tracer.counters
        assert _predictions(server) == reference
        assert server.metrics.n_workers_lost == 0
        assert server.metrics.n_shm_fallback == 0
    finally:
        engine.close()
        server.close()


def _sleep_forever():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(1.0)


def test_stop_process_reaps_an_exited_child_and_kills_a_stuck_one():
    ctx = process_context()
    done = ctx.Process(target=time.sleep, args=(0.0,))
    done.start()
    stop_process(done, grace_s=10.0)
    assert done.exitcode == 0

    stuck = ctx.Process(target=_sleep_forever)
    stuck.start()
    t0 = time.monotonic()
    stop_process(stuck, grace_s=0.2)
    assert stuck.exitcode == -signal.SIGKILL
    assert time.monotonic() - t0 < 5.0


def _double(msg):
    return None if msg == "quiet" else 2 * msg


def _doubler():
    """A handler: twice each message, and no reply to ``"quiet"``."""
    return _double


def test_a_child_answers_each_message_and_stops_on_close():
    child = Child(_doubler, name="repro-test-child")
    child.send(21)
    child.send("quiet")
    child.send(4)
    assert child.recv(10.0) == 42
    assert child.recv(10.0) == 8                  # "quiet" sent nothing
    child.close()
    assert child.proc.exitcode == 0               # asked to stop, not killed
    child.close()                                 # a second close: no-op


def test_a_killed_child_is_lost_at_once_not_at_its_deadline():
    child = Child(_doubler, name="repro-test-child")
    try:
        os.kill(child.pid, signal.SIGKILL)
        t0 = time.monotonic()
        with pytest.raises(ChildLost, match="died"):
            child.recv(30.0)                      # the sentinel fires
        assert time.monotonic() - t0 < 5.0
    finally:
        child.close()
    assert child.proc.exitcode == -signal.SIGKILL


def test_a_child_that_never_answers_is_killed_at_its_deadline_and_reaped_by_close():
    child = Child(_doubler, name="repro-test-child")
    child.send("quiet")
    t0 = time.monotonic()
    with pytest.raises(ChildLost, match=r"sent nothing within 0\.3 s"):
        child.recv(0.3)
    assert 0.3 <= time.monotonic() - t0 < 5.0
    t0 = time.monotonic()
    child.close()
    assert time.monotonic() - t0 < 2.0            # killed already: no grace to wait
    assert child.proc.exitcode == -signal.SIGKILL
    assert child.proc not in mp.active_children()
