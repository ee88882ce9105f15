"""The gravity helper: a second process in every gravity pass.

Contracts: the shared tree pass is bit-identical to ``tree_accel`` (the
serial reference), also when both processes share one CPU; the claims from
both ends cover every group and evaluate at most one twice, under any
interleaving; a helper that dies before, during or after the SPH pass
changes no byte of the run and is reported once; a non-finite input, or
any exception between submit and collect, leaves no pass in flight;
``close()`` leaves no process and no shared segment; only a run whose
gravity walks a tree starts one.  The distributed rank pass, shared by
whole ranks, gives every rank the serial loop's ``acc`` and the same
interaction tally wherever the claims meet, and survives a killed helper.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GalaxySimulation
from repro.accel import ForceEngine
from repro.accel.gravity_helper import _HELPER_HI, _MAIN_LO, claim_down, claim_up
from repro.core.integrator import IntegratorConfig
from repro.core.runner import CoupledRunner
from repro.fdps.distributed import DistributedGravity
from repro.fdps.interaction import InteractionCounter
from repro.fdps.particles import ParticleType
from repro.gravity.treegrav import GroupTiles, tree_accel
from repro.ic.galaxy import make_mw_mini
from repro.obs.trace import Tracer
from repro.sn.turbulence import make_turbulent_box

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="the helper starts only on a host with two CPUs"
)

LOST = "accel.grav_helper_lost"


def _ic(kind: str):
    if kind == "mw_mini":
        return make_mw_mini(4000, seed=1)
    box = make_turbulent_box(n_per_side=13, side=60.0, mach=2.0, seed=4)
    return box.select(np.arange(2000))


def _engine(ps, tracer=None, **cfg):
    engine = ForceEngine(
        IntegratorConfig(**cfg),
        tracer=tracer or Tracer(),
        counter=InteractionCounter(),
    )
    assert engine.start_gravity_helper(len(ps))
    return engine


def _serial(ps, cfg, counter=None):
    return tree_accel(
        ps.pos, ps.mass, ps.eps, theta=cfg.theta, n_g=cfg.n_g,
        leaf_size=cfg.leaf_size, mixed_precision=cfg.mixed_precision, counter=counter,
    )


def _segment(engine) -> Path:
    return Path("/dev/shm") / engine._helper._ring.name.lstrip("/")


def _kill(pid: int) -> None:
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)   # dead, not yet reaped


def _assert_closed(owner, segment: Path) -> None:
    owner.close()
    assert not [c for c in mp.active_children() if c.name == "repro-gravity-helper"]
    assert not segment.exists()
    owner.close()                                         # a second close: no-op


# ----------------------------------------------------------------- boundary
@pytest.mark.parametrize("field", ["pos", "mass", "eps"])
def test_gravity_names_the_first_non_finite_row_before_shipping(field):
    ps = _ic("turbulent_box")
    engine = _engine(ps)
    try:
        values = getattr(ps, field)
        values[7] = np.nan
        values[9] = np.inf
        with pytest.raises(ValueError, match=rf"gravity input {field}\[7\] is not finite"):
            engine.gravity(ps, "1st")
        assert engine._helper._pass == 0                  # nothing went out
    finally:
        engine.close()


def _forces(integ):
    return [integ._grav_acc.copy(), integ._hydro_acc.copy(), integ._du_dt.copy(),
            integ._vsig.copy(), integ.ps.pack()]


def _assert_same_forces(integ, reference):
    assert all(np.array_equal(a, b) for a, b in zip(_forces(integ), reference, strict=True))


def _assert_no_pass_in_flight(engine):
    assert engine._pending is None
    assert not engine._helper._child._conn.poll(0)        # no answer owed or unread


@pytest.fixture(scope="module")
def serial_box_forces():
    """One force evaluation of the gas box on this process alone."""
    integ = CoupledRunner(_ic("turbulent_box"), None, 1)
    integ.engine.close()
    integ.compute_forces("1st")
    return _forces(integ)


def _box_integrator():
    integ = CoupledRunner(_ic("turbulent_box"), None, 1, tracer=Tracer())
    assert integ.engine.helper is not None
    return integ


@pytest.mark.parametrize("field", ["u", "h", "vel", "mass"])
def test_sph_inputs_are_checked_before_the_gravity_pass_ships(field, serial_box_forces):
    integ = _box_integrator()
    engine = integ.engine
    try:
        gas = np.flatnonzero(integ.ps.where_type(ParticleType.GAS))
        values = getattr(integ.ps, field)
        kept = values.copy()
        values[gas[7]] = np.nan
        values[gas[9]] = np.inf
        with pytest.raises(ValueError, match=rf"SPH input {field}\[{gas[7]}\] is not finite"):
            integ.compute_forces("1st")
        assert engine._helper._pass == 0                  # nothing went out
        _assert_no_pass_in_flight(engine)
        values[:] = kept
        integ.compute_forces("1st")
        _assert_same_forces(integ, serial_box_forces)
        assert integ.tracer.counters["accel.grav_split_passes"] == 1
    finally:
        engine.close()


def test_an_exception_between_submit_and_collect_leaves_no_pass_in_flight(serial_box_forces):
    integ = _box_integrator()
    engine = integ.engine
    hydro = engine.hydro

    def hydro_that_fails(*args):
        engine.hydro = hydro
        raise KeyboardInterrupt

    engine.hydro = hydro_that_fails
    try:
        with pytest.raises(KeyboardInterrupt):
            integ.compute_forces("1st")
        assert engine._helper._pass == 1                  # the pass went out ...
        _assert_no_pass_in_flight(engine)                 # ... and was cancelled
        integ.compute_forces("1st")
        _assert_same_forces(integ, serial_box_forces)
        assert integ.tracer.counters["accel.grav_split_passes"] == 1
        assert LOST not in integ.tracer.counters          # cancelled, not lost
    finally:
        engine.close()


# ------------------------------------------------------------- bit-identity
@pytest.mark.parametrize("mixed", [True, False])
@pytest.mark.parametrize("kind", ["mw_mini", "turbulent_box"])
def test_split_pass_is_bit_identical_to_tree_accel(kind, mixed):
    ps = _ic(kind)
    tracer = Tracer()
    engine = _engine(ps, tracer, mixed_precision=mixed)
    try:
        ref_counter = InteractionCounter()
        ref = _serial(ps, engine.cfg, ref_counter)
        for _ in range(2):              # a fresh tree, then the cached one
            assert np.array_equal(engine.gravity(ps, "1st"), ref.acc)
        assert tracer.counters["accel.grav_split_passes"] == 2
        assert LOST not in tracer.counters
        assert tracer.counters["accel.gravity_pairs"] == 2 * ref.interactions
        assert engine.counter.counts["gravity"] == 2 * ref_counter.counts["gravity"]
        assert engine.counter.mean_list_length("gravity") == ref_counter.mean_list_length(
            "gravity"
        )
        assert tracer.gauges["accel.grav_helper_busy_s"] > 0
    finally:
        engine.close()
    # The same engine after its helper is closed: the serial pass.
    assert np.array_equal(engine.gravity(ps, "1st"), ref.acc)


def test_the_two_runs_write_every_row_once():
    ps = _ic("mw_mini")
    cfg = IntegratorConfig()
    tree = ForceEngine(cfg).index.tree_for(ps.pos, ps.mass, leaf_size=cfg.leaf_size)
    tiles = GroupTiles.walk(tree, ps.pos, ps.eps, (ps.pos, ps.mass, ps.eps), n_g=cfg.n_g,
                            theta=cfg.theta)
    assert tiles.n_groups > 1
    for meet in range(tiles.n_groups + 1):       # wherever the claims meet
        rows = np.concatenate([tiles.rows(0, meet), tiles.rows(meet, tiles.n_groups)])
        assert np.array_equal(np.sort(rows), np.arange(len(ps)))


class _Header:
    """The two claim counters as both sides see them, in a model of the
    hardware: a side's publish sits in its store buffer, invisible to the
    other side, until it drains (in order, a few entries at a time)."""

    def __init__(self):
        self.visible = {_HELPER_HI: 0.0, _MAIN_LO: np.inf}
        self.buffered = {_HELPER_HI: [], _MAIN_LO: []}

    def drain(self, slot, k=None):
        pending = self.buffered[slot]
        k = len(pending) if k is None else min(k, len(pending))
        if k:
            self.visible[slot] = pending[k - 1]
            del pending[:k]

    def view(self, own):
        header = self

        class View:
            def __getitem__(self, slot):
                assert slot != own                        # a side reads only the other's
                return header.visible[slot]

            def __setitem__(self, slot, value):
                assert slot == own                        # ... and writes only its own
                header.buffered[slot].append(value)

        return View()


_SLOT = {"helper": _HELPER_HI, "main": _MAIN_LO}


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(0, 12),
    schedule=st.lists(
        st.tuples(st.sampled_from(["helper", "main", "drain helper", "drain main"]),
                  st.integers(1, 3)),
        max_size=60,
    ),
    bounded=st.booleans(),
)
def test_claims_from_both_ends_cover_every_group_and_meet_once(n, schedule, bounded):
    """Both claimers under any interleaving of their read / publish /
    evaluate steps, each read of the other side's counter any number of
    steps stale.  ``bounded`` adds what the hardware guarantees: a publish
    has drained by the time its side has evaluated the group (a tile is far
    more stores than a store buffer holds)."""
    header = _Header()
    claims = {"helper": claim_up(header.view(_HELPER_HI), n),
              "main": claim_down(header.view(_MAIN_LO), n)}
    evaluated = {"helper": [], "main": []}

    def step(side):
        if bounded:
            header.drain(_SLOT[side])     # its last evaluation is done
        g = next(claims[side], None)
        if g is None:
            del claims[side]
        else:
            evaluated[side].append(g)

    for action, k in schedule:
        if action in claims:
            step(action)
        elif action.startswith("drain"):
            header.drain(_SLOT[action.split()[1]], k)
    while claims:                         # both run to the end, alternating
        for side in list(claims):
            step(side)

    helper, main = evaluated["helper"], evaluated["main"]
    h, m = len(helper), n - len(main)
    assert helper == list(range(h))                       # [0, h), in order
    assert main == list(range(n - 1, m - 1, -1))          # [m, n), from the top
    assert h >= m                                         # every group covered
    if bounded:
        assert h - m <= 1                                 # at most one twice
    header.drain(_HELPER_HI)                              # what collect reads
    header.drain(_MAIN_LO)
    assert header.visible[_HELPER_HI] == h
    assert header.visible[_MAIN_LO] == (m if m < n else np.inf)


# ------------------------------------------------------------- helper loss
@pytest.mark.parametrize("when", ["between_passes", "after_go", "after_a_claim"])
def test_pass_survives_a_killed_helper(when, caplog):
    ps = _ic("mw_mini")
    tracer = Tracer()
    engine = _engine(ps, tracer)
    helper = engine._helper
    segment = _segment(engine)
    ref = _serial(ps, engine.cfg)
    assert np.array_equal(engine.gravity(ps, "1st"), ref.acc)
    if when == "between_passes":
        _kill(helper.pid)
    else:
        submit = helper.submit

        def submit_then_die(*args):
            pass_no = submit(*args)
            if when == "after_a_claim":         # its groups' rows never arrive
                header, deadline = helper._out(), time.monotonic() + 10
                while header[_HELPER_HI] < 1 and time.monotonic() < deadline:
                    pass
                assert header[_HELPER_HI] >= 1
            _kill(helper.pid)
            return pass_no

        helper.submit = submit_then_die
    with caplog.at_level(logging.WARNING, logger="repro.accel"):
        for _ in range(2):
            assert np.array_equal(engine.gravity(ps, "1st"), ref.acc)
    assert tracer.counters[LOST] == 1
    assert tracer.counters["accel.grav_split_passes"] == 1
    assert len([r for r in caplog.records if "gravity helper" in r.getMessage()]) == 1
    assert engine._helper is None
    _assert_closed(engine, segment)


def _kill_in_next_hydro_with_a_pass_out(engine):
    """SIGKILL the helper when main enters the SPH pass next while a tree
    pass is out (between submit and collect)."""
    hydro, helper = engine.hydro, engine._helper

    def kill_then_hydro(*args):
        if engine._pending is not None and engine._pending[0] is not None:
            engine.hydro = hydro
            _kill(helper.pid)
        return hydro(*args)

    engine.hydro = kill_then_hydro


def test_pass_survives_a_helper_killed_during_hydro(caplog):
    serial = CoupledRunner(_ic("turbulent_box"), None, 1)
    serial.engine.close()
    integ = _box_integrator()
    engine = integ.engine
    segment = _segment(engine)
    ref = _serial(integ.ps, integ.cfg).acc
    with caplog.at_level(logging.WARNING, logger="repro.accel"):
        for k in range(3):
            if k == 1:
                _kill_in_next_hydro_with_a_pass_out(engine)
            integ.compute_forces("1st")
            serial.compute_forces("1st")
            assert np.array_equal(integ._grav_acc, ref)
            _assert_same_forces(integ, _forces(serial))
    assert integ.tracer.counters[LOST] == 1
    assert integ.tracer.counters["accel.grav_split_passes"] == 1
    assert len([r for r in caplog.records if "gravity helper" in r.getMessage()]) == 1
    _assert_closed(engine, segment)


def test_a_starved_helper_claims_nothing_and_main_evaluates_every_group():
    """A helper that gets no CPU until main is done claims no group: main
    evaluates them all and waits only for the empty answer."""
    ps = _ic("mw_mini")
    tracer = Tracer()
    engine = _engine(ps, tracer)
    pid = engine._helper.pid
    ref = _serial(ps, engine.cfg)
    os.kill(pid, signal.SIGSTOP)                          # the go waits in the pipe
    resume = threading.Timer(0.5, os.kill, (pid, signal.SIGCONT))
    resume.start()
    try:
        assert np.array_equal(engine.gravity(ps, "1st"), ref.acc)
    finally:
        resume.join()
        engine.close()
    groups = tracer.gauges["accel.grav_groups"]
    assert groups > 1
    assert tracer.gauges["accel.grav_main_groups"] == groups
    assert tracer.gauges["accel.grav_helper_groups"] == 0
    assert tracer.counters["accel.grav_split_passes"] == 1 and LOST not in tracer.counters


def test_passes_on_one_shared_cpu_are_bit_identical():
    """Main and helper pinned to one CPU: the claims meet wherever the
    scheduler lets them, and every pass is still the serial one."""
    integ = _box_integrator()
    engine = integ.engine
    ref = _serial(integ.ps, integ.cfg).acc
    before = os.sched_getaffinity(0)
    cpu = {min(before)}
    try:
        os.sched_setaffinity(0, cpu)
        os.sched_setaffinity(engine._helper.pid, cpu)
        for _ in range(20):
            integ.compute_forces("1st")
            assert np.array_equal(integ._grav_acc, ref)
    finally:
        os.sched_setaffinity(0, before)
        engine.close()
    assert integ.tracer.counters["accel.grav_split_passes"] == 20
    assert LOST not in integ.tracer.counters


def _mw_sim():
    return GalaxySimulation(make_mw_mini(4000, seed=1), dt=2e-3, n_pool=4, surrogate_grid=8,
                            tracer=Tracer())


def _box_sim():
    return GalaxySimulation(_ic("turbulent_box"), dt=2e-3, n_pool=4, surrogate_grid=8,
                            tracer=Tracer())


@pytest.fixture(scope="module")
def serial_mw_run():
    """Six steps of the run with its helper closed at construction."""
    with _mw_sim() as sim:
        sim.integrator.engine.close()
        sim.run(6)
        return sim.ps.pack().tobytes()


@pytest.mark.parametrize("when", ["between_passes", "after_go"])
def test_run_survives_a_killed_helper(when, serial_mw_run, caplog):
    sim = _mw_sim()
    engine = sim.integrator.engine
    helper = engine._helper
    segment = _segment(engine)
    with caplog.at_level(logging.WARNING, logger="repro.accel"):
        sim.run(2)
        if when == "between_passes":
            _kill(helper.pid)
        else:
            submit = helper.submit

            def submit_then_die(*args):
                pass_no = submit(*args)
                _kill(helper.pid)
                return pass_no

            helper.submit = submit_then_die
        sim.run(4)
    assert sim.ps.pack().tobytes() == serial_mw_run
    assert sim.tracer.counters[LOST] == 1
    assert sim.tracer.counters["accel.grav_split_passes"] >= 2
    assert len([r for r in caplog.records if "gravity helper" in r.getMessage()]) == 1
    _assert_closed(sim, segment)


def test_gas_run_survives_a_helper_killed_during_hydro(caplog):
    with _box_sim() as serial:
        serial.integrator.engine.close()
        serial.run(6)
        reference = serial.ps.pack().tobytes()
    sim = _box_sim()
    engine = sim.integrator.engine
    segment = _segment(engine)
    with caplog.at_level(logging.WARNING, logger="repro.accel"):
        sim.run(2)
        _kill_in_next_hydro_with_a_pass_out(engine)
        sim.run(4)
    assert sim.ps.pack().tobytes() == reference
    assert sim.tracer.counters[LOST] == 1
    assert sim.tracer.counters["accel.grav_split_passes"] >= 2
    assert len([r for r in caplog.records if "gravity helper" in r.getMessage()]) == 1
    _assert_closed(sim, segment)


def test_close_stops_the_helper_and_unlinks_its_block(serial_mw_run):
    sim = _mw_sim()
    segment = _segment(sim.integrator.engine)
    assert segment.exists()
    sim.run(6)
    assert sim.ps.pack().tobytes() == serial_mw_run
    assert LOST not in sim.tracer.counters
    _assert_closed(sim, segment)


# ---------------------------------------------------------------- rank pass
@pytest.fixture(scope="module")
def rank_engine():
    """One engine whose helper every rank-pass example shares."""
    engine = ForceEngine(IntegratorConfig(), tracer=Tracer())
    assert engine.start_gravity_helper(4000)
    yield engine
    engine.close()


def _cloud(seed: int, n: int):
    ps = make_mw_mini(n, seed=seed)
    rng = np.random.default_rng(seed)
    ps.pos += rng.normal(scale=0.05, size=ps.pos.shape)
    return ps


def _rank_pass(ps, n_ranks, engine=None, tracer=None):
    """One distributed force pass of ``ps``; returns per-rank ``acc``, the
    counter's gravity tally and the DistributedGravity."""
    driver = DistributedGravity(n_ranks=n_ranks, tracer=tracer or Tracer())
    decomp, locals_ = driver.scatter(ps)
    counter = InteractionCounter()
    accs = driver.forces(locals_, decomp, counter=counter, engine=engine)
    return accs, counter.tally("gravity"), driver


def _force_helper_ranks(helper, k):
    """Make the next rank pass split at ``k``: main holds ``[k, n)`` before
    the ``go`` leaves, so the helper claims exactly ``[0, k)``."""
    send = helper._child.send

    def send_with_main_holding_k(msg):
        helper._out()[_MAIN_LO] = k
        send(msg)

    helper._child.send = send_with_main_holding_k
    helper.claims = lambda n: iter(range(n - 1, k - 1, -1))


@settings(max_examples=24, deadline=None)
@given(n_ranks=st.integers(1, 4), seed=st.integers(0, 2**16), n=st.integers(900, 2500),
       data=st.data())
def test_rank_pass_is_the_serial_rank_loop_whatever_the_helper_claims(
    rank_engine, n_ranks, seed, n, data,
):
    ps = _cloud(seed, n)
    k = data.draw(st.integers(0, n_ranks), label="helper ranks")
    ref_accs, ref_tally, _ = _rank_pass(ps, n_ranks)
    helper = rank_engine.helper
    _force_helper_ranks(helper, k)
    tracer = Tracer()
    try:
        accs, tally, driver = _rank_pass(ps, n_ranks, rank_engine, tracer)
    finally:
        del helper._child.send, helper.claims
    assert rank_engine.helper is helper                    # nothing was lost
    assert all(np.array_equal(a, b) for a, b in zip(accs, ref_accs, strict=True))
    assert tally == ref_tally
    assert tracer.gauges["accel.grav_helper_ranks"] == k
    assert (tracer.gauges["accel.grav_helper_busy_s"] > 0) == (k > 0)
    forced = [tracer.counts(cat="sim", rank=r).get("Calc_Force") for r in range(n_ranks)]
    assert forced == [1] * n_ranks                         # every rank timed once
    assert tracer.counters["accel.gravity_pairs"] == ref_tally[0]


@pytest.mark.parametrize("when", ["before_the_pass", "during_the_pass"])
def test_rank_pass_survives_a_killed_helper(when, caplog):
    ps = _cloud(3, 3000)
    ref_accs, ref_tally, _ = _rank_pass(ps, 3)
    tracer = Tracer()
    engine = ForceEngine(IntegratorConfig(), tracer=tracer)
    assert engine.start_gravity_helper(len(ps))
    helper = engine.helper
    segment = _segment(engine)
    if when == "before_the_pass":
        _kill(helper.pid)
    else:
        submit = helper.submit_ranks

        def submit_then_die(*args):
            pass_no = submit(*args)
            header, deadline = helper._out(), time.monotonic() + 10
            while header[_HELPER_HI] < 1 and time.monotonic() < deadline:
                pass
            assert header[_HELPER_HI] >= 1              # it holds rank 0 ...
            _kill(helper.pid)                           # ... and never delivers it
            return pass_no

        helper.submit_ranks = submit_then_die
    with caplog.at_level(logging.WARNING, logger="repro.accel"):
        for _ in range(3):
            accs, tally, _ = _rank_pass(ps, 3, engine)
            assert all(np.array_equal(a, b) for a, b in zip(accs, ref_accs, strict=True))
            assert tally == ref_tally
    assert tracer.counters[LOST] == 1
    assert len([r for r in caplog.records if "gravity helper" in r.getMessage()]) == 1
    assert engine.helper is None                           # every later pass alone
    engine.close()
    assert helper.pid not in {c.pid for c in mp.active_children()}
    assert not segment.exists()


def test_an_exception_in_mains_ranks_cancels_the_rank_pass(rank_engine):
    ps = _cloud(5, 3000)
    ref_accs, _, _ = _rank_pass(ps, 2)
    helper = rank_engine.helper
    driver = DistributedGravity(n_ranks=2)
    decomp, locals_ = driver.scatter(ps)
    rank_force = driver._rank_force

    def fails(*args):
        driver._rank_force = rank_force
        raise KeyboardInterrupt

    driver._rank_force = fails
    with pytest.raises(KeyboardInterrupt):
        driver.forces(locals_, decomp, engine=rank_engine)
    assert rank_engine.helper is helper                    # cancelled, not lost
    assert not helper._child._conn.poll(0)                 # no answer owed or unread
    accs, _, _ = _rank_pass(ps, 2, rank_engine)
    assert all(np.array_equal(a, b) for a, b in zip(accs, ref_accs, strict=True))


# ---------------------------------------------------------------- run modes
def test_restore_starts_its_own_helper_and_continues_bit_identically(tmp_path,
                                                                     serial_mw_run):
    with _mw_sim() as sim:
        sim.run(3)
        path = sim.save(tmp_path / "mid")
    restored = GalaxySimulation.restore(path, n_pool=4, surrogate_grid=8, tracer=Tracer())
    with restored:
        assert restored.integrator.engine._helper is not None
        restored.run(3)
        assert restored.ps.pack().tobytes() == serial_mw_run
        assert restored.tracer.counters["accel.grav_split_passes"] >= 3


@pytest.mark.parametrize(
    "kwargs, helpers",
    [
        ({"coupled_force_mode": "distributed", "n_ranks": 2}, 1),
        ({"config": IntegratorConfig(direct_gravity_below=10_000)}, 0),
        ({"config": IntegratorConfig(self_gravity=False)}, 0),
    ],
    ids=["distributed", "direct", "no_self_gravity"],
)
def test_runs_that_do_not_walk_a_tree_here_start_no_child(kwargs, helpers):
    """Direct summation and a run without self-gravity start no child; a
    distributed run starts exactly one, the helper its rank pass shares."""
    before = set(mp.active_children())
    with GalaxySimulation(make_mw_mini(2000, seed=2), dt=2e-3, n_pool=4, surrogate_grid=8,
                          **kwargs) as sim:
        started = set(mp.active_children()) - before
        assert len(started) == helpers
        assert (sim.integrator.engine.helper is not None) == bool(helpers)
        sim.run(1)
        assert set(mp.active_children()) - before == started
    assert set(mp.active_children()) == before
