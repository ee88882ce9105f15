"""The gravity helper: half of every tree pass in a second process.

Contracts: the split pass is bit-identical to ``tree_accel`` (the serial
reference); the cut partitions the groups in order and balances their
pairs; a helper that dies before or during a pass changes no byte of the
run and is reported once; ``close()`` leaves no process and no shared
segment; only a run whose engine does the gravity on a tree starts one.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GalaxySimulation
from repro.accel import ForceEngine
from repro.core.integrator import IntegratorConfig
from repro.fdps.interaction import InteractionCounter
from repro.gravity.treegrav import GroupTiles, split_point, tree_accel
from repro.ic.galaxy import make_mw_mini
from repro.obs.trace import Tracer
from repro.sn.turbulence import make_turbulent_box
from repro.util.timers import TimerRegistry

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
        timers=TimerRegistry(tracer=tracer or Tracer()),
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
    return Path("/dev/shm") / engine._helper._h.ring.name.lstrip("/")


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
    cut = split_point(tiles.costs)
    assert 0 < cut < tiles.n_groups
    rows = np.concatenate([tiles.rows(0, cut), tiles.rows(cut, tiles.n_groups)])
    assert np.array_equal(np.sort(rows), np.arange(len(ps)))


_costs = st.one_of(
    st.lists(st.integers(0, 10**9), max_size=80),
    st.lists(st.just(0), max_size=20),                                   # zeros
    st.integers(0, 10**12).map(lambda c: [c]),                           # one group
    st.tuples(                                                           # one dominant
        st.lists(st.integers(0, 100), max_size=20),
        st.integers(10**9, 10**12),
        st.lists(st.integers(0, 100), max_size=20),
    ).map(lambda t: [*t[0], t[1], *t[2]]),
)


@settings(max_examples=300, deadline=None)
@given(costs=_costs, share=st.one_of(st.just(0.5), st.floats(0.05, 0.95)))
def test_cut_partitions_groups_in_order_and_balances_pairs(costs, share):
    costs = np.asarray(costs, dtype=np.int64)
    cut = split_point(costs, share)
    n = len(costs)
    assert 0 <= cut <= n
    main, helper = list(range(cut)), list(range(cut, n))
    assert main + helper == list(range(n))
    total = int(costs.sum())
    largest = int(costs.max()) if n else 0
    main_pairs = int(costs[:cut].sum())
    if n > 1:
        assert 0 < cut < n                      # both processes have a run
    assert abs(main_pairs - (1.0 - share) * total) <= largest
    if share == 0.5:
        heavier = max(main_pairs, total - main_pairs)
        assert 2 * heavier - total <= 2 * largest


def test_rebalance_moves_the_share_toward_the_faster_process():
    ps = _ic("turbulent_box")
    engine = _engine(ps)
    helper = engine._helper
    try:
        assert helper.share == 0.5
        helper.rebalance(2.0, 1.0)              # the helper delivered half main's rate
        assert helper.share == pytest.approx(0.5 * (0.5 + 1 / 3))
        for _ in range(40):
            helper.rebalance(2.0, 1.0)
        assert helper.share == pytest.approx(1 / 3)
        helper.rebalance(0.0, 1.0)              # no measurement: no move
        assert helper.share == pytest.approx(1 / 3)
        for _ in range(40):
            helper.rebalance(1.0, 1e9)
        assert helper.share == 0.95
        ref = _serial(ps, engine.cfg)
        for share in (0.95, 0.05, 0.3):         # any cut: the same forces
            helper.share = share
            engine.index.invalidate_positions()
            assert np.array_equal(engine.gravity(ps, "1st"), ref.acc)
    finally:
        engine.close()


# ------------------------------------------------------------- helper loss
@pytest.mark.parametrize("when", ["between_passes", "after_go"])
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


def _mw_sim():
    return GalaxySimulation(make_mw_mini(4000, seed=1), dt=2e-3, n_pool=4, surrogate_grid=8,
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


def test_close_stops_the_helper_and_unlinks_its_block(serial_mw_run):
    sim = _mw_sim()
    segment = _segment(sim.integrator.engine)
    assert segment.exists()
    sim.run(6)
    assert sim.ps.pack().tobytes() == serial_mw_run
    assert LOST not in sim.tracer.counters
    _assert_closed(sim, segment)


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
    "kwargs",
    [
        {"coupled_force_mode": "distributed", "n_ranks": 2},
        {"config": IntegratorConfig(direct_gravity_below=10_000)},
        {"config": IntegratorConfig(self_gravity=False)},
    ],
    ids=["distributed", "direct", "no_self_gravity"],
)
def test_runs_that_do_not_walk_a_tree_here_start_no_child(kwargs):
    before = set(mp.active_children())
    with GalaxySimulation(make_mw_mini(2000, seed=2), dt=2e-3, n_pool=4, surrogate_grid=8,
                          **kwargs) as sim:
        assert set(mp.active_children()) == before
        assert sim.integrator.engine._helper is None
        sim.run(1)
        assert set(mp.active_children()) == before
