"""Checkpoint/restore: a restored run continues bit-identically.

``GalaxySimulation.restore`` reconstructs the integrator clock,
``next_pid``, the SN/SF counters, the SF RNG state, the run mode
(``n_ranks`` / torus / force mode) and the stored force arrays, so save ->
restore -> step matches an uninterrupted run exactly — on every ``n_ranks``.
"""

import logging
import os
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.integrator import IntegratorConfig
from repro.core.simulation import GalaxySimulation
from repro.fdps.io import load_checkpoint, load_snapshot, save_snapshot
from repro.fdps.particles import ParticleSet, ParticleType
from repro.sn.turbulence import make_turbulent_box
from repro.surrogate.model import SNSurrogate
from repro.util.constants import SN_ENERGY
from tests.conftest import HotSedovOracle


def _ic(with_star=True, seed=5, second_tsn=None):
    box = make_turbulent_box(n_per_side=6, side=60.0, mean_density=0.05,
                             temperature=100.0, mach=2.0, seed=seed)
    if not with_star:
        return box
    n_stars = 1 if second_tsn is None else 2
    star = ParticleSet.empty(n_stars)
    star.pos[:] = 0.0               # on the 2-rank cut: regions pull ghosts
    star.mass[:] = 20.0
    star.ptype[:] = int(ParticleType.STAR)
    star.pid[:] = 10_000_000 + np.arange(n_stars)
    star.tsn[0] = 0.003  # explodes at step 2, returns at step 4 (< save step)
    if second_tsn is not None:
        star.pos[1] = [4.0, -3.0, 2.0]
        star.tsn[1] = second_tsn
    star.eps[:] = 1.0
    return box.append(star)


def _sim(ps, self_gravity=False, **kw):
    # With self-gravity every pass walks a tree (direct_gravity_below=0),
    # so a run on two CPUs starts its gravity helper.
    cfg = IntegratorConfig(self_gravity=self_gravity, enable_cooling=True,
                           enable_star_formation=True, direct_gravity_below=0)
    return GalaxySimulation(ps, dt=2e-3, n_pool=4, latency_steps=2,
                            surrogate_grid=8, seed=11, config=cfg, **kw)


@pytest.mark.parametrize(
    "n_ranks, transport, faults, force_mode",
    [
        (1, "sync", None, "global"),
        (2, "sync", None, "global"),
        (1, "shm", None, "global"),
        (1, "shm", "kill@w0:b1", "global"),
        (2, "sync", None, "distributed"),
    ],
    ids=["1", "2", "shm", "shm_faults", "2_distributed"],
)
def test_save_restore_step_matches_uninterrupted(
    tmp_path, monkeypatch, n_ranks, transport, faults, force_mode
):
    """Mid-flight save -> restore -> continue == uninterrupted, by bytes.

    The first star's prediction lands before the save; the second star's
    (dispatched at step 5, due back at step 7) is in flight at the save at
    step 6 — on a worker, under shm.  A checkpoint drops in-flight
    predictions and re-fires their SNe on the first step after the restore,
    so the uninterrupted reference is the run whose second star is due at
    step 6.  The restored run is on the saved transport again.  With
    ``faults`` every run's one worker is killed by the injected plan, and
    the restored run must predict inline without it and still end on the
    same bytes.
    """
    path = tmp_path / "ckpt.npz"
    kw = {"n_ranks": n_ranks, "serve_transport": transport}
    if force_mode == "distributed":
        # Self-gravity through the per-rank trees and LET, whole ranks
        # shared with the helper.
        kw.update(coupled_force_mode="distributed", self_gravity=True)
    if faults is not None:
        monkeypatch.setenv("REPRO_SERVE_FAULTS", faults)
        kw["serve_workers"] = 1
    straight = _sim(_ic(second_tsn=0.0125), **kw)
    first = _sim(_ic(second_tsn=0.011), **kw)
    resumed = None
    try:
        straight.run(10)
        first.run(6)
        assert first.server.n_outstanding == 1
        first.save(path)
        first.close()
        resumed = GalaxySimulation.restore(path)
        assert resumed.integrator.n_ranks == n_ranks
        assert resumed.integrator.force_mode == force_mode
        if force_mode == "distributed" and (os.cpu_count() or 1) >= 2:
            assert resumed.integrator.engine.helper is not None
        assert resumed.server.transport_name == transport
        assert resumed.step_count == 6
        assert resumed.time == first.time
        resumed.run(4)

        assert resumed.step_count == straight.step_count
        assert resumed.time == straight.time
        assert resumed.ps.pack().tobytes() == straight.ps.pack().tobytes()
        assert resumed.integrator.n_sn_events == straight.integrator.n_sn_events == 2
        assert resumed.integrator.n_sf_events == straight.integrator.n_sf_events
        assert resumed.integrator.next_pid == straight.integrator.next_pid
        if faults is not None:
            m = resumed.server.metrics
            assert m.n_workers_lost == 1 and m.n_fault_oracle > 0
        if force_mode == "distributed" and (os.cpu_count() or 1) >= 2:
            assert resumed.integrator.engine.helper is not None     # never lost
    finally:
        for sim in (straight, first, resumed):
            if sim is not None:
                sim.close()


def test_restore_rebuilds_counters_and_rng(tmp_path):
    path = tmp_path / "ckpt.npz"
    sim = _sim(_ic())
    sim.run(5)
    sim.integrator.next_pid = 123456  # make the value distinctive
    sim.save(path)

    back = GalaxySimulation.restore(path)
    assert back.step_count == 5
    assert back.integrator.next_pid == 123456
    assert back.integrator.n_sn_events == sim.integrator.n_sn_events
    assert back.integrator.n_sf_events == sim.integrator.n_sf_events
    assert back.pool.n_pool == 4
    assert back.pool.latency_steps == 2
    assert back.integrator.cfg.dt == sim.integrator.cfg.dt
    # The SF generator continues from the saved state, not from the seed.
    assert (
        back.integrator.rng.bit_generator.state
        == sim.integrator.rng.bit_generator.state
    )
    assert back.integrator._first_forces_done


def test_restore_rebuilds_run_mode(tmp_path):
    path = tmp_path / "ckpt.npz"
    sim = _sim(_ic(), n_ranks=2, use_torus=True, coupled_force_mode="distributed")
    sim.run(2)
    sim.save(path)
    back = GalaxySimulation.restore(path)
    assert back.integrator.n_ranks == 2
    assert back.integrator.driver.use_torus
    assert back.integrator.force_mode == "distributed"
    back.run(1)  # must not raise


#: The integrator config a checkpoint carried before the one-host change
#: (``n_domains`` is gone since).
_OLD_CONFIG = {
    "dt": 2e-3, "theta": 0.5, "n_ngb": 32, "courant": 0.3, "n_g": 256,
    "leaf_size": 16, "direct_gravity_below": 800,
    "mixed_precision": True, "self_gravity": False,
    "enable_cooling": True, "enable_star_formation": True,
    "region_side": 60.0, "latency_steps": 2, "n_pool": 4,
    "n_domains": 0, "seed": 11, "backend": None,
}
_CONFIG = {k: v for k, v in _OLD_CONFIG.items() if k != "n_domains"}
_SERVE = {"transport": "sync", "n_workers": 1, "max_batch": 8}
#: The meta of such a checkpoint: no rank keys.
_OLD_META = {
    "n_sn_events": 1,
    "n_sf_events": 0,
    "next_pid": 10_000_001,
    "dt": 2e-3,
    "n_pool": 4,
    "latency_steps": 2,
    "seed": 11,
    "integrator_config": _OLD_CONFIG,
    "overflow_policy": "queue",
    "serve": {**_SERVE, "max_wait_steps": 1},
    "surrogate_spec": {"kind": "oracle", "n_grid": 8, "side": 60.0,
                       "gibbs_sweeps": 8, "t_after": 0.004,
                       "energy": SN_ENERGY, "t_floor": 10.0,
                       "model_path": None, "transform": None},
}

#: (what changed in the old meta — None deletes a key, the text each
#: warning names in order, the restored config fields).
OLD_SCHEMA_CASES = [
    ({}, ["n_domains"], {"self_gravity": False}),
    # No integrator_config at all: read from the top-level keys.
    ({"integrator_config": None}, [], {"self_gravity": True, "seed": 11}),
    ({"integrator_config": {**_CONFIG, "backend": "numba"}}, ["'numba'"],
     {"backend": None}),
    # Retired overflow policy and serve keys: the serve keys are ignored.
    ({"integrator_config": _CONFIG, "overflow_policy": "block",
      "serve": {**_SERVE, "max_wait_steps": 3, "shm_slots": 4,
                "shm_slot_particles": 512}},
     ["'block'"], {}),
    ({"integrator_config": _CONFIG, "serve": {**_SERVE, "transport": "process"}},
     ["'process'"], {}),
]


def test_restore_loads_old_schema_checkpoint(tmp_path, caplog):
    for i, (changes, named, config) in enumerate(OLD_SCHEMA_CASES):
        meta = {k: v for k, v in {**_OLD_META, **changes}.items() if v is not None}
        path = save_snapshot(_ic(), tmp_path / f"old{i}.npz", time=0.01, step=5,
                             extra_meta=meta)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            back = GalaxySimulation.restore(path)
        try:
            warnings = [
                r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING
            ]
            assert len(warnings) == len(named), (changes, warnings)
            for text, message in zip(named, warnings, strict=True):
                assert text in message
            assert back.integrator.n_ranks == 1
            assert back.pool.n_pool == 4 and back.pool.latency_steps == 2
            assert back.step_count == 5
            assert back.server.scheduler.max_wait_steps == 1
            for field_name, value in config.items():
                assert getattr(back.integrator.cfg, field_name) == value
            back.run(1)  # must not raise
        finally:
            back.close()


def _save_at_step_2(path, backend=None, serve=None):
    """A hand-written checkpoint at step 2: the star (tsn 0.003) is overdue,
    so the first step dispatches its SN and the prediction lands two steps
    later."""
    cfg = IntegratorConfig(self_gravity=False, enable_cooling=True,
                           enable_star_formation=True, dt=2e-3, n_pool=4,
                           latency_steps=2, seed=11)
    meta = {
        "n_sn_events": 0,
        "n_sf_events": 0,
        "next_pid": 10_000_001,
        "dt": 2e-3,
        "n_pool": 4,
        "latency_steps": 2,
        "seed": 11,
        "integrator_config": {**asdict(cfg), "backend": backend},
    }
    if serve is not None:
        meta["serve"] = serve
    return save_snapshot(_ic(), path, time=0.004, step=2, extra_meta=meta)


def test_restore_maps_retired_process_transport_to_shm(tmp_path, caplog):
    # A checkpoint written when the pickled-queue ``process`` transport
    # existed: it restores onto ``shm`` and steps exactly like ``sync``.
    path = _save_at_step_2(
        tmp_path / "process.npz",
        serve={"transport": "process", "n_workers": 2, "max_batch": 8, "max_wait_steps": 1},
    )
    with caplog.at_level(logging.WARNING):
        on_shm = GalaxySimulation.restore(path)
    on_sync = GalaxySimulation.restore(path, serve_transport="sync")
    try:
        assert "'process' is retired" in caplog.text
        assert on_shm.server.transport_name == "shm"
        assert on_shm.server.n_workers == 2
        on_shm.run(4)
        on_sync.run(4)
        assert on_shm.pool.summary()["n_returned"] == 1
        assert on_shm.integrator.n_sn_events == on_sync.integrator.n_sn_events == 1
        assert on_shm.ps.pack().tobytes() == on_sync.ps.pack().tobytes()
    finally:
        on_shm.close()
        on_sync.close()


def test_restore_maps_retired_backends_to_the_default(tmp_path, caplog):
    # A checkpoint written when the hand-written ``numba`` backend existed
    # restores onto the default backend and steps byte for byte like the
    # same checkpoint saved with ``backend`` None.
    with caplog.at_level(logging.WARNING):
        retired = GalaxySimulation.restore(_save_at_step_2(tmp_path / "numba.npz", "numba"))
    default = GalaxySimulation.restore(_save_at_step_2(tmp_path / "none.npz"))
    assert "backend 'numba' is retired" in caplog.text
    assert retired.integrator.cfg.backend is None
    retired.run(4)
    default.run(4)
    assert retired.integrator.n_sn_events == default.integrator.n_sn_events == 1
    assert retired.pool.summary()["n_returned"] == 1
    assert retired.ps.pack().tobytes() == default.ps.pack().tobytes()


def test_restore_accepts_overrides(tmp_path):
    path = tmp_path / "ckpt.npz"
    sim = _sim(_ic(with_star=False))
    sim.run(2)
    sim.save(path)
    back = GalaxySimulation.restore(path, n_pool=9, serve_max_batch=3)
    assert back.pool.n_pool == 9
    assert back.pool.latency_steps == 2            # still the saved one
    assert back.server.scheduler.max_batch == 3


def test_checkpoint_is_a_valid_plain_snapshot(tmp_path):
    # Older readers that only know (ps, header) still work on a checkpoint.
    path = tmp_path / "ckpt.npz"
    sim = _sim(_ic(with_star=False))
    sim.run(2)
    sim.save(path)
    ps, header = load_snapshot(path)
    assert len(ps) == len(sim.ps)
    assert header["step"] == 2
    state = load_checkpoint(path)
    assert set(state.arrays) == {"grav_acc", "hydro_acc", "du_dt", "vsig"}
    assert state.arrays["grav_acc"].shape == (len(ps), 3)


def test_simulation_checkpoint(tmp_path):
    # A plain snapshot reader can restart a run by hand from a checkpoint.
    box = make_turbulent_box(n_per_side=6, side=20.0, seed=1)
    cfg = IntegratorConfig(enable_cooling=False, enable_star_formation=False,
                           self_gravity=False)
    sim = GalaxySimulation(box, dt=1e-3, n_pool=3, config=cfg, surrogate_grid=8)
    sim.run(3)
    p = tmp_path / "ckpt.npz"
    sim.save(p)
    ps, header = load_snapshot(p)
    assert header["step"] == 3
    assert header["time"] == pytest.approx(3e-3)
    saved_cfg = header["extra"]["integrator_config"]
    assert saved_cfg["dt"] == pytest.approx(1e-3)
    assert "dt" not in header["extra"]            # saved once, in the config
    assert np.array_equal(np.sort(ps.pid), np.sort(sim.ps.pid))

    # Restarting from the checkpoint continues cleanly.
    sim2 = GalaxySimulation(ps, dt=saved_cfg["dt"], n_pool=3,
                            config=cfg, surrogate_grid=8)
    sim2.integrator.time = header["time"]
    sim2.integrator.step_count = header["step"]
    sim2.run(2)
    assert sim2.step_count == 5


def test_in_flight_sn_is_rescheduled_not_lost(tmp_path):
    # The prediction for an SN in flight at save time is dropped, but the
    # event itself must not be: the saved tsn is reset to the explosion
    # time and the restored run re-dispatches it as an overdue SN.
    path = tmp_path / "midflight.npz"
    cfg = IntegratorConfig(self_gravity=False, enable_cooling=False,
                           enable_star_formation=False)
    sim = GalaxySimulation(_ic(), dt=2e-3, n_pool=4, latency_steps=20,
                           surrogate_grid=8, seed=11, config=cfg)
    sim.run(4)  # SN dispatched at step 2, due back at step 22: in flight
    assert sim.pool.n_in_flight == 1
    sim.save(path)

    back = GalaxySimulation.restore(path)
    assert np.isfinite(back.ps.tsn[back.ps.pid == 10_000_000])[0]
    e_before = back.diagnostics()["thermal_energy"]
    back.run(1)  # overdue SN fires immediately
    assert back.integrator.n_sn_events == 1
    assert back.pool.n_in_flight == 1
    back.run(21)
    assert back.pool.summary()["n_returned"] == 1
    assert back.diagnostics()["thermal_energy"] > 100 * e_before


def test_restore_without_force_arrays_recomputes(tmp_path):
    # A checkpoint written before the first force pass has no arrays; the
    # restored run recomputes them on its first step.
    path = tmp_path / "fresh.npz"
    sim = _sim(_ic(with_star=False))
    sim.save(path)
    state = load_checkpoint(path)
    assert state.arrays == {}
    back = GalaxySimulation.restore(path)
    assert not back.integrator._first_forces_done
    back.run(1)  # must not raise


def test_checkpoint_carries_model_spec_for_exported_surrogate(tmp_path):
    """A trained-export surrogate now survives save/restore via its spec."""
    from repro.ml.serialize import save_model
    from repro.ml.unet import UNet3D

    net = UNet3D(in_channels=8, out_channels=5, base_channels=2, depth=1, seed=0)
    export = save_model(net, tmp_path / "ckpt_unet")
    sim = _sim(_ic(with_star=False), surrogate_model_path=export)
    sim.run(2)
    path = tmp_path / "ckpt_model.npz"
    sim.save(path)
    sim.close()

    _, header = load_snapshot(path)
    spec_meta = header["extra"]["surrogate_spec"]
    assert spec_meta is not None
    assert spec_meta["kind"] == "model"
    assert spec_meta["model_path"] == str(export)

    restored = GalaxySimulation.restore(path)
    try:
        surr = restored.pool.server.local_surrogate
        assert surr.predictor is not None
        assert surr.predictor.model_path == str(export)
        x = np.random.default_rng(0).normal(size=(8, 8, 8, 8))
        assert np.array_equal(surr.predictor(x), net.forward(x))
    finally:
        restored.close()


def test_checkpoint_of_an_oracle_subclass_saves_no_spec(tmp_path, caplog):
    # A SedovBlastOracle subclass predicts what no spec says: the checkpoint
    # holds no spec, and restore warns instead of putting the plain oracle
    # back in silence.
    surr = SNSurrogate(oracle=HotSedovOracle(t_after=0.1), n_grid=8, side=60.0)
    sim = _sim(_ic(with_star=False), surrogate=surr)
    sim.run(1)
    path = sim.save(tmp_path / "hot.npz")
    sim.close()

    _, header = load_snapshot(path)
    assert header["extra"]["surrogate_spec"] is None
    with caplog.at_level(logging.WARNING):
        restored = GalaxySimulation.restore(path)
    restored.close()
    assert "no serializable surrogate spec" in caplog.text


def test_restore_onto_an_exported_model_replaces_the_saved_spec(tmp_path):
    # The run saved a Sedov-oracle spec; surrogate_model_path replaces it
    # (on the saved grid) instead of clashing with it.
    from repro.ml.serialize import InferenceEngine, save_model
    from repro.ml.unet import UNet3D

    net = UNet3D(in_channels=8, out_channels=5, base_channels=2, depth=1, seed=0)
    export = save_model(net, tmp_path / "unet")
    sim = _sim(_ic(with_star=False))
    sim.run(2)
    path = sim.save(tmp_path / "ckpt.npz")

    restored = GalaxySimulation.restore(path, surrogate_model_path=export)
    try:
        surr = restored.server.local_surrogate
        assert isinstance(surr.predictor, InferenceEngine)
        assert surr.oracle is None
        assert surr.n_grid == 8
        restored.run(1)  # must not raise
    finally:
        restored.close()
