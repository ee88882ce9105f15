"""SurrogateServer: transport parity, deadlines, metrics, lifecycle."""

import numpy as np
import pytest

from repro.core.integrator import IntegratorConfig
from repro.core.simulation import GalaxySimulation
from repro.fdps.particles import ParticleSet, ParticleType
from repro.perf.costmodel import serve_summary
from repro.serve import SurrogateServer, SurrogateSpec
from repro.sn.turbulence import make_turbulent_box
from repro.surrogate.model import SedovBlastOracle, SNSurrogate

N_WORKERS = 2  # the CI serve leg runs these tests with two worker processes


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


def _surr():
    return SNSurrogate(oracle=SedovBlastOracle(t_after=0.1), n_grid=8, side=60.0)


def _submit(server, k, step=0, return_step=5):
    return server.submit(
        _region(seed=k), np.zeros(3), star_pid=k,
        dispatch_step=step, return_step=return_step, base_seed=0,
    )


def test_sync_collect_respects_return_step():
    with SurrogateServer(surrogate=_surr(), transport="sync") as srv:
        _submit(srv, 0, step=0, return_step=5)
        for step in range(5):
            assert srv.collect(step) == []
        [res] = srv.collect(5)
        assert len(res.particles) == 40
        assert srv.n_outstanding == 0


@pytest.mark.parametrize("transport", ["shm"])
def test_worker_transport_bit_identical_to_sync(transport):
    """The acceptance criterion: >= 2 workers, identical bytes out."""
    reference = {}
    with SurrogateServer(surrogate=_surr(), transport="sync", max_batch=2) as srv:
        for k in range(5):
            _submit(srv, k)
        for res in srv.collect(5):
            reference[res.event_id] = res.particles
    with SurrogateServer(
        surrogate=_surr(), transport=transport, n_workers=N_WORKERS, max_batch=2
    ) as srv:
        for k in range(5):
            _submit(srv, k)
        srv.tick(0)  # ships two full batches to the workers immediately
        results = srv.collect(5)
        assert len(results) == 5
        for res in results:
            ref = reference[res.event_id]
            for name, arr in ref.data.items():
                assert np.array_equal(res.particles.data[name], arr), name


def test_spec_built_in_worker():
    spec = SurrogateSpec(kind="oracle", n_grid=8, side=60.0, t_after=0.1)
    with SurrogateServer(spec=spec, transport="shm", n_workers=1) as srv:
        _submit(srv, 3)
        [res] = srv.collect(5)
    with SurrogateServer(surrogate=_surr(), transport="sync") as sync:
        _submit(sync, 3)
        [ref] = sync.collect(5)
    assert np.array_equal(res.particles.pos, ref.particles.pos)


def test_spec_from_surrogate_roundtrip():
    spec = SurrogateSpec.from_surrogate(_surr())
    built = spec.build()
    assert built.n_grid == 8
    assert built.oracle.t_after == 0.1
    with pytest.raises(ValueError):
        SurrogateSpec.from_surrogate(SNSurrogate(predictor=lambda x: x, n_grid=8))


def _trained_model_path(tmp_path):
    """A quickly-trained, exported U-Net on the test grid."""
    from repro.ml.serialize import save_model
    from repro.ml.train import train_model
    from repro.ml.unet import UNet3D
    from repro.surrogate.training_data import build_dataset

    ds = build_dataset(4, base_seed=0, n_grid=8, n_per_side=8)
    net = UNet3D(in_channels=8, out_channels=5, base_channels=2, depth=1, seed=0)
    train_model(net, ds.inputs, ds.targets, epochs=2, lr=1e-3, val_fraction=0.25,
                seed=0)
    return save_model(net, tmp_path / "unet_export")


def test_spec_from_surrogate_derives_model_kind(tmp_path):
    """A predictor that remembers its export path yields a model spec."""
    from repro.ml.serialize import InferenceEngine

    path = _trained_model_path(tmp_path)
    engine = InferenceEngine.load(path)
    surr = SNSurrogate(predictor=engine, n_grid=8, side=60.0, gibbs_sweeps=4)
    spec = SurrogateSpec.from_surrogate(surr)
    assert spec.kind == "model"
    assert spec.model_path == str(path)
    assert spec.n_grid == 8 and spec.gibbs_sweeps == 4
    built = spec.build()
    x = np.random.default_rng(0).normal(size=(8, 8, 8, 8))
    assert np.array_equal(built.predictor(x), engine(x))


def test_spec_captures_custom_transform(tmp_path):
    """A non-default FieldTransform must survive the spec round trip."""
    from repro.ml.serialize import InferenceEngine
    from repro.surrogate.transforms import FieldTransform

    path = _trained_model_path(tmp_path)
    custom = FieldTransform(v_scale=5.0, rho_floor=1e-6)
    surr = SNSurrogate(
        predictor=InferenceEngine.load(path), n_grid=8, side=60.0,
        transform=custom,
    )
    spec = SurrogateSpec.from_surrogate(surr)
    assert spec.transform is not None
    built = spec.build()
    assert built.transform == custom
    # Default transforms stay implicit (old specs keep working).
    assert SurrogateSpec.from_surrogate(_surr()).transform is None
    # And the worker transport serves the custom transform bit-identically.
    with SurrogateServer(surrogate=surr, transport="sync") as srv:
        _submit(srv, 0)
        [ref] = srv.collect(5)
    with SurrogateServer(
        surrogate=surr, transport="shm", n_workers=1
    ) as srv:
        _submit(srv, 0)
        [res] = srv.collect(5)
    for name, arr in ref.particles.data.items():
        assert np.array_equal(res.particles.data[name], arr), name

    class _Opaque:
        def encode(self, fields):
            raise NotImplementedError

    with pytest.raises(ValueError):
        SurrogateSpec.from_surrogate(
            SNSurrogate(predictor=InferenceEngine.load(path), n_grid=8,
                        transform=_Opaque())
        )


def test_trained_model_bit_identical_across_all_transports(tmp_path):
    """train -> save_model -> spec(kind='model') -> identical predictions."""
    spec = SurrogateSpec(
        kind="model", model_path=str(_trained_model_path(tmp_path)),
        n_grid=8, side=60.0,
    )
    results = {}
    for transport in ("sync", "shm"):
        with SurrogateServer(
            spec=spec, transport=transport, n_workers=N_WORKERS, max_batch=2
        ) as srv:
            for k in range(4):
                _submit(srv, k)
            results[transport] = {
                res.event_id: res.particles for res in srv.collect(5)
            }
            assert len(results[transport]) == 4
    for eid, ref in results["sync"].items():
        for name, arr in ref.data.items():
            assert np.array_equal(results["shm"][eid].data[name], arr), name


def test_collect_all_drains_outstanding():
    with SurrogateServer(
        surrogate=_surr(), transport="shm", n_workers=N_WORKERS,
        max_batch=8,
    ) as srv:
        for k in range(3):
            _submit(srv, k, return_step=100)
        out = srv.collect_all()
        assert len(out) == 3
        assert srv.n_outstanding == 0


def test_metrics_populated():
    with SurrogateServer(surrogate=_surr(), transport="sync", max_batch=2) as srv:
        for k in range(4):
            _submit(srv, k)
        srv.collect(5)
        m = srv.metrics_dict()
    assert m["n_submitted"] == 4
    assert m["n_completed"] == 4
    assert m["n_batches"] == 2
    assert m["mean_batch_size"] == 2.0
    assert m["batch_occupancy"] == 1.0
    assert m["latency_steps_p50"] == 5.0
    assert m["bytes_in"] > 0 and m["bytes_out"] > 0
    assert m["inline_predict_s"] > 0  # sync executes on the caller's thread


def test_serve_summary_prices_sync_as_fully_exposed():
    with SurrogateServer(surrogate=_surr(), transport="sync") as srv:
        _submit(srv, 0)
        srv.collect(5)
        summary = serve_summary(srv.metrics_dict())
    assert summary["inference_total_s"] > 0
    assert summary["overlap_efficiency"] == 0.0


def test_serve_summary_prices_overlap():
    with SurrogateServer(
        surrogate=_surr(), transport="shm", n_workers=N_WORKERS
    ) as srv:
        for k in range(4):
            _submit(srv, k, return_step=5)
        srv.tick(1)
        # Wait until the workers are actually done before collecting, so no
        # exposed wait is charged and the run prices as fully overlapped.
        out = srv.collect_all()
        summary = serve_summary(srv.metrics_dict())
    assert len(out) == 4
    assert summary["inference_total_s"] > 0
    assert summary["overlap_efficiency"] > 0.9


def test_close_is_idempotent():
    srv = SurrogateServer(surrogate=_surr(), transport="shm", n_workers=1)
    _submit(srv, 0)
    srv.collect(5)
    srv.close()
    srv.close()


def test_requires_surrogate_or_spec():
    with pytest.raises(ValueError):
        SurrogateServer()
    with pytest.raises(ValueError):
        SurrogateServer(surrogate=_surr(), transport="smoke-signals")


def test_retired_process_transport_points_to_shm():
    with pytest.raises(ValueError, match="'shm'"):
        SurrogateServer(surrogate=_surr(), transport="process")


@pytest.mark.parametrize("transport", ["shm"])
def test_simulation_worker_transport_bit_identical_to_sync(transport):
    """End-to-end: a run with SN events, sync vs the worker transport."""

    def _run(transport):
        box = make_turbulent_box(n_per_side=6, side=60.0, mean_density=0.05,
                                 temperature=100.0, mach=2.0, seed=3)
        star = ParticleSet.empty(1)
        star.pos[:] = 0.0
        star.mass[:] = 20.0
        star.ptype[:] = int(ParticleType.STAR)
        star.pid[:] = 10_000_000
        star.tsn[:] = 0.004
        star.eps[:] = 1.0
        cfg = IntegratorConfig(self_gravity=False, enable_cooling=False,
                               enable_star_formation=False)
        sim = GalaxySimulation(
            box.append(star), dt=2e-3, n_pool=4, latency_steps=3,
            surrogate_grid=8, seed=7, config=cfg,
            serve_transport=transport, serve_workers=N_WORKERS,
            serve_max_batch=2,
        )
        try:
            sim.run(8)
            assert sim.integrator.n_sn_events == 1
            assert sim.pool.summary()["n_returned"] == 1
            return sim.ps.copy()
        finally:
            sim.close()

    ps_sync = _run("sync")
    ps_worker = _run(transport)
    for name, arr in ps_sync.data.items():
        assert np.array_equal(ps_worker.data[name], arr), name
