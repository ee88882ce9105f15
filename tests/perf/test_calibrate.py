"""Cost-model calibration from measured backend-kernel throughput."""

import numpy as np
import pytest

from repro.fdps.interaction import OPS_PER_INTERACTION
from repro.perf.calibrate import (
    best_throughput,
    calibrate,
    calibrated_kernel_speed,
    calibration_factors,
    measured_gflops,
)
from repro.perf.kernels import kernel_speed_gflops
from repro.perf.machines import GENOA


def _synthetic_bench():
    kernels = {}
    for k, base in (("gravity", 4.0e7), ("hydro_density", 1.5e7), ("hydro_force", 8.0e6)):
        kernels[k] = {
            "numpy": {
                "5k": {"seconds": 0.1, "interactions": int(base * 0.08),
                       "inter_per_s": base * 0.8},
                "20k": {"seconds": 0.5, "interactions": int(base * 0.5),
                        "inter_per_s": base},
            }
        }
    return {"kernels": kernels}


def test_measured_gflops_uses_table4_ops():
    assert measured_gflops(1e9, "gravity") == pytest.approx(OPS_PER_INTERACTION["gravity"])
    assert measured_gflops(2e6, "hydro_force") == pytest.approx(
        2e6 * OPS_PER_INTERACTION["hydro_force"] / 1e9
    )


def test_best_throughput_picks_fastest_round():
    bench = _synthetic_bench()
    size, ips = best_throughput(bench, "gravity", "numpy")
    assert size == "20k"
    assert ips == pytest.approx(4.0e7)


def test_calibration_factors_roundtrip():
    bench = _synthetic_bench()
    rows = calibrate(bench, backend="numpy", proc=GENOA)
    assert {r.kernel for r in rows} == set(OPS_PER_INTERACTION)
    for row in rows:
        assert row.modeled_gflops == pytest.approx(
            kernel_speed_gflops(GENOA, row.kernel)
        )
        assert row.factor == pytest.approx(row.measured_gflops / row.modeled_gflops)
        # model x factor == measurement: the calibrated speed is anchored.
        assert calibrated_kernel_speed(bench, row.kernel) == pytest.approx(
            row.measured_gflops
        )
    factors = calibration_factors(bench)
    assert factors == {r.kernel: pytest.approx(r.factor) for r in rows}


def test_missing_backend_yields_no_rows():
    assert calibrate(_synthetic_bench(), backend="pikg") == []


def test_calibrate_real_bench_output(tmp_path):
    """End-to-end against a real (tiny) benchmark measurement."""
    from repro.accel.backends import get_backend
    from repro.fdps.interaction import InteractionCounter
    from repro.sn.turbulence import make_turbulent_box
    from repro.sph.density import compute_density
    import time

    ps = make_turbulent_box(n_per_side=8, side=20.0, mean_density=0.05,
                            temperature=100.0, mach=1.0, seed=1)
    counter = InteractionCounter()
    t0 = time.perf_counter()
    compute_density(ps.pos, ps.vel, ps.mass, ps.u, ps.h, n_ngb=16,
                    counter=counter, backend=get_backend("numpy"))
    dt = time.perf_counter() - t0
    inter = counter.interactions("hydro_density")
    bench = {"kernels": {"hydro_density": {"numpy": {
        "tiny": {"seconds": dt, "interactions": inter, "inter_per_s": inter / dt},
    }}}}
    rows = calibrate(bench)
    assert len(rows) == 1
    assert rows[0].kernel == "hydro_density"
    assert 0 < rows[0].factor < 1  # a Python backend sits below the ISA model
    assert np.isfinite(rows[0].measured_gflops)
