"""Sec. 5.3: time-to-solution — the 113x and 10x headline numbers.

Three parts:
1. the 113x arithmetic vs the GIZMO-style adaptive-timestep baseline,
   reproduced from the paper's own inputs;
2. the 10x timestep ratio — *measured* here by running the conventional
   arm of our step host (``CoupledRunner`` with no surrogate server) on a
   star-by-star-resolution SN and watching its CFL step collapse while the
   surrogate scheme holds 2,000 yr;
3. the dt ~ m^{5/6} resolution scaling that makes adaptive timesteps
   untenable at 1 M_sun.
"""


from benchmarks.conftest import fmt_table
from repro.core.integrator import IntegratorConfig
from repro.core.runner import CoupledRunner
from repro.fdps.particles import ParticleSet, ParticleType
from repro.perf.scaling import (
    projected_one_gyr_walltime,
    time_to_solution_speedup,
    timestep_ratio_vs_conventional,
)
from repro.sn.turbulence import make_turbulent_box
from repro.sph.timestep import timestep_mass_scaling


def test_sec53_analytic_speedup(benchmark, write_result):
    out = benchmark.pedantic(time_to_solution_speedup, rounds=1, iterations=1)
    gyr = projected_one_gyr_walltime(seconds_per_step=10.0)
    rows = [
        ["ours [hours / Myr]", out["ours_hours_per_myr"]],
        ["GIZMO-scaled [hours / Myr]", out["gizmo_hours_per_myr"]],
        ["speedup", out["speedup"]],
        ["paper speedup", 113.0],
        ["timestep ratio (fixed 2000 yr / post-SN 200 yr)", timestep_ratio_vs_conventional()],
        ["1 Gyr at 10 s/step [days]", gyr["days"]],
    ]
    write_result("sec53_analytic", fmt_table(["quantity", "value"], rows))
    assert abs(out["speedup"] / 113.0 - 1.0) < 0.15


def test_sec53_measured_timestep_collapse(benchmark, write_result):
    """Run the conventional scheme through an SN and measure dt directly."""

    def _run():
        box = make_turbulent_box(n_per_side=10, side=10.0, mean_density=1.0,
                                 particle_mass=1.0, temperature=100.0,
                                 mach=2.0, seed=7)
        star = ParticleSet.empty(1)
        star.mass[:] = 20.0
        star.ptype[:] = int(ParticleType.STAR)
        star.pid[:] = 10_000_000
        star.tsn[:] = 0.0015
        star.eps[:] = 0.5
        cfg = IntegratorConfig(dt=2e-3, courant=0.1, self_gravity=False,
                               enable_cooling=False,
                               enable_star_formation=False)
        sim = CoupledRunner(box.append(star), server=None, n_ranks=1, config=cfg)
        dts = [sim.step() for _ in range(6)]
        sim.close()
        return dts

    dts = benchmark.pedantic(_run, rounds=1, iterations=1)
    dt_before = dts[0]
    dt_after = min(dts)
    ratio = dt_before / dt_after
    rows = [
        ["dt before SN [yr]", dt_before * 1e6],
        ["dt after SN [yr]", dt_after * 1e6],
        ["measured collapse ratio", ratio],
        ["paper ratio", 10.0],
    ]
    write_result("sec53_measured_dt", fmt_table(["quantity", "value"], rows))
    # Shape: an order-of-magnitude-class collapse (the paper measured 10x;
    # the exact factor depends on Courant number and local density).
    assert ratio > 4.0


def test_sec53_mass_scaling(benchmark, write_result):
    def _rows():
        rows = []
        for m in (400.0, 100.0, 10.0, 1.0, 0.75):
            dt = timestep_mass_scaling(m_ref=400.0, dt_ref=1.0, m_new=m)
            rows.append([m, dt, 1.0 / dt])
        return rows

    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    write_result(
        "sec53_mass_scaling",
        fmt_table(["m_particle [Msun]", "dt / dt(400 Msun)", "cost factor"], rows),
    )
    # 400 -> 0.75 M_sun costs adaptive codes ~188x more steps.
    assert rows[-1][2] > 100.0
