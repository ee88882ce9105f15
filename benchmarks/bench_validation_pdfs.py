"""Sec. 3.3 validation (via ref. [14]): surrogate vs direct integration.

The paper validates the surrogate by showing density/temperature PDFs and
global structure statistics indistinguishable from conventional runs.  We
run the *same* SN in the same turbulent box two ways — direct SPH
integration with thermal feedback, and the surrogate's field-space
prediction — and compare the resulting gas PDFs; the surrogate must land
far closer to the direct result than "no SN at all" does.
"""

import numpy as np

from benchmarks.conftest import fmt_table
from repro.analysis.pdfs import density_pdf, pdf_distance, temperature_pdf
from repro.core.integrator import IntegratorConfig
from repro.core.runner import CoupledRunner
from repro.physics.feedback import SNFeedback
from repro.sn.turbulence import make_turbulent_box
from repro.surrogate.model import SedovBlastOracle, SNSurrogate

T_AFTER = 0.01  # Myr: enough for a resolved shell in the small box


def _box(seed=11):
    return make_turbulent_box(n_per_side=10, side=10.0, mean_density=1.0,
                              particle_mass=1.0, temperature=100.0,
                              mach=2.0, seed=seed)


def _run():
    # Direct: thermal dump + adaptive CFL integration to T_AFTER (the
    # conventional arm: the step host with no surrogate server).
    direct = _box()
    SNFeedback().inject(direct, np.zeros(3))
    cfg = IntegratorConfig(dt=5e-4, courant=0.15, self_gravity=False,
                           enable_cooling=False, enable_star_formation=False)
    sim = CoupledRunner(direct, server=None, n_ranks=1, config=cfg)
    sim.run_until(T_AFTER, max_steps=400)
    sim.close()
    direct = sim.ps

    # Surrogate: one field-space prediction, no integration.
    surr_ps = _box()
    surrogate = SNSurrogate(
        oracle=SedovBlastOracle(t_after=T_AFTER), n_grid=8, side=10.0
    )
    predicted = surrogate.predict_particles(surr_ps, np.zeros(3), np.random.default_rng(0))
    # Density for PDF purposes: quick SPH density pass on both states.
    from repro.sph.density import compute_density

    for ps in (direct, predicted):
        gas = ps.where_type(2)
        d = compute_density(ps.pos[gas], ps.vel[gas], ps.mass[gas], ps.u[gas],
                            ps.h[gas], n_ngb=32)
        ps.dens[gas] = d.dens

    untouched = _box()
    gas = untouched.where_type(2)
    d = compute_density(untouched.pos[gas], untouched.vel[gas],
                        untouched.mass[gas], untouched.u[gas],
                        untouched.h[gas], n_ngb=32)
    untouched.dens[gas] = d.dens
    return direct, predicted, untouched


def test_validation_pdfs(benchmark, write_result):
    direct, predicted, untouched = benchmark.pedantic(_run, rounds=1, iterations=1)
    bins_t = np.linspace(0, 9, 25)
    bins_r = np.linspace(-6, 4, 25)
    t_direct = temperature_pdf(direct, bins=bins_t)
    t_surr = temperature_pdf(predicted, bins=bins_t)
    t_none = temperature_pdf(untouched, bins=bins_t)
    r_direct = density_pdf(direct, bins=bins_r)
    r_surr = density_pdf(predicted, bins=bins_r)

    d_t = pdf_distance(t_direct, t_surr)
    d_t_none = pdf_distance(t_direct, t_none)
    d_r = pdf_distance(r_direct, r_surr)
    rows = [
        ["T-PDF distance: surrogate vs direct", d_t],
        ["T-PDF distance: no-SN vs direct", d_t_none],
        ["rho-PDF distance: surrogate vs direct", d_r],
        ["hot gas fraction (direct)", _hot_fraction(direct)],
        ["hot gas fraction (surrogate)", _hot_fraction(predicted)],
        ["hot gas fraction (no SN)", _hot_fraction(untouched)],
    ]
    write_result("validation_pdfs", fmt_table(["quantity", "value"], rows))

    # The surrogate's PDFs must be closer to direct than ignoring the SN is.
    assert d_t < d_t_none
    # Both runs must actually contain hot SN gas; the untouched box none.
    assert _hot_fraction(direct) > 0
    assert _hot_fraction(predicted) > 0
    assert _hot_fraction(untouched) == 0.0


def _hot_fraction(ps) -> float:
    from repro.util.constants import internal_energy_to_temperature

    gas = ps.where_type(2)
    t = internal_energy_to_temperature(ps.u[gas])
    return float(np.mean(t > 1e5))
