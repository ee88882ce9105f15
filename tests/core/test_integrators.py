"""The surrogate scheme vs the conventional baseline — the paper's core."""

import numpy as np
import pytest

from repro.core.integrator import IntegratorConfig
from repro.core.runner import CoupledRunner
from repro.core.simulation import GalaxySimulation
from repro.fdps.particles import ParticleSet, ParticleType
from repro.serve import SurrogateServer
from repro.sn.turbulence import make_turbulent_box
from repro.surrogate.model import SedovBlastOracle, SNSurrogate
from repro.util.constants import internal_energy_to_temperature


def _box_with_doomed_star(t_explode=0.004, seed=0):
    """A turbulent box plus one massive star about to explode."""
    box = make_turbulent_box(n_per_side=8, side=60.0, mean_density=0.05,
                             temperature=100.0, mach=2.0, seed=seed)
    star = ParticleSet.empty(1)
    star.pos[:] = 0.0
    star.mass[:] = 20.0
    star.ptype[:] = int(ParticleType.STAR)
    star.pid[:] = 10_000_000
    star.tsn[:] = t_explode
    star.eps[:] = 1.0
    return box.append(star)


def _make_scheme(ps, dt=2e-3, latency=5, n_pool=5, **cfg_kw):
    cfg_kw.setdefault("self_gravity", False)
    cfg = IntegratorConfig(
        dt=dt,
        latency_steps=latency,
        n_pool=n_pool,
        enable_cooling=False,
        enable_star_formation=False,
        **cfg_kw,
    )
    surr = SNSurrogate(oracle=SedovBlastOracle(t_after=latency * dt), n_grid=8, side=60.0)
    return CoupledRunner(ps, SurrogateServer(surrogate=surr), n_ranks=1, config=cfg)


def test_fixed_timestep_is_respected():
    sim = _make_scheme(_box_with_doomed_star())
    sim.run(8)
    assert sim.step_count == 8
    assert sim.time == pytest.approx(8 * 2e-3)


def test_sn_detected_and_dispatched():
    sim = _make_scheme(_box_with_doomed_star(t_explode=0.003))
    sim.run(2)  # t covers [0, 0.004): the SN at 0.003 fires in step 2
    assert sim.n_sn_events == 1
    assert sim.pool.n_in_flight == 1
    # The star never re-explodes.
    sim.run(2)
    assert sim.n_sn_events == 1


def test_main_nodes_feel_nothing_until_return():
    # Step 3 of the loop: integration proceeds WITHOUT feedback energy.
    ps = _box_with_doomed_star(t_explode=0.001)
    sim = _make_scheme(ps, latency=5)
    sim.run(3)
    t_max = internal_energy_to_temperature(sim.ps.u[sim.ps.where_type(ParticleType.GAS)]).max()
    assert t_max < 1e4  # still cold: no blast yet


def test_prediction_replaces_particles_after_latency():
    ps = _box_with_doomed_star(t_explode=0.001)
    sim = _make_scheme(ps, latency=5)
    sim.run(7)  # explosion at step 1, return at step 6
    gas = sim.ps.where_type(ParticleType.GAS)
    t_max = internal_energy_to_temperature(sim.ps.u[gas]).max()
    assert t_max > 1e5  # the blast landed
    assert sim.pool_summary()["n_returned"] == 1


def test_replacement_conserves_mass_and_count():
    ps = _box_with_doomed_star(t_explode=0.001)
    n0 = len(ps)
    m0 = ps.total_mass()
    sim = _make_scheme(ps, latency=3)
    sim.run(6)
    assert len(sim.ps) == n0
    assert sim.ps.total_mass() == pytest.approx(m0)
    assert len(np.unique(sim.ps.pid)) == n0


def _resolved_box_with_doomed_star(t_explode=0.0015, seed=1):
    """A star-by-star resolution box: 1 M_sun particles at n_H ~ 30 cm^-3.

    h ~ 2 pc here, so SN-heated gas (v_sig ~ 1000 pc/Myr) genuinely drives
    the CFL step far below the 2,000 yr cap — the regime of Sec. 1.
    """
    box = make_turbulent_box(n_per_side=10, side=10.0, mean_density=1.0,
                             particle_mass=1.0, temperature=100.0, mach=2.0,
                             seed=seed)
    star = ParticleSet.empty(1)
    star.pos[:] = 0.0
    star.mass[:] = 20.0
    star.ptype[:] = int(ParticleType.STAR)
    star.pid[:] = 10_000_000
    star.tsn[:] = t_explode
    star.eps[:] = 0.5
    return box.append(star)


def test_timer_labels_match_paper_breakdown():
    sim = _make_scheme(_box_with_doomed_star(), self_gravity=True)
    sim.run(2)
    labels = set(sim.timing_breakdown())
    for expected in (
        "Identify_SNe",
        "Send_SNe",
        "Receive_SNe",
        "Integration",
        "Final_kick",
        "1st Calc_Kernel_Size_and_Density",
        "1st Calc_Force",
        "2nd Calc_Kernel_Size_and_Density",
    ):
        assert expected in labels


def _conventional(ps, n_ranks=1):
    """The conventional arm: the step host with no server — CFL step capped
    at 2,000 yr, every SN a direct thermal dump."""
    cfg = IntegratorConfig(dt=2e-3, courant=0.1, self_gravity=False,
                           enable_cooling=False, enable_star_formation=False)
    return CoupledRunner(ps, server=None, n_ranks=n_ranks, config=cfg)


def test_conventional_timestep_collapses_after_sn():
    """The Sec. 5.3 experiment: direct feedback shrinks the CFL step ~10x."""
    ps = _resolved_box_with_doomed_star(t_explode=0.0015)
    sim = _conventional(ps)
    dts = [sim.step() for _ in range(2)]  # SN fires in step 1; step 2 feels the hot bubble
    dt_before = dts[0]
    dts += [sim.step() for _ in range(2)]
    dt_after = min(dts[-2:])
    assert dt_before == pytest.approx(2e-3)
    assert dt_after < 0.2 * dt_before  # paper: 2,000 yr -> ~200 yr


def _conventional_states(n_ranks):
    sim = _conventional(_resolved_box_with_doomed_star(t_explode=0.0015),
                        n_ranks=n_ranks)
    sim.step()  # the SN explodes in place
    states = [(sim.ps.pos.copy(), sim.ps.vel.copy(), sim.ps.u.copy())]
    sim.run(2)
    states.append((sim.ps.pos, sim.ps.vel, sim.ps.u))
    assert sim.n_sn_events == 1 and sim.pool is None
    sim.close()
    return states


def test_conventional_arm_builds_no_pool_world():
    """No server, no pool: no pool communicator, no ``pool_p2p`` row and no
    pool events, on two ranks too."""
    sim = _conventional(_resolved_box_with_doomed_star(t_explode=0.0015), n_ranks=2)
    try:
        sim.step()  # the SN explodes in place
        assert sim.n_sn_events == 1
        assert sim.pool is None
        assert "pool_p2p" not in sim.comm_stats()
        assert sim.pool_summary()["n_events"] == 0
    finally:
        sim.close()


@pytest.mark.parametrize("n_ranks", [1, 2])
def test_conventional_arm_state_does_not_depend_on_n_ranks(n_ranks):
    # In-place SNe act on the global set: the runner's rank contract holds.
    for got, want in zip(_conventional_states(n_ranks), _conventional_states(1)):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_surrogate_scheme_takes_fewer_steps():
    """Headline claim: fixed 2,000 yr beats adaptive CFL on steps to t_end."""
    t_end = 0.008
    ps1 = _resolved_box_with_doomed_star(t_explode=0.0015, seed=1)
    conv = _conventional(ps1)
    n_conv = conv.run_until(t_end, max_steps=500)

    ps2 = _resolved_box_with_doomed_star(t_explode=0.0015, seed=1)
    surr = _make_scheme(ps2, dt=2e-3, latency=5)
    surr.run_until(t_end)
    assert surr.step_count < 0.5 * n_conv
    assert conv.n_sn_events == 1 and surr.n_sn_events == 1


def test_galaxy_simulation_facade():
    ps = _box_with_doomed_star(t_explode=0.001)
    sim = GalaxySimulation(ps, dt=2e-3, n_pool=5, surrogate_grid=8, seed=1)
    sim.integrator.cfg.self_gravity = False
    sim.integrator.cfg.enable_cooling = False
    sim.integrator.cfg.enable_star_formation = False
    sim.run(6)
    d = sim.diagnostics()
    assert d["step"] == 6
    assert d["n_particles"] == len(ps)
    assert d["pool"]["n_events"] == 1
    assert "Integration" in sim.timing_breakdown()
    assert sim.star_formation_rate() == 0.0


def test_momentum_stability_without_sn():
    # No SN, no gravity: hydro alone conserves momentum step over step.
    box = make_turbulent_box(n_per_side=8, side=60.0, mean_density=0.05,
                             temperature=1000.0, mach=1.0, seed=3)
    sim = _make_scheme(box)
    p0 = box.momentum()
    sim.run(5)
    p1 = sim.ps.momentum()
    scale = np.abs(sim.ps.mass[:, None] * sim.ps.vel).sum()
    assert np.all(np.abs(p1 - p0) < 1e-8 * max(scale, 1.0))
