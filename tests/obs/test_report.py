"""Run reports: the Table-3 slowest-rank merge and the comm ledger,
both driven *through the span layer* of a multi-rank simulated run."""

import os
from collections import Counter

import numpy as np
import pytest

from repro.fdps.distributed import DistributedGravity
from repro.fdps.particles import ParticleSet, ParticleType
from repro.obs.export import write_run
from repro.obs.report import diff_reports, report_run, report_traces
from repro.obs.trace import Tracer
from tests.conftest import plummer_positions


def _cluster(n=600, seed=31):
    rng = np.random.default_rng(seed)
    pos = plummer_positions(n, a=30.0, rng=rng)
    ps = ParticleSet.from_arrays(
        pos=pos,
        mass=rng.uniform(0.5, 2.0, n),
        eps=np.full(n, 0.5),
        pid=np.arange(n),
    )
    ps.vel[:] = rng.normal(0, 0.5, (n, 3))
    return ps


def _synthetic_tracer():
    """Hand-laid spans with known durations across 3 simulated ranks."""
    tr = Tracer(run_id="synthetic")
    with tr.span("step", cat="sim", step=0):
        # Calc_Force: per-rank totals 1.0 / 3.0 / 2.0 -> slowest 3.0.
        tr.span_at("Calc_Force", 0.0, 1.0, rank=0)
        tr.span_at("Calc_Force", 0.0, 3.0, rank=1)
        tr.span_at("Calc_Force", 0.0, 2.0, rank=2)
        # Exchange_Particle: rank 0 brackets it twice (0.5 + 0.5 = 1.0).
        tr.span_at("Exchange_Particle", 1.0, 0.5, rank=0)
        tr.span_at("Exchange_Particle", 1.5, 0.5, rank=0)
        tr.span_at("Exchange_Particle", 1.0, 0.25, rank=2)
    with tr.span("step", cat="sim", step=1):
        tr.span_at("Calc_Force", 4.0, 1.0, rank=1)
    return tr


def test_slowest_rank_merge_from_spans():
    report = report_traces([_as_loaded(_synthetic_tracer())])
    force = report.breakdown["Calc_Force"]
    # rank 1 totals 3.0 + 1.0 = 4.0s, the slowest; mean over ranks present.
    assert force["slowest"] == pytest.approx(4.0)
    assert force["mean"] == pytest.approx((1.0 + 4.0 + 2.0) / 3)
    assert force["count"] == 2  # the busiest rank bracketed it twice
    exch = report.breakdown["Exchange_Particle"]
    assert exch["slowest"] == pytest.approx(1.0)
    assert exch["count"] == 2
    # The umbrella "step" span is steps, not a breakdown row.
    assert "step" not in report.breakdown
    assert report.n_steps == 2
    assert report.n_ranks == 3


def _slowest(per_rank):
    """Per name, the largest of the ranks' seconds (the paper's footnote)."""
    out = {}
    for totals in per_rank:
        for name, seconds in totals.items():
            out[name] = max(out.get(name, 0.0), seconds)
    return out


def _most_spans_of_one_rank(tr):
    """Per sim span name below ``step``, its most records on one rank."""
    per_rank = Counter((rec.name, rec.rank) for rec in tr.records
                       if rec.cat == "sim" and rec.name != "step")
    out = {}
    for (name, _rank), n in per_rank.items():
        out[name] = max(out.get(name, 0), n)
    return out


def _as_loaded(tr):
    from repro.obs.export import LoadedTrace

    out = LoadedTrace()
    out.run_id = tr.run_id
    out.rank = tr.rank
    out.records = list(tr.records)
    out.counters = dict(tr.counters)
    out.gauges = dict(tr.gauges)
    out.meta = dict(tr.meta)
    return out


@pytest.mark.parametrize("use_torus", [False, True])
def test_distributed_run_report_matches_in_process_accounting(
    tmp_path, use_torus
):
    """Span-layer accounting == in-process Table-3 rows + CommStats."""
    tr = Tracer(run_id="dist")
    dg = DistributedGravity(n_ranks=8, theta=0.35, use_torus=use_torus,
                            tracer=tr)
    ps = _cluster()
    decomp, locals_ = dg.scatter(ps)
    dg.forces(locals_, decomp)
    # Drift, refit and migrate, then a second force pass: the phases the
    # step host runs between two force evaluations.
    for loc, index in zip(locals_, dg.indices):
        loc.pos += 2.0 * loc.vel
        index.invalidate_positions()
    decomp, _ = dg.decompose(dg.gather(locals_))
    locals_ = dg.exchange_particles(locals_, decomp)
    dg.forces(locals_, decomp)
    assert dg.comm.stats["exchange_particles"].bytes_total > 0

    run_dir = tmp_path / "run"
    write_run(tr, run_dir)
    report = report_run(run_dir)

    # --- Table-3 rows: the exported spans' slowest-rank merge is the
    # in-process per-rank view, to rounding (both are the same spans).
    in_process = _slowest([rank.totals() for rank in dg.timers])
    assert set(report.breakdown) == set(in_process)
    for name, worst in in_process.items():
        assert report.breakdown[name]["slowest"] == pytest.approx(worst, rel=1e-12)
    for name, count in _most_spans_of_one_rank(tr).items():
        assert report.breakdown[name]["count"] == count

    # --- comm rows: byte-exact against the CommStats ledger, including the
    # per-call busiest-rank sum (the bandwidth critical path).
    assert set(report.comm) == set(dg.comm.stats)
    for label, stats in dg.comm.stats.items():
        row = report.comm[label]
        assert int(row["bytes"]) == stats.bytes_total
        assert int(row["messages"]) == stats.n_messages
        assert int(row["critical_bytes"]) == stats.critical_bytes
        assert int(row["calls"]) == stats.n_calls

    # All simulated ranks appear in the one-process trace.
    assert report.n_ranks == 8
    text = report.to_text()
    assert "Calc_Force" in text
    assert "exchange_let" in text


def test_report_diff_lines_up_rows():
    a = report_traces([_as_loaded(_synthetic_tracer())])
    b = report_traces([_as_loaded(_synthetic_tracer())])
    b.breakdown["Calc_Force"]["slowest"] = 8.0
    out = diff_reports(a, b)
    assert "Calc_Force" in out
    assert "2.00" in out  # 8.0 / 4.0 ratio column
    assert out.splitlines()[-1].lstrip().startswith("WALL")


def test_report_shows_neighbor_grid_work_per_step():
    """A traced SN run answers "why did step 7 get cheap" from the trace:
    the engine's grid counters, per step, with the local edits as repairs."""
    from repro import GalaxySimulation
    from repro.core.integrator import IntegratorConfig
    from tests.core.test_sn_reinsertion import DT, LATENCY, _storm

    tr = Tracer(run_id="storm")
    sim = GalaxySimulation(
        _storm(6), dt=DT, latency_steps=LATENCY, n_pool=4, surrogate_grid=8, tracer=tr,
        config=IntegratorConfig(enable_star_formation=False),
    )
    with sim:
        sim.run(6)
        stats = sim.integrator.engine.index.stats.as_dict()
    report = report_traces([_as_loaded(tr)])
    per_step = report.neighbor_grid_per_step()
    assert per_step == {
        kind: stats[f"grid_{kind}"] / 6 for kind in ("builds", "repairs", "reuses")
    }
    assert per_step["repairs"] > 0
    assert "neighbor grid (per step): builds" in report.to_text()
    assert report.to_json_obj()["neighbor_grid_per_step"] == per_step
    # Candidate lists: one generated per grid built (the repaired ones are
    # not generated again), their pairs, and the bytes of the last list.
    cand = report.candidates_per_step()
    assert cand["generations"] == per_step["builds"]
    assert cand["kpairs"] == tr.counters["accel.candidate_pairs"] / 6 / 1e3 > 0
    assert cand["mb"] == tr.gauges["accel.candidate_bytes"] / 1e6 > 0
    assert (f"; candidates: {cand['generations']:.2f} generations/step, "
            f"{cand['kpairs']:.1f} k pairs, {cand['mb']:.2f} MB") in report.to_text()
    assert report.to_json_obj()["candidates_per_step"] == cand
    # The kernel-size solve: sweeps per pass, nothing left unconverged.
    passes, sweeps = tr.counters["accel.density_passes"], tr.counters["accel.density_sweeps"]
    assert passes >= 6 + stats["grid_repairs"] and passes <= sweeps <= 5 * passes
    assert "accel.h_unconverged" not in tr.counters
    assert f"kernel-size solve: {sweeps / passes:.2f} sweeps per pass" in report.to_text()
    assert "**" not in report.to_text()
    # A run that emitted no such counters prints no such lines.
    quiet = report_traces([_as_loaded(_synthetic_tracer())])
    assert quiet.candidates_per_step() == {}
    assert "neighbor grid" not in quiet.to_text() and "kernel-size solve" not in quiet.to_text()


def test_report_shows_the_post_sn_region_pass():
    """Each step-7 pass after an SN replacement re-solves the gas the
    replacement touched: the report prints how much of it, per pass; a run
    without such passes prints nothing about them."""
    from repro import GalaxySimulation
    from repro.core.integrator import IntegratorConfig
    from tests.core.test_sn_reinsertion import DT, LATENCY, _storm

    tr = Tracer(run_id="storm")
    sim = GalaxySimulation(
        _storm(6), dt=DT, latency_steps=LATENCY, n_pool=4, surrogate_grid=8, tracer=tr,
        config=IntegratorConfig(enable_star_formation=False),
    )
    with sim:
        sim.run(6)
        n_gas = int(sim.ps.where_type(ParticleType.GAS).sum())
    report = report_traces([_as_loaded(tr)])
    region = report.region_per_pass()
    assert region["passes"] == tr.counters["accel.grid_repairs"] >= 2
    assert region["gas"] == n_gas
    assert 0 < region["targets"] < n_gas
    assert (f"post-SN pass: {region['targets']:.0f} of {n_gas} gas re-solved"
            in report.to_text())
    assert report.to_json_obj()["region_per_pass"] == region
    quiet = report_traces([_as_loaded(_synthetic_tracer())])
    assert quiet.region_per_pass() == {} and "post-SN pass" not in quiet.to_text()


def test_report_flags_unconverged_kernel_sizes():
    tr = _synthetic_tracer()
    tr.count("accel.density_passes", 4)
    tr.count("accel.density_sweeps", 22)
    tr.count("accel.h_unconverged", 3)
    text = report_traces([_as_loaded(tr)]).to_text()
    assert "kernel-size solve: 5.50 sweeps per pass over 4 passes" in text
    assert "** 3 particle(s) left outside tolerance" in text


def test_report_shows_gravity_pair_rate_and_workspace():
    """The force pass's pair rate and the tile workspace it holds are read
    off the report: the workspace gauge is one pair block, not a tile."""
    from repro.accel import ForceEngine
    from repro.accel.backends import numpy_backend
    from repro.core.integrator import IntegratorConfig

    tr = Tracer(run_id="halo")
    engine = ForceEngine(IntegratorConfig(direct_gravity_below=0), tracer=tr)
    ps = _cluster(1500)
    for _ in range(2):
        engine.gravity(ps, "step")
    driver = DistributedGravity(n_ranks=2, theta=0.5, n_g=64, tracer=tr)
    decomp, locals_ = driver.scatter(ps)
    driver.forces(locals_, decomp)

    bound = 5 * numpy_backend._TILE_PAIRS * 8 + numpy_backend._TILE_PAIRS
    workspace = tr.gauges["accel.grav_workspace_bytes"]
    assert 0 < workspace <= bound
    assert tr.counters["accel.gravity_passes"] == 3
    report = report_traces([_as_loaded(tr)])
    gravity = report.gravity_per_pass()
    assert gravity["passes"] == 3 and gravity["mpair_per_s"] > 0
    assert gravity["workspace_mb"] == workspace / 1e6
    assert f"gravity: {gravity['mpair_per_s']:.1f} Mpair/s, workspace" in report.to_text()
    assert report.to_json_obj()["gravity_per_pass"] == gravity
    # A run that traced no gravity pass prints no such line.
    assert "gravity:" not in report_traces([_as_loaded(_synthetic_tracer())]).to_text()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="the helper needs two CPUs")
def test_report_shows_split_gravity_passes_per_process():
    """A pass split with the gravity helper prints both processes' busy
    time on the gravity line, so an unbalanced cut is visible."""
    from repro.accel import ForceEngine
    from repro.core.integrator import IntegratorConfig

    tr = Tracer(run_id="split")
    ps = _cluster(1500)
    engine = ForceEngine(IntegratorConfig(), tracer=tr)
    assert engine.start_gravity_helper(len(ps))
    try:
        for _ in range(2):
            engine.gravity(ps, "step")
    finally:
        engine.close()
    report = report_traces([_as_loaded(tr)])
    gravity = report.gravity_per_pass()
    assert gravity["split_passes"] == tr.counters["accel.grav_split_passes"] == 2
    assert gravity["main_ms"] == tr.gauges["accel.grav_main_busy_s"] * 1e3 > 0
    assert gravity["helper_ms"] == tr.gauges["accel.grav_helper_busy_s"] * 1e3 > 0
    assert (f"gravity: 2 processes, main {gravity['main_ms']:.1f} ms / helper "
            f"{gravity['helper_ms']:.1f} ms per pass, "
            f"{gravity['mpair_per_s']:.1f} Mpair/s") in report.to_text()
    assert report.to_json_obj()["gravity_per_pass"] == gravity
    # A serial run's gravity line names no processes.
    serial = Tracer(run_id="serial")
    ForceEngine(IntegratorConfig(), tracer=serial).gravity(ps, "step")
    assert "processes" not in report_traces([_as_loaded(serial)]).to_text()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="the helper needs two CPUs")
def test_report_shows_the_gravity_overlap_with_hydro_and_the_claims():
    """A force evaluation ships the tree pass before the SPH pass: the
    gravity line prints how long main ran hydro while the helper worked and
    how many groups the helper claimed, so a starved helper shows."""
    from repro.core.runner import CoupledRunner
    from repro.sn.turbulence import make_turbulent_box

    tr = Tracer(run_id="overlap")
    box = make_turbulent_box(n_per_side=11, side=60.0, mach=2.0, seed=4)
    integ = CoupledRunner(box, None, 1, tracer=tr)
    assert integ.engine.helper is not None
    try:
        for _ in range(2):
            integ.compute_forces("1st")
    finally:
        integ.engine.close()
    report = report_traces([_as_loaded(tr)])
    gravity = report.gravity_per_pass()
    assert gravity["split_passes"] == 2
    assert gravity["overlap_ms"] == tr.gauges["accel.grav_overlap_s"] * 1e3 > 0
    groups, helper = tr.gauges["accel.grav_groups"], tr.gauges["accel.grav_helper_groups"]
    assert gravity["groups"] == groups > 1 and gravity["helper_groups"] == helper
    assert 0 <= helper <= groups
    # Together the claims cover every group; at most the meeting one twice.
    assert helper + tr.gauges["accel.grav_main_groups"] in (groups, groups + 1)
    assert (f"over 2 passes, overlapped with hydro {gravity['overlap_ms']:.1f} ms, "
            f"helper {int(helper)}/{int(groups)} groups") in report.to_text()
    assert report.to_json_obj()["gravity_per_pass"] == gravity


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="the helper needs two CPUs")
def test_report_charges_the_helpers_ranks_to_their_ranks():
    """A distributed pass shared with the helper: the helper's busy seconds
    are its ranks' ``Calc_Force`` (the in-process rows and the report
    agree, so the slowest-rank merge still sees ranks), and the gravity
    line prints the ranks it delivered."""
    from repro.accel import ForceEngine
    from repro.core.integrator import IntegratorConfig

    tr = Tracer(run_id="ranks")
    ps = _cluster(1500)
    engine = ForceEngine(IntegratorConfig(), tracer=tr)
    assert engine.start_gravity_helper(len(ps))
    driver = DistributedGravity(n_ranks=2, tracer=tr)
    try:
        decomp, locals_ = driver.scatter(ps)
        driver.forces(locals_, decomp, engine=engine)
    finally:
        engine.close()
    report = report_traces([_as_loaded(tr)])
    slowest = _slowest([rank.totals() for rank in driver.timers])["Calc_Force"]
    assert report.breakdown["Calc_Force"]["slowest"] == pytest.approx(slowest, rel=1e-12)
    assert report.breakdown["Calc_Force"]["count"] == 1          # once per rank
    assert _most_spans_of_one_rank(tr)["Calc_Force"] == 1
    helper_ranks = tr.gauges["accel.grav_helper_ranks"]
    gravity = report.gravity_per_pass()
    assert gravity["helper_ranks"] == helper_ranks
    assert (f"helper {int(helper_ranks)} ranks {gravity['helper_ms']:.1f} ms per pass"
            in report.to_text())
    lanes = {r.tid for r in tr.records if r.name == "Calc_Force"}
    assert ("gravity-helper" in lanes) == (helper_ranks > 0)


def test_report_shows_reach_lists_and_widenings():
    """On a gas disk the density passes run on per-particle reach lists; a
    pass whose kernel sizes outgrow their reach widens its list, and the
    candidate line says both: widenings per step, reach-list passes of all."""
    from repro import GalaxySimulation
    from repro.core.integrator import IntegratorConfig
    from repro.ic.galaxy import MW_SPEC, make_mw_model

    ps = make_mw_model(1200, seed=3, spec=MW_SPEC.scaled(0.01), count_fractions=(0.02, 0.02, 0.96))
    tr = Tracer(run_id="disk")
    sim = GalaxySimulation(ps, dt=2e-3, tracer=tr,
                           config=IntegratorConfig(enable_star_formation=False))
    with sim:
        sim.run(2)
        # A tenth of the gas re-enters with half its kernel size (as an SN
        # region's particles do): reaches made from these guesses fall short.
        gas = np.flatnonzero(sim.ps.where_type(ParticleType.GAS))
        sim.ps.h[gas[::10]] *= 0.5
        sim.run(2)
    report = report_traces([_as_loaded(tr)])
    cand = report.candidates_per_step()
    assert cand["widenings"] == tr.counters["accel.candidate_widenings"] / 4 > 0
    assert cand["passes"] == tr.counters["accel.density_passes"]
    assert 0 < cand["reach_passes"] == tr.counters["accel.reach_list_passes"] <= cand["passes"]
    assert (f"{cand['mb']:.2f} MB, {cand['widenings']:.2f} widenings/step, reach list in "
            f"{int(cand['reach_passes'])}/{int(cand['passes'])} passes") in report.to_text()
    assert report.to_json_obj()["candidates_per_step"] == cand


def test_report_shows_the_rss_high_water_after_step_1_and_the_last_step():
    """The step host gauges main's ``ru_maxrss`` once per step (and puts it
    on the step span): the report prints the high-water after step 1 and
    after the last step, the second never below the first."""
    import resource

    from repro import GalaxySimulation
    from repro.sn.turbulence import make_turbulent_box

    ps = make_turbulent_box(n_per_side=6, side=60.0, seed=3)
    tr = Tracer(run_id="rss")
    with GalaxySimulation(ps, dt=2e-3, tracer=tr) as sim:
        sim.run(3)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steps = [rec for rec in tr.records if rec.name == "step"]
    assert len(steps) == 3 and all("rss_mb" in rec.attrs for rec in steps)
    assert tr.gauges["obs.rss_mb"] == steps[-1].attrs["rss_mb"] <= after
    report = report_traces([_as_loaded(tr)])
    rss = report.rss_high_water()
    assert rss == {"after_step_1": steps[0].attrs["rss_mb"],
                   "after_last_step": steps[-1].attrs["rss_mb"]}
    assert 0.0 < rss["after_step_1"] <= rss["after_last_step"]
    assert (f"RSS high-water: after step 1 {rss['after_step_1']:.1f} MB, "
            f"after the last step {rss['after_last_step']:.1f} MB") in report.to_text()
    assert report.to_json_obj()["rss_high_water_mb"] == rss
    # A run that gauged none prints no such line.
    quiet = report_traces([_as_loaded(_synthetic_tracer())])
    assert quiet.rss_high_water() == {} and "RSS" not in quiet.to_text()


def test_report_shows_main_page_faults_per_step_under_the_rss_line():
    """The step host counts main's ``ru_minflt`` over each step
    (``obs.minor_faults``, and ``minor_faults`` on the step span): the report
    prints the faults per step after the first, and the first's apart, on
    the line under the RSS high-water."""
    from repro import GalaxySimulation
    from repro.sn.turbulence import make_turbulent_box

    ps = make_turbulent_box(n_per_side=6, side=60.0, seed=3)
    tr = Tracer(run_id="faults")
    with GalaxySimulation(ps, dt=2e-3, tracer=tr) as sim:
        sim.run(4)
    steps = [rec.attrs["minor_faults"] for rec in tr.records if rec.name == "step"]
    assert len(steps) == 4 and all(isinstance(f, int) and f >= 0 for f in steps)
    assert tr.counters["obs.minor_faults"] == sum(steps)
    report = report_traces([_as_loaded(tr)])
    faults = report.minor_faults_per_step()
    assert faults == {"step_1": steps[0], "per_later_step": sum(steps[1:]) / 3}
    lines = report.to_text().splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith("RSS high-water"))
    assert lines[at + 1] == (f"page faults per step: main {faults['per_later_step']:.0f} "
                             f"(step 1: {faults['step_1']:.0f})")
    assert report.to_json_obj()["minor_faults_per_step"] == faults
    quiet = report_traces([_as_loaded(_synthetic_tracer())])
    assert quiet.minor_faults_per_step() == {} and "page faults" not in quiet.to_text()


#: The step host's and the force engine's brackets of four untraced steps of
#: ``_doomed_box`` (one SN): the key set of ``timing_breakdown()``.
_HOST = {
    "Identify_SNe", "Send_SNe", "Integration", "Final_kick", "Receive_SNe",
    "Feedback_and_Cooling", "Star Formation", "1st Calc_Hydro_Force",
    "1st Calc_Kernel_Size_and_Density", "2nd Calc_Hydro_Force",
    "2nd Calc_Kernel_Size_and_Density",
}
#: Per rank, the distributed force pass's phases (the LET exchange is
#: timed on rank 0, the collective's one bracket).
_FORCE_TREE = {"Tree_Construction", "Calc_Force"}


def _doomed_box():
    from repro.sn.turbulence import make_turbulent_box

    ps = make_turbulent_box(n_per_side=7, side=30.0, mean_density=0.1,
                            temperature=500.0, mach=1.0, seed=2)
    star = ParticleSet.empty(1)
    star.mass[:] = 20.0
    star.ptype[:] = int(ParticleType.STAR)
    star.pid[:] = 10_000_000
    star.tsn[:] = 1e-3
    star.eps[:] = 0.5
    return ps.append(star)


@pytest.mark.parametrize(("n_ranks", "mode", "breakdown", "phases"), [
    (1, "global", _HOST | {"1st Calc_Force"},
     [{"Decompose_Domain", "Exchange_Particle"}]),
    (2, "global", _HOST | {"1st Calc_Force"},
     [{"Decompose_Domain", "Exchange_Particle", "Exchange_Region"},
      {"Exchange_Particle", "Exchange_Region"}]),
    (2, "distributed", _HOST,
     [{"Decompose_Domain", "Exchange_Particle", "Exchange_Region", "Exchange_LET"} | _FORCE_TREE,
      {"Exchange_Particle", "Exchange_Region"} | _FORCE_TREE]),
])
def test_untraced_run_keeps_the_host_and_the_driver_rows_apart(n_ranks, mode, breakdown, phases):
    """One disabled tracer times the host, the engine and every driver rank:
    ``timing_breakdown()`` holds the host's and the engine's brackets only
    (no ``step``, no driver phase of rank 0), each ``driver.timers[r]`` the
    phases rank ``r`` ran."""
    from repro import GalaxySimulation

    with GalaxySimulation(_doomed_box(), dt=1e-3, n_pool=2, surrogate_grid=8,
                          n_ranks=n_ranks, coupled_force_mode=mode) as sim:
        sim.run(4)
        assert not sim.tracer.enabled and sim.tracer.records == []
        assert sim.diagnostics()["pool"]["n_events"] == 1
        assert set(sim.timing_breakdown()) == breakdown
        assert [set(rank.totals()) for rank in sim.integrator.driver.timers] == phases
        assert all(s >= 0.0 for s in sim.timing_breakdown().values())
