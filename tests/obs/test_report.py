"""Run reports: the Table-3 slowest-rank merge and the comm ledger,
both driven *through the span layer* of a multi-rank simulated run."""

import os

import numpy as np
import pytest

from repro.fdps.distributed import DistributedGravity
from repro.fdps.particles import ParticleSet
from repro.obs.export import write_run
from repro.obs.report import diff_reports, report_run, report_traces
from repro.obs.trace import Tracer
from repro.util.timers import TimerRegistry
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
    """Span-layer accounting == in-process TimerRegistry + CommStats."""
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

    # --- Table-3 rows: the span-rebuilt slowest-rank merge must agree with
    # the in-process TimerRegistry reduction (spans bracket the timers, so
    # they carry a few microseconds of extra overhead per call, never less).
    in_process = TimerRegistry.slowest(dg.timers)
    assert set(report.breakdown) == set(in_process)
    for name, worst in in_process.items():
        from_spans = report.breakdown[name]["slowest"]
        assert from_spans >= worst * 0.999
        assert from_spans <= worst + 0.05
    counts = {
        name: max(reg.get(name).count for reg in dg.timers
                  if name in reg.timers)
        for name in in_process
    }
    for name, count in counts.items():
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
    from repro.util.timers import TimerRegistry

    tr = Tracer(run_id="halo")
    engine = ForceEngine(IntegratorConfig(direct_gravity_below=0), timers=TimerRegistry(tracer=tr))
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
    engine = ForceEngine(IntegratorConfig(), timers=TimerRegistry(tracer=tr))
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
    ForceEngine(IntegratorConfig(), timers=TimerRegistry(tracer=serial)).gravity(ps, "step")
    assert "processes" not in report_traces([_as_loaded(serial)]).to_text()
