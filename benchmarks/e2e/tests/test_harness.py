"""Self-tests of the end-to-end harness (outside tier-1).

    python -m pytest benchmarks/e2e/tests -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import __main__ as orchestrator
from benchmarks.e2e import compare, measure, spans, workloads
from repro import GalaxySimulation
from repro.fdps.particles import ParticleType
from repro.ic.galaxy import make_mw_mini

ROOT = Path(__file__).resolve().parents[3]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ------------------------------------------------------------------- spans
def test_self_times_on_a_synthetic_nested_trace():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 7.0, 8.0, 10.0])
    rec = spans.SpanRecorder(clock=lambda: next(ticks))
    rec.step = 0
    root = rec.begin("core.step")              # 0 .. 10
    forces = rec.begin("core.compute_forces")  # 1 .. 8
    gravity = rec.begin("accel.gravity")       # 2 .. 4
    rec.end(gravity)
    hydro = rec.begin("accel.hydro")           # 5 .. 7
    rec.end(hydro)
    rec.end(forces)
    rec.end(root)
    assert [s.parent for s in rec.spans] == [None, 0, 1, 1]
    assert spans.self_times(rec.spans) == [10 - 7, 7 - 2 - 2, 2, 2]
    layers = spans.layer_seconds(rec.spans)[0]
    assert layers == {"core.step_self_s": 3 + 3, "accel.gravity_s": 2, "accel.hydro_s": 2}
    assert sum(layers.values()) == rec.spans[0].end - rec.spans[0].start


def test_fastpath_share_reads_misses_off_the_span_tree():
    rec = spans.SpanRecorder(clock=iter(range(100)).__next__)
    for miss in (False, True, True, False):
        outer = rec.begin("core.refresh_hydro")
        inner = rec.begin("accel.refresh_hydro")
        rec.end(inner)
        if miss:
            fallback = rec.begin("accel.hydro")
            rec.end(fallback)
        rec.end(outer)
    assert spans.fastpath_share(rec.spans) == 0.5
    assert spans.fastpath_share([]) == 0.0


@pytest.mark.parametrize("n, percentile", [(30, 66.7), (40, 75.0), (60, 83.3)])
def test_tail_is_the_order_statistic_with_ten_samples_beyond_it(n, percentile):
    values = list(np.random.default_rng(n).permutation(n) + 1.0)
    value, pct = measure.tail(values)
    assert value == n - 10
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(percentile, abs=0.05)


def test_tail_never_drops_below_the_median():
    assert measure.tail([1.0, 2.0, 3.0, 4.0])[0] == 2.0


def test_wrapping_leaves_the_final_state_unchanged_and_is_removed():
    def final_digest(traced: bool) -> str:
        with GalaxySimulation(make_mw_mini(400, seed=5), dt=workloads.DT) as sim:
            sim.integrator.cfg.direct_gravity_below = 0
            rec = spans.SpanRecorder() if traced else None
            run = measure.Run()
            measure.run_steps(sim, 4, run, rec)
            assert run.error is None and run.traced == [traced, False] * 2
            if traced:
                assert {s.name for s in rec.spans} >= {"core.step", "accel.gravity", "core.kick"}
                assert not any(
                    attr in vars(obj)
                    for obj in (sim.integrator, sim.integrator.engine, sim.server)
                    for _, attr, _ in spans.HOOKS
                )
                assert [s.step for s in rec.spans if s.name == "core.step"] == [0, 2]
                assert measure.span_sum_check(run, rec).passed
            return measure.state_digest(sim.ps)

    assert final_digest(traced=True) == final_digest(traced=False)


# -------------------------------------------------------------- generators
def _counts(ps):
    return {t: int(ps.where_type(t).sum()) for t in ParticleType}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic_and_pid_sorted(name):
    build = workloads.WORKLOADS[name].build
    a, b, other = build(7), build(7), build(8)
    assert a.pack().tobytes() == b.pack().tobytes()
    assert a.pack().tobytes() != other.pack().tobytes()
    assert np.all(np.diff(a.pid) > 0)
    assert _counts(a) == _counts(other)


def test_generators_yield_the_stated_counts():
    halo = workloads.halo_gravity(7)
    assert len(halo) == workloads.HALO_N
    assert 0 < _counts(halo)[ParticleType.GAS] < 0.02 * len(halo)

    disk = workloads.gas_disk(7)
    n_gas = round(workloads.DISK_FRACTIONS[2] * workloads.DISK_N)
    assert _counts(disk)[ParticleType.GAS] == round(workloads.DISK_KEEP * n_gas)
    assert len(disk) == workloads.DISK_N - n_gas + round(workloads.DISK_KEEP * n_gas)

    for ps, n_gas in (
        (workloads.sn_storm(7), workloads.STORM_PER_SIDE**3),
        (workloads.cluster_2rank(7), workloads.CLUSTER_PER_SIDE**3),
    ):
        assert _counts(ps)[ParticleType.GAS] == n_gas
        planted = np.flatnonzero(np.isfinite(ps.tsn))
        assert len(planted) == workloads.MAX_STEPS
        assert np.all(ps.ptype[planted] == int(ParticleType.STAR))
        # Exactly one explosion in every step window [k dt, (k+1) dt).
        assert np.array_equal(np.floor(ps.tsn[planted] / workloads.DT), np.arange(len(planted)))

    cluster = workloads.cluster_2rank(7)
    planted = np.isfinite(cluster.tsn)
    cut = np.median(cluster.pos[cluster.where_type(ParticleType.DARK_MATTER) | (
        cluster.where_type(ParticleType.STAR) & ~planted), 0])
    assert np.all(np.abs(cluster.pos[planted, 0] - cut) <= 5.0)


# ---------------------------------------------------------------- contract
def _run(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--workload", "halo_gravity",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_emitted_name_is_in_the_contract_and_vice_versa(trace, section):
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(NAME.fullmatch(name) for name in declared)


def test_contract_names_the_workloads_and_setup_metric():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert all(NAME.fullmatch(w["name"]) and "\n" not in w["why"] for w in CONTRACT["workloads"])
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    # Bounds are three times the widest ten-seed spread measured, capped at
    # the contract's 0.25 (README has the table): changing one is a
    # decision, so it has to be made here as well.
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert bounds == {
        "step_s": 0.25, "particle_steps_per_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.15,
    }
    assert set(spans.METRIC_OF.values()) <= {m["name"] for m in CONTRACT["per_layer"]}


def test_layer_checks_hold_a_workload_to_what_it_is_named_for():
    w = workloads.Workload(
        "synthetic", workloads.halo_gravity,
        min_step_share={"accel.gravity_s": 0.90}, exact={"accel.fastpath_share": 1.0},
    )
    metrics = {m: (0.0, "s") for m in spans.METRIC_OF.values()}
    metrics.update({"accel.gravity_s": (0.95, "s"), "accel.hydro_s": (0.05, "s"),
                    "accel.fastpath_share": (1.0, "ratio")})
    assert [c.passed for c in measure.layer_checks(w, metrics)] == [True, True]
    metrics.update({"accel.hydro_s": (0.15, "s"), "accel.fastpath_share": (0.5, "ratio")})
    assert [c.passed for c in measure.layer_checks(w, metrics)] == [False, False]
    named = {m for w in workloads.WORKLOADS.values() for m in (*w.min_step_share, *w.exact)}
    assert named <= {m["name"] for m in CONTRACT["per_layer"]}


# ----------------------------------------------------------------- compare
def _doc(step_s: float, **over) -> dict:
    cell = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in CONTRACT["end_to_end"]}
    cell["step_s"] = {"value": step_s, "unit": "s"}
    doc = {
        "smoke": False,
        "provenance": {"schema": 1, "nproc": 2, "backend": "numpy", "seed": 3},
        "workloads": {
            "halo_gravity": {
                "end_to_end": cell, "fail_share": 0.0, "digest": "abc",
                "ledger": {"tree_builds": 40},
            }
        },
    }
    doc.update(over)
    return doc


def test_compare_agrees_flags_and_refuses(tmp_path, capsys):
    def code(a: dict, b: dict) -> int:
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        return compare.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json"))

    assert code(_doc(1.0), _doc(1.05)) == 0
    assert code(_doc(1.0), _doc(1.5)) == 1
    assert "OUTSIDE" in capsys.readouterr().out
    changed = _doc(1.0)
    changed["workloads"]["halo_gravity"]["digest"] = "xyz"
    assert code(_doc(1.0), changed) == 1
    assert code(_doc(1.0), _doc(1.0, smoke=True)) == 2
    other_box = _doc(1.0)
    other_box["provenance"]["nproc"] = 64
    assert code(_doc(1.0), other_box) == 2
    # A workload that crashed has no metrics: reported, not a traceback.
    crashed = _doc(1.0)
    crashed["workloads"]["halo_gravity"] = {
        "fail_share": 1.0, "problem": "exit code 1", "stderr_tail": "", "end_to_end": {},
        "per_layer": {}, "digest": None, "ledger": {},
    }
    capsys.readouterr()
    assert code(_doc(1.0), crashed) == 1
    assert "DID NOT FINISH in B: exit code 1" in capsys.readouterr().out
    assert code(_doc(0.0), _doc(0.0)) == 0
    assert code(_doc(0.0), _doc(1.0)) == 1


# ------------------------------------------------------------ orchestrator
def test_leak_detection_ignores_other_programs_segments(tmp_path, monkeypatch):
    monkeypatch.setattr(orchestrator, "SHM", tmp_path)
    (tmp_path / "psm_1a2b3c").touch()
    (tmp_path / "sem.other-program").touch()
    (tmp_path / "someone_elses_segment").touch()
    assert orchestrator._our_segments() == {"psm_1a2b3c"}
