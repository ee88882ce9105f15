"""The step host's state does not depend on where the cuts fall.

One class (:class:`repro.core.runner.CoupledRunner`) runs every ``n_ranks``,
so ``n_ranks=1`` is not a second implementation to agree with: it is the
same code with no cut.  What this suite pins is cut-independence — an
``n_ranks > 1`` run over one shared surrogate service produces *byte-for-
byte* the particle state, event ids and request wire bytes of the no-cut
run, while genuinely paying for domain migration, cross-rank SN-region
ghosts and per-rank pool traffic on the communication ledgers.  The ICs below
force one SN whose (60 pc)^3 region straddles a domain cut, so every run
exercises the ``region_ghost`` path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GalaxySimulation
from repro.core.integrator import IntegratorConfig
from repro.core.pool import PoolOccupancy
from repro.fdps.domain import DomainDecomposition, process_grid
from repro.fdps.particles import ParticleSet, ParticleType
from repro.ic.galaxy import make_mw_mini
from repro.physics.star_formation import StarFormationModel
from repro.sn.turbulence import make_turbulent_box

DT = 2e-3
N_POOL = 3
LATENCY = 2
SEED = 7
STEPS = 4


def _boundary_sn_ic():
    """A mini galaxy with one SN at the 2-rank cut and gas on both sides.

    The star sits at the gas median x — the (2, 1, 1) multisection cuts
    there — and six gas particles are planted inside its 60 pc cube with
    modest smoothing lengths (the IC's kpc-scale gas h would make the voxel
    deposit pathologically wide).
    """
    ps = make_mw_mini(n_total=800, seed=1)
    stars = np.flatnonzero(ps.where_type(ParticleType.STAR))
    gas = np.flatnonzero(ps.where_type(ParticleType.GAS))
    medx = np.median(ps.pos[ps.where_type(ParticleType.GAS), 0])
    si = stars[0]
    ps.pos[si] = [medx, 0.0, 0.0]
    ps.tsn[si] = 1e-3  # explodes on step 0
    rng = np.random.default_rng(3)
    ps.pos[gas[:6]] = ps.pos[si] + rng.uniform(-25.0, 25.0, size=(6, 3))
    ps.h[gas[:6]] = 10.0
    return ps


def _config():
    # Cooling off: the planted clump is unphysically dense and makes the
    # cooling substepping stiff; the coupling machinery under test here is
    # orthogonal to it (cooling/SF cut-independence is covered below).
    return IntegratorConfig(
        enable_cooling=False, enable_star_formation=False, seed=SEED
    )


def _run(n_ranks, **kw):
    sim = GalaxySimulation(
        _boundary_sn_ic(), dt=DT, n_pool=N_POOL, latency_steps=LATENCY,
        seed=SEED, config=_config(), n_ranks=n_ranks, **kw,
    )
    sim.run(STEPS)
    return sim


@pytest.fixture(scope="module")
def no_cut_state():
    sim = _run(1)
    state = sim.ps.pack().tobytes()
    diag = sim.diagnostics()
    events = [e.event_id for e in sim.pool.events]
    bytes_per_event = [e.region_bytes for e in sim.pool.events]
    p2p = sim.integrator.comm_stats()["pool_p2p"]
    sim.close()
    return state, diag, events, bytes_per_event, p2p


@pytest.mark.parametrize("n_ranks", [2, 3])
@pytest.mark.parametrize("use_torus", [False, True])
@pytest.mark.parametrize("transport", ["sync", "shm"])
def test_state_independent_of_cuts(no_cut_state, n_ranks, use_torus, transport):
    """{2, 3} ranks x {flat, torus} x {sync, shm}: the bytes of
    the no-cut run."""
    ref_state, ref_diag, *_ = no_cut_state
    kw = {} if transport == "sync" else {
        "serve_transport": transport, "serve_workers": 2,
    }
    sim = _run(n_ranks, use_torus=use_torus, **kw)
    try:
        assert sim.ps.pack().tobytes() == ref_state
        diag = sim.diagnostics()
        assert diag["n_sn_events"] == ref_diag["n_sn_events"] == 1
        assert diag["time"] == ref_diag["time"]
        assert diag["step"] == ref_diag["step"]
    finally:
        sim.close()


def test_region_ghost_ledger_charged():
    """The boundary-crossing SN region pulls ghosts: bytes on the ledger."""
    sim = _run(2)
    try:
        stats = sim.integrator.comm_stats()
        ghost = stats["region_ghost"]
        assert ghost.bytes_total > 0
        assert ghost.n_messages >= 1
        # Migration is real too: refits move particles between the ranks.
        assert stats["exchange_particles"].bytes_total > 0
    finally:
        sim.close()


def test_event_ids_and_region_bytes_independent_of_cuts(no_cut_state):
    """Shared-server event ids and per-event region bytes are rank-free."""
    _, _, ref_events, ref_bytes, _ = no_cut_state
    sim = _run(2)
    try:
        events = sorted(
            (e for pool in sim.integrator.pools for e in pool.events),
            key=lambda e: e.event_id,
        )
        assert [e.event_id for e in events] == ref_events
        assert [e.region_bytes for e in events] == ref_bytes
    finally:
        sim.close()


def test_pool_p2p_ledger_independent_of_cuts(no_cut_state):
    """Every byte the 2-rank run's per-rank clients charge to ``pool_p2p``
    is on the no-cut run's ledger too — requests and responses are
    rank-free wire buffers."""
    ref = no_cut_state[4]
    assert ref.bytes_total > 0
    sim = _run(2)
    try:
        got = sim.integrator.comm_stats()["pool_p2p"]
        assert got.bytes_total == ref.bytes_total
        assert got.n_messages == ref.n_messages
        assert got.n_calls == ref.n_calls
    finally:
        sim.close()


def test_run_report_reconciles_with_merged_ledger(tmp_path):
    """``repro.obs report`` comm rows == the merged in-process ledger."""
    from repro.obs.export import write_run
    from repro.obs.report import report_run
    from repro.obs.trace import Tracer

    tr = Tracer(run_id="coupled")
    sim = GalaxySimulation(
        _boundary_sn_ic(), dt=DT, n_pool=N_POOL, latency_steps=LATENCY,
        seed=SEED, config=_config(), n_ranks=2, tracer=tr,
    )
    sim.run(STEPS)
    try:
        merged = sim.integrator.comm_stats()
        write_run(tr, tmp_path / "run")
        report = report_run(tmp_path / "run")
        active = {label for label, s in merged.items() if s.n_calls}
        assert active and active <= set(report.comm)
        for label, stats in merged.items():
            if stats.n_calls == 0:
                continue
            row = report.comm[label]
            assert int(row["bytes"]) == stats.bytes_total
            assert int(row["messages"]) == stats.n_messages
            assert int(row["critical_bytes"]) == stats.critical_bytes
            assert int(row["calls"]) == stats.n_calls
    finally:
        sim.close()


# ------------------------------------------------- force_mode="distributed"
# Gravity through per-rank trees + LET imports is tree-code accurate, not
# bitwise cut-independent; these pin what it does keep.


def _distributed_run(n_ranks):
    return GalaxySimulation(
        make_mw_mini(n_total=800, seed=1), dt=DT, n_pool=N_POOL, seed=SEED,
        config=_config(), n_ranks=n_ranks, coupled_force_mode="distributed",
    )


def test_distributed_mode_conserves_momentum():
    sim = _distributed_run(4)
    p0 = sim.ps.momentum()
    with sim:
        sim.run(3)
        ps = sim.ps
        scale = np.abs(ps.mass[:, None] * ps.vel).sum()
        assert np.all(np.abs(ps.momentum() - p0) < 2e-3 * scale)  # tree asymmetry only
        assert len(ps) == 800


def test_distributed_mode_matches_one_rank():
    """4 ranks vs 1: the same particles on trajectories that agree to
    tree-code accuracy (per-rank trees + LET imports vs one tree)."""
    runs = []
    for n_ranks in (1, 4):
        with _distributed_run(n_ranks) as sim:
            sim.run(3)
            runs.append((sim.ps.copy(), sim.diagnostics()["kinetic_energy"]))
    (one, ke1), (four, ke4) = runs
    assert np.array_equal(one.pid, four.pid)
    disp = np.linalg.norm(one.pos - four.pos, axis=1)
    assert np.median(disp) < 1e-3 * np.linalg.norm(one.pos, axis=1).mean()
    assert abs(ke4 - ke1) <= 1e-5 * abs(ke1)


def test_distributed_mode_builds_one_tree_per_rank_per_step():
    """After a warm-up step, each step builds exactly one tree per rank —
    it serves the LET export and the force walk — and pays LET bytes."""
    with _distributed_run(4) as sim:
        sim.run(1)
        driver = sim.integrator.driver
        for index in driver.indices:
            index.stats.reset()
        driver.comm.reset_stats()
        sim.run(3)
        assert [i.stats.tree_builds for i in driver.indices] == [3] * 4
        assert driver.comm.stats["exchange_let"].bytes_total > 0


def _star(pos, pid, tsn):
    star = ParticleSet.empty(1)
    star.pos[:] = pos
    star.mass[:] = 20.0
    star.ptype[:] = int(ParticleType.STAR)
    star.pid[:] = pid
    star.tsn[:] = tsn
    star.eps[:] = 1.0
    return star


def _star_forming_ic():
    """A cold turbulent box with a doomed star near its centre."""
    box = make_turbulent_box(n_per_side=8, side=60.0, mean_density=0.1,
                             temperature=30.0, mach=1.0, seed=3)
    return box.append(_star([1.0, 2.0, -3.0], pid=10_000_000, tsn=1e-3))


def _full_physics_run(n_ranks):
    sf = StarFormationModel(density_threshold=0.01, temperature_threshold=500.0,
                            efficiency=50.0, require_converging=False)
    sim = GalaxySimulation(
        _star_forming_ic(), dt=DT, n_pool=N_POOL, latency_steps=LATENCY,
        seed=SEED, surrogate_grid=8, config=IntegratorConfig(seed=SEED),
        star_formation=sf, n_ranks=n_ranks,
    )
    sim.run(STEPS)
    diag = sim.diagnostics()
    state = sim.ps.pack().tobytes()
    sim.close()
    return state, diag


@pytest.fixture(scope="module")
def no_cut_full_physics():
    return _full_physics_run(1)


@pytest.mark.parametrize("n_ranks", [2, 3])
def test_state_independent_of_cuts_with_cooling_and_star_formation(
    no_cut_full_physics, n_ranks
):
    """Cooling + star formation on: still the bytes of the no-cut run.

    Star formation fires (gas disappears, new star pids appear) and an SN
    prediction is dispatched and applied, so the host's owner remap across
    a membership change is on the compared path.
    """
    ref_state, ref_diag = no_cut_full_physics
    assert ref_diag["n_sf_events"] > 0
    assert ref_diag["pool"]["n_returned"] == 1
    state, diag = _full_physics_run(n_ranks)
    assert state == ref_state
    assert diag["n_sf_events"] == ref_diag["n_sf_events"]
    assert sum(diag["rank_counts"]) == diag["n_particles"]


def _request_wire_bytes(n_ranks, ps):
    """Run two steps; return every dispatched request's wire bytes, the
    cuts the first dispatch saw, and the final ledger."""
    cfg = IntegratorConfig(enable_cooling=False, enable_star_formation=False,
                           self_gravity=False, seed=SEED)
    sim = GalaxySimulation(ps, dt=DT, n_pool=N_POOL, latency_steps=LATENCY,
                           seed=SEED, surrogate_grid=8, config=cfg,
                           n_ranks=n_ranks)
    sent = []
    submit = sim.server.submit

    def recording_submit(*args, **kwargs):
        request = submit(*args, **kwargs)
        sent.append(request.to_buffer().tobytes())
        return request

    sim.server.submit = recording_submit
    decomp = sim.integrator.decomp      # the cuts the first dispatch sees
    sim.run(2)
    sim.close()
    return sent, decomp, sim.integrator.comm_stats()


@given(
    n_ranks=st.integers(1, 4),
    offset=st.floats(-24.0, 24.0),
    data=st.data(),
)
@settings(max_examples=12, deadline=None)
def test_request_wire_bytes_independent_of_cuts(n_ranks, offset, data):
    """An SN within +-30 pc of a cut ships the request the no-cut run ships.

    The site is ``offset`` from a drawn face of a drawn rank's domain (the
    box centre on one rank, which has no cut); a second star mirrored across
    the face fires one step later, after the first migration.
    """
    box = make_turbulent_box(n_per_side=10, side=120.0, mean_density=0.05,
                             temperature=100.0, mach=1.0, seed=5)
    probe = DomainDecomposition.fit(box.pos, process_grid(n_ranks))
    rank = data.draw(st.integers(0, n_ranks - 1), label="rank")
    lo, hi = probe.finite_domain_box(rank, box.pos.min(axis=0), box.pos.max(axis=0))
    faces = [
        (axis, face[axis])
        for face in probe.domain_box(rank)
        for axis in range(3)
        if np.isfinite(face[axis])
    ]
    site = 0.5 * (lo + hi)
    mirror = site.copy()
    axis, cut = data.draw(st.sampled_from(faces), label="face") if faces else (0, site[0])
    site[axis] = cut + offset
    mirror[axis] = cut - offset

    def ic():
        return box.copy().append(_star(site, 10_000_000, 1e-3)).append(
            _star(mirror, 10_000_001, 3e-3)
        )

    sent, decomp, ledger = _request_wire_bytes(n_ranks, ic())
    ref, _, _ = _request_wire_bytes(1, ic())
    assert len(sent) == 2
    assert sent == ref
    if faces:
        # Adding the stars moves a quantile cut by a lattice gap at most, so
        # the first region still crosses it and is completed with ghosts.
        owner_faces = np.concatenate(decomp.domain_box(int(decomp.assign(site[None])[0])))
        assert np.min(np.abs(owner_faces - np.tile(site, 2))) <= 30.0
        assert ledger["region_ghost"].bytes_total > 0


def test_owner_remap_after_membership_change():
    """Surviving pids keep their owner; fresh pids are assigned by position."""
    sim = _run(2)
    try:
        runner = sim.integrator
        ps = runner.ps
        before = dict(zip(ps.pid.tolist(), runner.owner.tolist()))
        # Drop the first particle, append one fresh star far on the +x side.
        new_ps = ps.select(np.arange(1, len(ps)))
        star = ps.select(np.array([len(ps) - 1])).copy()
        star.pid[0] = int(ps.pid.max()) + 1
        star.ptype[0] = int(ParticleType.STAR)
        star.pos[0] = [1e5, 0.0, 0.0]
        new_ps = new_ps.append(star)
        runner._replace_particle_set(new_ps)
        assert len(runner.owner) == len(runner.ps)
        for pid, owner in zip(runner.ps.pid.tolist(), runner.owner.tolist()):
            if pid in before:
                assert owner == before[pid]
        # The fresh star is far beyond the cut: it belongs to the last rank.
        assert runner.owner[-1] == runner.decomp.assign(
            runner.ps.pos[-1:]
        )[0]
    finally:
        sim.close()


def test_shared_occupancy_prevents_double_booking():
    """Two clients of one calendar can never book the same node twice."""
    occ = PoolOccupancy(n_pool=2)
    assert occ.free_rank(0) == 0
    occ.book(0, until_step=5)
    assert occ.free_rank(0) == 1
    occ.book(1, until_step=5)
    assert occ.free_rank(0) is None
    assert occ.free_rank(5) == 0  # both free again at their until_step
