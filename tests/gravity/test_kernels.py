"""Direct gravity kernels: analytic checks, symmetry, mixed precision."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.backends import numpy_backend
from repro.fdps.interaction import InteractionCounter
from repro.gravity.kernels import (
    accel_between,
    accel_between_mixed,
    accel_direct,
    potential_direct,
    total_potential_energy,
)
from repro.util.constants import GRAV_CONST


def test_two_body_force_magnitude():
    # Unsoftened two-body: |a| = G m / r^2.
    pos = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    acc = accel_direct(pos, np.array([5.0, 3.0]), np.zeros(2))
    assert acc[0, 0] == pytest.approx(GRAV_CONST * 3.0 / 100.0)
    assert acc[1, 0] == pytest.approx(-GRAV_CONST * 5.0 / 100.0)
    assert np.allclose(acc[:, 1:], 0.0)


def test_softening_caps_close_force():
    pos = np.array([[0.0, 0.0, 0.0], [1e-6, 0.0, 0.0]])
    eps = np.array([1.0, 1.0])
    acc = accel_direct(pos, np.ones(2), eps)
    # denominator ~ (eps_i^2 + eps_j^2)^{3/2} = 2^{3/2}
    assert abs(acc[0, 0]) < GRAV_CONST


def test_momentum_conservation_random(rng):
    pos = rng.normal(0, 10, (50, 3))
    mass = rng.uniform(0.5, 2.0, 50)
    eps = np.full(50, 0.3)
    acc = accel_direct(pos, mass, eps)
    # Newton's third law: sum of m*a vanishes.
    assert np.allclose((mass[:, None] * acc).sum(axis=0), 0.0, atol=1e-10)


def test_self_force_is_zero():
    pos = np.zeros((1, 3))
    acc = accel_direct(pos, np.array([1e6]), np.array([0.1]))
    assert np.allclose(acc, 0.0)


def test_counter_counts_n_squared():
    c = InteractionCounter()
    pos = np.random.default_rng(0).normal(size=(20, 3))
    accel_direct(pos, np.ones(20), np.ones(20), counter=c)
    assert c.interactions("gravity") == 400
    assert c.flops("gravity") == 400 * 27


def test_counter_state_does_not_grow_with_adds():
    """One add per tile / pass for the life of a run: the ledger keeps
    running totals per kind, never a list entry per call."""
    import pickle

    rng = np.random.default_rng(1)
    lengths = {kind: rng.integers(1, 5000, 50_000) for kind in ("gravity", "hydro_density")}
    c = InteractionCounter()
    for kind, ll in lengths.items():
        for n_sources in ll.tolist():
            c.add(kind, 256, n_sources)
    size = len(pickle.dumps(c))
    for kind, ll in lengths.items():
        assert c.mean_list_length(kind) == pytest.approx(np.mean(ll), rel=1e-12)
        assert c.interactions(kind) == 256 * int(ll.sum())
    c.add("gravity", 1, 1)
    assert len(pickle.dumps(c)) <= size + 8        # O(kinds), not O(adds)
    assert size < 400
    c.reset()
    assert c.mean_list_length("gravity") == 0.0 and c.interactions("gravity") == 0


def test_mixed_precision_close_to_double(rng):
    pos = rng.normal(0, 100.0, (100, 3)) + np.array([5000.0, 0.0, 0.0])
    mass = rng.uniform(0.5, 2.0, 100)
    eps = np.full(100, 1.0)
    a64 = accel_between(pos, eps, pos, mass, eps, exclude_self=True)
    a32 = accel_between_mixed(pos, eps, pos, mass, eps, exclude_self=True)
    scale = np.linalg.norm(a64, axis=1).max()
    assert np.max(np.abs(a64 - a32)) / scale < 1e-4


def test_mixed_precision_beats_naive_float32_far_from_origin(rng):
    # The point of the relative-coordinate trick: far from the origin a
    # naive float32 cast destroys small separations; the group-relative
    # conversion keeps full single-precision *relative* accuracy.
    offset = np.array([1.0e7, 0.0, 0.0])
    pos = rng.normal(0, 1.0, (50, 3)) + offset
    mass = rng.uniform(0.5, 2.0, 50)
    eps = np.full(50, 0.05)
    a64 = accel_between(pos, eps, pos, mass, eps, exclude_self=True)
    a_mixed = accel_between_mixed(pos, eps, pos, mass, eps, exclude_self=True)

    p32 = pos.astype(np.float32).astype(np.float64)  # naive truncation
    a_naive = accel_between(p32, eps, p32, mass, eps, exclude_self=True)

    scale = np.linalg.norm(a64, axis=1).max()
    err_mixed = np.max(np.abs(a64 - a_mixed)) / scale
    err_naive = np.max(np.abs(a64 - a_naive)) / scale
    assert err_mixed < 1e-3
    assert err_mixed < 0.01 * err_naive


@pytest.mark.parametrize("pairs", [None, 16], ids=["one-chunk", "two-chunks"])
def test_potential_matches_pairwise_sum(rng, monkeypatch, pairs):
    if pairs:
        # 4 x 4 pair blocks: both axes of the 30 x 30 sum split.
        monkeypatch.setattr(numpy_backend, "_TILE_PAIRS", pairs)
    pos = rng.normal(0, 5, (30, 3))
    mass = rng.uniform(0.5, 2.0, 30)
    eps = np.full(30, 0.2)
    pot = potential_direct(pos, mass, eps)
    # brute force
    ref = np.zeros(30)
    for i in range(30):
        for j in range(30):
            if i == j:
                continue
            r2 = np.sum((pos[i] - pos[j]) ** 2)
            ref[i] -= GRAV_CONST * mass[j] / np.sqrt(r2 + eps[i] ** 2 + eps[j] ** 2)
    np.testing.assert_allclose(pot, ref, rtol=1e-13)


def test_total_potential_energy_negative(rng):
    pos = rng.normal(0, 5, (40, 3))
    mass = rng.uniform(0.5, 2.0, 40)
    u = total_potential_energy(pos, mass, np.full(40, 0.2))
    assert u < 0.0


@given(st.integers(2, 30), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_momentum_conservation_property(n, seed):
    rng = np.random.default_rng(seed)
    pos = rng.normal(0, 10, (n, 3))
    mass = rng.uniform(0.1, 10.0, n)
    eps = rng.uniform(0.01, 1.0, n)
    acc = accel_direct(pos, mass, eps)
    f_total = (mass[:, None] * acc).sum(axis=0)
    scale = np.abs(mass[:, None] * acc).sum() + 1e-300
    assert np.all(np.abs(f_total) / scale < 1e-10)


def test_chunking_consistency(rng, monkeypatch):
    # Results must not depend on where the pair blocks are cut.
    pos = rng.normal(0, 10, (300, 3))
    mass = rng.uniform(0.5, 2.0, 300)
    eps = np.full(300, 0.3)
    a_ref = accel_direct(pos, mass, eps)
    monkeypatch.setattr(numpy_backend, "_TILE_PAIRS", 16 * 16)
    a_small = accel_direct(pos, mass, eps)
    assert np.allclose(a_ref, a_small)
