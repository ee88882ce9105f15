"""Kernel normalization, smoothness, and derivative consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sph.kernels import CubicSpline, WendlandC2


KERNELS = [CubicSpline(), WendlandC2()]


@pytest.mark.parametrize("kernel", KERNELS, ids=["cubic", "wendland"])
def test_normalization_integrates_to_one(kernel):
    # 4 pi int_0^h W(r, h) r^2 dr = 1 for any h.
    for h in (0.5, 1.0, 3.7):
        r = np.linspace(0, h, 20001)
        w = kernel.value(r, np.full_like(r, h))
        integral = 4.0 * np.pi * np.trapezoid(w * r**2, r)
        assert integral == pytest.approx(1.0, rel=1e-4)


@pytest.mark.parametrize("kernel", KERNELS, ids=["cubic", "wendland"])
def test_compact_support(kernel):
    assert kernel.value(np.array([1.5]), np.array([1.0]))[0] == 0.0
    assert kernel.w(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kernel", KERNELS, ids=["cubic", "wendland"])
def test_monotone_decreasing(kernel):
    q = np.linspace(0, 1, 500)
    w = kernel.w(q)
    assert np.all(np.diff(w) <= 1e-12)
    assert np.all(kernel.dw(q[1:]) <= 1e-12)


@pytest.mark.parametrize("kernel", KERNELS, ids=["cubic", "wendland"])
def test_dw_matches_finite_difference(kernel):
    q = np.linspace(0.01, 0.99, 300)
    eps = 1e-6
    fd = (kernel.w(q + eps) - kernel.w(q - eps)) / (2 * eps)
    assert np.allclose(kernel.dw(q), fd, atol=1e-4)


@pytest.mark.parametrize("kernel", KERNELS, ids=["cubic", "wendland"])
def test_dvalue_dh_matches_finite_difference(kernel):
    r = np.array([0.3, 0.7, 1.2])
    h = np.full_like(r, 1.5)
    eps = 1e-6
    fd = (kernel.value(r, h + eps) - kernel.value(r, h - eps)) / (2 * eps)
    assert np.allclose(kernel.dvalue_dh(r, h), fd, rtol=1e-4, atol=1e-8)


@pytest.mark.parametrize("kernel", KERNELS, ids=["cubic", "wendland"])
def test_grad_factor_finite_at_origin(kernel):
    gf = kernel.grad_factor(np.array([0.0, 1e-15]), np.array([1.0, 1.0]))
    assert np.all(np.isfinite(gf))


@pytest.mark.parametrize("kernel", KERNELS, ids=["cubic", "wendland"])
def test_grad_points_inward(kernel):
    # (1/r) dW/dr < 0 inside the support: the kernel force is repulsive
    # along +r_ij for positive pressure.
    r = np.linspace(0.05, 0.95, 50)
    h = np.ones_like(r)
    assert np.all(kernel.grad_factor(r, h) <= 0.0)


@given(st.floats(0.1, 10.0), st.floats(0.0, 0.99))
@settings(max_examples=60, deadline=None)
def test_scaling_invariance_property(h, q):
    # W(qh, h) = w(q) * sigma / h^3 for both kernels.  q is kept off the
    # support edge: (1-q)^3 amplifies the rounding of (q*h)/h without bound
    # as q -> 1, which is a property of floats, not of the kernel.
    for kernel in KERNELS:
        val = kernel.value(np.array([q * h]), np.array([h]))[0]
        ref = kernel.sigma / h**3 * kernel.w(np.array([q]))[0]
        assert val == pytest.approx(ref, rel=1e-9, abs=1e-250)


def test_cubic_spline_known_values():
    k = CubicSpline()
    assert k.w(np.array([0.0]))[0] == pytest.approx(1.0)
    assert k.w(np.array([0.5]))[0] == pytest.approx(0.25)


def test_wendland_known_values():
    k = WendlandC2()
    assert k.w(np.array([0.0]))[0] == pytest.approx(1.0)
    assert k.w(np.array([0.5]))[0] == pytest.approx(0.5**4 * 3.0)


def _cubic_piecewise(q):
    """The M4 spline as its definition reads: one boolean mask per piece,
    powers through ``**`` — what the branch-free form replaced."""
    lo = q < 0.5
    hi = (q >= 0.5) & (q < 1.0)
    w, dw = np.zeros_like(q), np.zeros_like(q)
    w[lo] = 1.0 - 6.0 * q[lo] ** 2 + 6.0 * q[lo] ** 3
    w[hi] = 2.0 * (1.0 - q[hi]) ** 3
    dw[lo] = -12.0 * q[lo] + 18.0 * q[lo] ** 2
    dw[hi] = -6.0 * (1.0 - q[hi]) ** 2
    return w, dw


def test_cubic_spline_matches_piecewise_definition():
    """Branch-free against piecewise, to 2 ulp of the largest term either
    form adds up (1 for w; 6 = 12 q at the knot for dw), across both pieces,
    at the knots and their float neighbours, and beyond the support."""
    k = CubicSpline()
    knots = np.array([0.0, 0.5, 1.0])
    q = np.concatenate([
        np.linspace(0.0, 1.2, 200_001), knots,
        np.nextafter(knots, -1.0)[1:], np.nextafter(knots, 2.0),
    ])
    w_ref, dw_ref = _cubic_piecewise(q)
    assert np.abs(k.w(q) - w_ref).max() <= 2 * np.spacing(1.0)
    assert np.abs(k.dw(q) - dw_ref).max() <= 2 * np.spacing(6.0)
    assert np.all(k.w(q[q >= 1.0]) == 0.0) and np.all(k.dw(q[q >= 1.0]) == 0.0)
    assert k.w(knots).tolist() == [1.0, 0.25, 0.0]
    assert k.dw(knots).tolist() == [0.0, -1.5, 0.0]
    # 0-d in, 0-d out, like any ufunc-built profile.
    assert k.w(np.float64(0.25)) == k.w(np.array([0.25]))[0]


@pytest.mark.parametrize("profile", ["w", "dw"])
def test_cubic_spline_peak_memory(profile):
    """The result and at most two more arrays of its size are ever alive:
    the spline sees the 10^6-value sweeps that set the run's peak RSS."""
    import tracemalloc

    q = np.random.default_rng(0).random(10**6) * 1.2
    fn = getattr(CubicSpline(), profile)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(q)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == q.shape
    assert peak <= 3 * q.nbytes
