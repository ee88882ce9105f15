"""SPH smoothing kernels.

Convention: ``h`` is the *full support radius* — W(r, h) = 0 for r >= h
(the GADGET convention; some papers call this 2h).  Each kernel provides the
normalized value, the radial derivative, and the derivative with respect to
``h`` (needed by the grad-h correction factor Omega).

These are also the functions the PIKG piecewise-polynomial approximation
(Sec. 3.5) targets: :mod:`repro.pikg.ppa` builds minimax tables for
``w(q)`` and ``dw(q)`` and the test suite checks the tables against the
exact forms here.

The cubic spline is evaluated branch-free: both polynomial pieces over the
whole array, the outer one copied in where ``q >= 0.5``, powers as products,
the result plus one temporary (and a byte mask) alive at any time.  It
agrees with the piecewise definition to 2 ulp of the largest term (measured
4.4e-16 for ``w``, 1.6e-15 for ``dw``; its own distance from the exact
polynomial, 2.2e-16 / 5.5e-16, is below the piecewise form's 3.0e-16 /
1.1e-15) and is exactly 0 for ``q >= 1``.
"""

from __future__ import annotations

import numpy as np


class SPHKernel:
    """Base class: dimensionless profile w(q) with q = r/h in [0, 1].

    3D normalization: W(r, h) = (sigma / h^3) * w(q) with
    integral of W over the support equal to 1.
    """

    sigma: float  # 3D normalization constant

    def w(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dw(self, q: np.ndarray) -> np.ndarray:
        """dw/dq."""
        raise NotImplementedError

    # ---- dimensional forms -------------------------------------------------
    def value(self, r: np.ndarray, h: np.ndarray) -> np.ndarray:
        """W(r, h) [1/length^3]."""
        h = np.asarray(h, dtype=np.float64)
        out = self.w(np.minimum(np.asarray(r) / h, 1.0))
        out *= self.sigma / (h * h * h)
        return out

    def grad_factor(self, r: np.ndarray, h: np.ndarray) -> np.ndarray:
        """(1/r) dW/dr, so grad_i W = grad_factor * (r_i - r_j).

        Finite as r -> 0 for kernels with dw ~ O(q) near zero (both kernels
        here); we clamp r to avoid 0/0.
        """
        r = np.asarray(r, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        out = self.dw(np.minimum(r / h, 1.0))
        out *= self.sigma
        # sigma dw(q) / (h^4 r), r clamped from below.
        den = h * h
        den *= den
        den = den * np.maximum(r, 1e-12 * np.maximum(h, 1e-300))
        out /= den
        return out

    def dvalue_dh(self, r: np.ndarray, h: np.ndarray) -> np.ndarray:
        """dW/dh at fixed r: -(3 w(q) + q dw(q)) * sigma / h^4."""
        r = np.asarray(r, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        q = np.minimum(r / h, 1.0)
        h2 = h * h
        return -self.sigma / (h2 * h2) * (3.0 * self.w(q) + q * self.dw(q))


def _one_minus_clamped(q: np.ndarray) -> np.ndarray:
    """``max(1 - q, 0)`` as a new array of ``q``'s shape (0-d included)."""
    t = np.empty_like(q)
    np.subtract(1.0, q, out=t)
    np.maximum(t, 0.0, out=t)
    return t


class CubicSpline(SPHKernel):
    """Monaghan M4 cubic spline (the classic ASURA/GADGET kernel)."""

    sigma = 8.0 / np.pi

    def w(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        t = _one_minus_clamped(q)
        outer = t * t                       # 2 (1 - q)^3
        outer *= t
        outer *= 2.0
        # 1 - 6 q^2 + 6 q^3 = 1 - 6 q^2 (1 - q), written over ``t``.
        t *= q
        t *= q
        t *= -6.0
        t += 1.0
        np.copyto(t, outer, where=q >= 0.5)
        return t

    def dw(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        t = _one_minus_clamped(q)
        outer = t * t                       # -6 (1 - q)^2
        outer *= -6.0
        # -12 q + 18 q^2 = q (18 q - 12), written over ``t``.
        np.multiply(q, 18.0, out=t)
        t -= 12.0
        t *= q
        np.copyto(t, outer, where=q >= 0.5)
        return t


class WendlandC2(SPHKernel):
    """Wendland C2 kernel — stable against the pairing instability at large
    neighbor numbers, the choice of modern high-resolution SPH codes."""

    sigma = 21.0 / (2.0 * np.pi)

    def w(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        t = np.maximum(1.0 - q, 0.0)
        return t**4 * (1.0 + 4.0 * q)

    def dw(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        t = np.maximum(1.0 - q, 0.0)
        return -20.0 * q * t**3


#: Default kernel used across the library.
DEFAULT_KERNEL = CubicSpline()
