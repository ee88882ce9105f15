"""SPH density and the iterative kernel-size (h) solve.

Each gas particle adapts ``h_i`` so that a fixed target number of neighbors
falls inside its support:

.. math::  \\frac{4\\pi}{3} h_i^3 \\, n_i(h_i) = N_{\\rm ngb}

solved by the multiplicative fixed point
``h <- h * (N_target / N(h))^{1/3}`` — the production scheme whose iteration
count the paper tracks in Sec. 5.2.5 (two sweeps with a good initial guess;
each sweep is one neighbor exchange with remote ranks).  Alongside density
we accumulate everything else obtainable in the same pass: the grad-h
correction Omega, velocity divergence and curl (for the Balsara viscosity
limiter), pressure and sound speed.

The velocity estimators run on coordinate planes (per-axis ``take`` gathers,
``v.r`` and the curl written out per component), like the backend's pair
kernels.  Exact across backends and against the frozen ``seed`` kernels: the
gather pair list, ``n_neighbors`` and the sweep count; ``h`` and every sum
agree to 1e-12 (summation order, the spline to 2 ulp).  The gather list is
complete at the returned ``h`` — also when the solve ran out of sweeps —
which is what lets the force pass derive its pairs from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.fdps.interaction import InteractionCounter
from repro.sph.eos import pressure, sound_speed_from_density
from repro.sph.kernels import DEFAULT_KERNEL, SPHKernel
from repro.sph.neighbors import NeighborGrid, pair_differences

if TYPE_CHECKING:  # annotation only: the backends import this package
    from repro.accel.backends.base import DensityGatherState


#: Volume factor of the smoothed neighbor number N(h) = (4 pi / 3) h^3 sum_j W.
_KERNEL_VOLUME = 4.0 * np.pi / 3.0


@dataclass
class DensityResult:
    """Output of the density/kernel-size pass."""

    h: np.ndarray
    dens: np.ndarray
    omega: np.ndarray      # grad-h correction factor
    divv: np.ndarray
    curlv: np.ndarray
    pres: np.ndarray
    csnd: np.ndarray
    n_neighbors: np.ndarray
    iterations: int        # h-solve sweeps actually used
    #: Particles still outside ``tol`` on the last sweep (0 = converged;
    #: ``iterations == max_iter`` alone cannot tell the two apart).
    n_unconverged: int = 0
    grid_builds: int = 0   # neighbor grids constructed during the solve
    grid: NeighborGrid | None = None  # the grid of the final sweep (reusable)
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # gather (i, j, r)


def compute_density(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    u: np.ndarray,
    h_guess: np.ndarray,
    n_ngb: int = 64,
    kernel: SPHKernel = DEFAULT_KERNEL,
    max_iter: int = 10,
    tol: float = 0.05,
    counter: InteractionCounter | None = None,
    index=None,
    scope: np.ndarray | None = None,
    backend=None,
) -> DensityResult:
    """Solve for h and compute density and companion fields.

    ``tol`` is the acceptable relative deviation of the neighbor count from
    ``n_ngb``; with a good ``h_guess`` convergence takes ~2 sweeps (the
    paper's observation).  One :class:`NeighborGrid` is built on the first
    sweep and reused by every subsequent one, rebinning only when ``max(h)``
    outgrows the cell size; pass ``index`` (a
    :class:`repro.accel.SpatialIndex`) to source the grid from a shared
    cache instead, and ``scope`` — the indices of ``pos`` in the larger
    particle set the index serves box queries for — so that the cached grid
    is recognised by the next pass over the same subset.  The gather sums run on the selected compute backend
    (name or instance; see :func:`repro.accel.backends.get_backend`), which
    keeps per-solve state so repeated sweeps over one grid stay cheap.
    """
    from repro.accel.backends import get_backend

    pos = np.asarray(pos, dtype=np.float64)
    vel = np.asarray(vel, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    n = len(pos)
    h = np.asarray(h_guess, dtype=np.float64).copy()
    bk = get_backend(backend)

    used_iter = 0
    n_unconverged = 0
    grid: NeighborGrid | None = None
    gather = None
    grid_builds = 0

    def gather_covering(h_max: float) -> DensityGatherState:
        """The per-solve gather state, rebuilt over a new grid when ``h_max``
        outgrew the binning (or on first use)."""
        nonlocal grid, gather, grid_builds
        if index is not None:
            new_grid = index.grid_for(pos, h_max, scope=scope)
        elif grid is None or not grid.covers(h_max):
            new_grid = NeighborGrid.build(pos, h_max)
            grid_builds += 1
        else:
            new_grid = grid
        if gather is None or new_grid is not grid:
            grid = new_grid
            gather = bk.density_gather(grid, pos, kernel)
        return gather

    for it in range(max_iter):
        used_iter = it + 1
        gather = gather_covering(float(h.max()))
        # Smoothed neighbor number: N(h) = (4 pi / 3) h^3 sum_j W(r_ij, h).
        # Unlike the discrete count this is continuous in h, so the
        # multiplicative fixed point converges instead of oscillating
        # between neighbor shells (the standard GADGET/ASURA device).
        n_smooth = _KERNEL_VOLUME * h**3 * gather.weight_sum(h)
        n_smooth = np.maximum(n_smooth, 0.1)
        converged = np.abs(n_smooth - n_ngb) <= tol * n_ngb
        n_unconverged = n - int(np.count_nonzero(converged))
        if n_unconverged == 0:
            break
        fac = np.clip((float(n_ngb) / n_smooth) ** (1.0 / 3.0), 0.7, 1.5)
        h[~converged] *= fac[~converged]

    # A solve that ran out of sweeps returns an h it has not evaluated, and
    # that last update may have outgrown the cell: the final sums and the
    # gather list are made on a grid that covers the h they are made at.
    if grid is None or not grid.covers(float(h.max())):
        gather = gather_covering(float(h.max()))
    dens, drho_dh, counts, pairs = gather.finalize(h, mass)
    if counter is not None:
        counter.add("hydro_density", 1, len(pairs[0]))

    # grad-h term: Omega_i = 1 + (h_i / 3 rho_i) d rho_i / d h_i.
    dens_safe = np.maximum(dens, 1e-300)
    omega = 1.0 + h / (3.0 * dens_safe) * drho_dh
    omega = np.clip(omega, 0.2, 5.0)  # guard against pathological geometry

    divv, curlv = _velocity_estimators(pairs, pos, vel, mass, h, dens_safe, kernel)

    pres = pressure(dens, u)
    csnd = sound_speed_from_density(dens, pres)

    return DensityResult(
        h=h,
        dens=dens,
        omega=omega,
        divv=divv,
        curlv=curlv,
        pres=pres,
        csnd=csnd,
        n_neighbors=counts,
        iterations=used_iter,
        n_unconverged=n_unconverged,
        grid_builds=grid_builds,
        grid=grid,
        pairs=pairs,
    )


def kernel_size_from_neighbors(
    dist: np.ndarray,
    n_ngb: int,
    kernel: SPHKernel = DEFAULT_KERNEL,
    n_bisect: int = 12,
) -> np.ndarray:
    """Kernel sizes from nearest-neighbor distances alone (no grid, no guess).

    ``dist`` is (m, K): row i holds the distances from particle i to its K
    nearest particles, itself included, ascending (a KD-tree query).  Returns
    the ``h`` at which the smoothed neighbor number of
    :func:`compute_density` over those K equals ``n_ngb``, bisected in
    (0, ``dist[:, -1]``] to 2^-``n_bisect`` of that radius.  N(h) is
    monotone in h, so the bisection cannot stall on sheets and shells the
    way the multiplicative fixed point does — the way to seed a few
    particles whose neighborhood was just rewritten.  Rows whose K neighbors
    do not hold ``n_ngb`` even at the last distance are ``inf``.
    """
    dist = np.asarray(dist, dtype=np.float64)

    def n_smooth(h: np.ndarray) -> np.ndarray:
        return _KERNEL_VOLUME * h**3 * kernel.value(dist, h[:, None]).sum(axis=1)

    hi = np.maximum(dist[:, -1], 1e-300)
    bracketed = n_smooth(hi) >= n_ngb
    lo = np.zeros_like(hi)
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        above = n_smooth(mid) > n_ngb
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return np.where(bracketed, 0.5 * (lo + hi), np.inf)


def _velocity_estimators(
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    h: np.ndarray,
    dens_safe: np.ndarray,
    kernel: SPHKernel,
) -> tuple[np.ndarray, np.ndarray]:
    """Standard SPH (divv, curlv) estimators over a gather pair list.

    Shared by the full density pass and the step-7 fast path so the two can
    never diverge.
    """
    i, j, r = pairs
    n = len(dens_safe)
    # m_j (1/r) dW/dr at h_i: the weight all four sums share.
    wgt = kernel.grad_factor(r, h.take(i))
    wgt *= mass.take(j)
    dx, dy, dz = pair_differences(pos, i, j)
    vx, vy, vz = pair_differences(vel, i, j)

    def gather_sum(term: np.ndarray) -> np.ndarray:
        term *= wgt
        return np.bincount(i, weights=term, minlength=n)

    # div v_i = -(1/rho_i) sum_j m_j (v_ij . r_ij) gf
    divv = -gather_sum(vx * dx + vy * dy + vz * dz) / dens_safe
    # curl v_i = (1/rho_i) | sum_j m_j (v_ij x r_ij) gf |
    cx = gather_sum(vy * dz - vz * dy)
    cy = gather_sum(vz * dx - vx * dz)
    cz = gather_sum(vx * dy - vy * dx)
    curlv = np.sqrt(cx * cx + cy * cy + cz * cz) / dens_safe
    return divv, curlv


def refresh_velocity_fields(
    d: DensityResult,
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    kernel: SPHKernel = DEFAULT_KERNEL,
) -> tuple[np.ndarray, np.ndarray]:
    """Recompute (divv, curlv) for *changed velocities only*.

    Valid while positions and kernel sizes match the ``DensityResult`` —
    the cached gather pair list is reused, so no neighbor search or h
    iteration is paid.  This is the step-7 fast path of the integrator
    (positions identical; kicks changed v, cooling changed u).
    """
    assert d.pairs is not None
    dens_safe = np.maximum(d.dens, 1e-300)
    return _velocity_estimators(d.pairs, pos, vel, mass, d.h, dens_safe, kernel)
