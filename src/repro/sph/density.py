"""SPH density and the iterative kernel-size (h) solve.

Each gas particle adapts ``h_i`` so that a fixed target number of neighbors
falls inside its support:

.. math::  \\frac{4\\pi}{3} h_i^3 \\, n_i(h_i) = N_{\\rm ngb}

with the *smoothed* neighbor number ``N(h) = (4 pi / 3) h^3 sum_j W(r_ij, h)``
on the left: continuous and monotone in ``h``, so the equation has one root
per particle and two samples on either side of it bracket it for good.  One
sweep evaluates ``N`` at the current ``h`` of every particle (one neighbor
exchange with remote ranks — the iteration count the paper tracks in
Sec. 5.2.5: two sweeps with a good initial guess); particles inside ``tol``
stop, the others get a new ``h``:

* *The first update of a particle* is the multiplicative fixed point
  ``h <- h (N_ngb / N)^(1/3)``, clipped to [0.7, 1.5] — the production
  scheme, and all a particle with a good guess ever needs: where it lands
  inside ``tol`` the solve is the one it always was.
* *Every later update* replaces the exponent by ``1/p``,
  ``p = dlnN / dlnh`` measured through the particle's last two samples.
  The fixed point assumes ``p = 3``; on a blast shell or a sheet ``p`` is 1-2
  and it contracts at ~0.65 per sweep, where ``N(h)`` rises faster than
  ``h^3`` (the edge of a clump) it oscillates.  The measured slope converges
  on both.
* *The bracket.*  ``lo`` is the largest ``h`` seen with ``N < N_ngb``, ``hi``
  the smallest with ``N > N_ngb`` (0 and inf until seen).  A proposal outside
  ``(lo, hi)`` is replaced by the geometric midpoint, so every evaluated ``h``
  lies strictly inside the bracket and the bracket never widens.  Towards a
  side not bounded yet the slope is an extrapolation and is trusted less:
  growth by at most the old clip of 1.5 per sweep, shrinking by at most three
  times the distance the slope was measured over.
* *The grid.*  One :class:`NeighborGrid` answers every ``h`` up to its cell.
  A proposal above the cell is first evaluated *at* the cell — the grid in
  hand answers that exactly — and a coarser grid is built only for particles
  whose ``lo`` has reached the cell, i.e. that are known to need it, at most
  1.5 cells wide.  A solve therefore never regrids back and forth across a
  cell boundary.
* *No root.*  Where ``N`` stays above ``N_ngb`` without falling as ``h``
  shrinks, every neighbor in reach coincides with the particle (or the target
  is below the self contribution) and no ``h`` satisfies the equation: the
  particle keeps the larger of its samples instead of shrinking towards 0,
  and is reported in ``n_unconverged``.

Alongside density we accumulate everything else obtainable in the same pass:
the grad-h correction Omega, velocity divergence and curl (for the Balsara
viscosity limiter), pressure and sound speed.

The velocity estimators run on coordinate planes (per-axis ``take`` gathers,
``v.r`` and the curl written out per component), like the backend's pair
kernels.  Exact across the two backends: the gather pair list,
``n_neighbors`` and the sweep count; ``h`` and every sum agree to 1e-9
(summation order, the spline to 2 ulp).  The finalize and the estimators
agree with their row-gather references in ``tests/sph/test_density.py`` to
1e-12.  The gather list is
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
    from repro.accel.backends.base import DensityGatherState, KernelBackend
    from repro.accel.index import SpatialIndex


#: Volume factor of the smoothed neighbor number N(h) = (4 pi / 3) h^3 sum_j W.
_KERNEL_VOLUME = 4.0 * np.pi / 3.0
#: ln of the per-sweep shrink/growth limits of the fixed-point step.
_LN_SHRINK, _LN_GROW = float(np.log(0.7)), float(np.log(1.5))


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
    #: ``(particle, lo, hi, cell)`` when ``n_unconverged > 0``: the root
    #: bracket of the particle furthest from tolerance and the cell of the
    #: grid in hand (what the solve knew about it).
    worst_bracket: tuple[int, float, float, float] | None = None
    grid_builds: int = 0   # neighbor grids constructed during the solve
    #: Candidate lists generated during the solve (a grid found with its list
    #: cached or repaired generates none), and their pairs.
    candidate_generations: int = 0
    candidate_pairs: int = 0
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
    index: SpatialIndex | None = None,
    scope: np.ndarray | None = None,
    backend: str | KernelBackend | None = None,
) -> DensityResult:
    """Solve for h and compute density and companion fields.

    ``tol`` is the acceptable relative deviation of the neighbor count from
    ``n_ngb``; with a good ``h_guess`` convergence takes ~2 sweeps (the
    paper's observation), and a poor one is bracketed and closed in on (the
    module docstring has the update rule).  One :class:`NeighborGrid` is
    built on the first sweep and reused by every subsequent one, rebinning
    only for a particle known to need more than the cell.  The grid always
    comes from a :class:`repro.accel.SpatialIndex`: pass ``index`` to share
    one (a private one serves otherwise), and ``scope`` — the indices of
    ``pos`` in the larger particle set the index serves box queries for — so
    that the cached grid is recognised by the next pass over the same subset.
    The gather sums run on the selected compute backend (name or instance;
    see :func:`repro.accel.backends.get_backend`), which keeps per-solve
    state so repeated sweeps over one grid stay cheap.
    """
    from repro.accel.backends import get_backend
    from repro.accel.index import SpatialIndex

    pos = np.asarray(pos, dtype=np.float64)
    vel = np.asarray(vel, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    n = len(pos)
    h = np.asarray(h_guess, dtype=np.float64).copy()
    bk = get_backend(backend)
    index = index if index is not None else SpatialIndex()      # a private one
    builds_before = index.stats.grid_builds

    used_iter = 0
    n_unconverged = 0
    grid: NeighborGrid | None = None
    gather: DensityGatherState | None = None
    generated: list[int] = []       # pairs of each candidate list generated

    def gather_covering(h_max: float) -> DensityGatherState:
        """The per-solve gather state, rebuilt over a new grid when ``h_max``
        outgrew the binning (or on first use)."""
        nonlocal grid, gather
        new_grid = index.grid_for(pos, h_max, scope=scope)
        if gather is None or new_grid is not grid:
            fresh = not new_grid.has_compact_pairs
            grid = new_grid
            # Every backend's gather state is made over the candidate list.
            gather = bk.density_gather(new_grid, pos, kernel)
            if fresh:
                generated.append(len(new_grid.compact_self_pairs()[0]))
        return gather

    # Per-particle bracket of the root and the sample before the current one
    # (see the module docstring); ``err`` is ln(N / N_ngb).
    lo, hi = np.zeros(n), np.full(n, np.inf)
    h_prev, err_prev = np.zeros(n), np.full(n, np.inf)
    worst_bracket: tuple[int, float, float, float] | None = None

    for it in range(max_iter):
        used_iter = it + 1
        gather = gather_covering(float(h.max()))
        assert grid is not None
        # Smoothed neighbor number: N(h) = (4 pi / 3) h^3 sum_j W(r_ij, h).
        # Unlike the discrete count this is continuous (and monotone) in h,
        # so a bracket of the root is a bracket for good.
        n_smooth = _KERNEL_VOLUME * h**3 * gather.weight_sum(h)
        unconverged = np.abs(n_smooth - n_ngb) > tol * n_ngb
        n_unconverged = int(np.count_nonzero(unconverged))
        if n_unconverged == 0:
            break
        # Every h evaluated lies inside its bracket, so it becomes an end.
        err = np.log(n_smooth / n_ngb)
        lo, hi = np.where(err < 0.0, h, lo), np.where(err > 0.0, h, hi)
        h_next = np.where(
            unconverged, _next_kernel_size(h, err, lo, hi, h_prev, err_prev, grid.cell), h
        )
        if np.array_equal(h_next, h):        # only rootless ones are left
            break
        h_prev, err_prev = np.where(unconverged, h, h_prev), np.where(unconverged, err, err_prev)
        h = h_next

    if n_unconverged and grid is not None:
        k = int(np.argmax(np.where(unconverged, np.abs(err), 0.0)))
        worst_bracket = (k, float(lo[k]), float(hi[k]), grid.cell)

    # A solve that ran out of sweeps returns an h it has not evaluated, and
    # that last update may have outgrown the cell: the final sums and the
    # gather list are made on a grid that covers the h they are made at.
    if grid is None or not grid.covers(float(h.max())):
        gather = gather_covering(float(h.max()))
    assert gather is not None
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
        worst_bracket=worst_bracket,
        grid_builds=index.stats.grid_builds - builds_before,
        candidate_generations=len(generated),
        candidate_pairs=sum(generated),
        grid=grid,
        pairs=pairs,
    )


def _next_kernel_size(
    h: np.ndarray, err: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    h_prev: np.ndarray, err_prev: np.ndarray, cell: float,
) -> np.ndarray:
    """The next ``h`` to evaluate (meaningful for particles outside tolerance).

    ``err = ln(N(h) / N_ngb)`` was just measured at ``h`` and is already an
    end of the bracket ``lo < root < hi``; ``(h_prev, err_prev)`` is the
    sample before it (``err_prev = inf``: there is none).  ``cell`` is the
    largest ``h`` the grid in hand answers exactly.  The result lies strictly
    inside ``(lo, hi)`` — for every particle whose ``N(h)`` has a root.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # h <- h (N_ngb / N)^(1/p).  First update: p = 3, clipped — the
        # fixed point as it always was.  After it: p = dlnN/dlnh through the
        # last two samples, and the step is as long as that slope says.  N
        # is monotone and continuous in h, so a slope outside these bounds
        # is rounding; inside them the step never vanishes.
        reach = np.log(h / h_prev)
        slope = np.fmin(np.fmax((err - err_prev) / reach, 0.0), 1e6)
        step = np.where(
            np.isinf(err_prev), np.clip(-err / 3.0, _LN_SHRINK, _LN_GROW), -err / slope
        )
        # Into a side no sample has bounded yet the slope is an
        # extrapolation.  Growing coarsens the grid of every particle: never
        # beyond the old clip per sweep.  Shrinking costs nothing: up to
        # three times the distance the slope was measured over (a slope
        # taken where N(h) saturates says little about the root).
        step = np.where(np.isinf(hi), np.minimum(step, _LN_GROW), step)
        step = np.where(lo == 0.0, np.maximum(step, -3.0 * np.abs(reach)), step)
        new = h * np.exp(step)
        # A proposal that leaves the bracket has crossed an end that is
        # known, and then so is the other (it is h itself): bisect.
        new = np.where((new > lo) & (new < hi), new, np.sqrt(lo * hi))
        # N above the target that did not fall with h: every neighbor in
        # reach coincides with the particle, N(h) has no root to shrink to.
        # Stay at the larger sample, to be reported as outside tolerance.
        rootless = (err > 0.0) & np.isfinite(err_prev) & (slope < 1e-9)
        new = np.where(rootless, np.maximum(h, h_prev), new)
    # Above the cell: ask the grid in hand at its cell first; a coarser grid
    # is worth building only once N(cell) is known to be too small.
    return np.where((new > cell) & (lo < cell), cell, new)


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
