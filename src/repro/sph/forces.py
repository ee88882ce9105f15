"""SPH momentum and energy equations.

Density–energy formulation with grad-h correction factors (Omega) and
Monaghan artificial viscosity moderated by the Balsara switch:

.. math::

    \\frac{d\\mathbf{v}_i}{dt} = -\\sum_j m_j \\Big[
        \\frac{P_i}{\\Omega_i \\rho_i^2} \\nabla_i W(h_i)
      + \\frac{P_j}{\\Omega_j \\rho_j^2} \\nabla_i W(h_j)
      + \\Pi_{ij} \\overline{\\nabla_i W} \\Big]

    \\frac{du_i}{dt} = \\frac{P_i}{\\Omega_i \\rho_i^2}
        \\sum_j m_j \\mathbf{v}_{ij} \\cdot \\nabla_i W(h_i)
      + \\frac{1}{2} \\sum_j m_j \\Pi_{ij}
        \\mathbf{v}_{ij} \\cdot \\overline{\\nabla_i W}

The pairwise loop is evaluated once per *unordered* pair (half-pair edge
list): every shared factor — kernel gradients, viscosity, signal velocity —
is computed once and mirrored onto both endpoints by scatter-add with the
sign flip the antisymmetry dictates.  Momentum conservation therefore holds
to machine precision by construction (the i and j contributions are the
same product scaled by m_j and m_i) while the kernel work is half that of
the ordered-pair formulation — verified property-style in the test suite.

The per-pair arithmetic and the scatter reduction run on the selected
compute backend (:mod:`repro.accel.backends`): a vectorized
bincount-reduction on coordinate planes, on both ``numpy`` and ``pikg``
(the PIKG DSL does not express the half-pair scatter, so ``pikg`` inherits
``numpy``'s kernel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fdps.interaction import InteractionCounter
from repro.sph.kernels import DEFAULT_KERNEL, SPHKernel
from repro.sph.neighbors import NeighborGrid


@dataclass
class HydroForceResult:
    acc: np.ndarray          # (N, 3) hydrodynamic acceleration
    du_dt: np.ndarray        # (N,) specific internal energy rate
    v_signal: np.ndarray     # (N,) max signal velocity (for the CFL step)
    n_pairs: int             # unordered pairs evaluated
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def compute_hydro_forces(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    h: np.ndarray,
    dens: np.ndarray,
    pres: np.ndarray,
    csnd: np.ndarray,
    omega: np.ndarray | None = None,
    divv: np.ndarray | None = None,
    curlv: np.ndarray | None = None,
    kernel: SPHKernel = DEFAULT_KERNEL,
    alpha_visc: float = 1.0,
    beta_visc: float = 2.0,
    counter: InteractionCounter | None = None,
    grid: NeighborGrid | None = None,
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    backend=None,
) -> HydroForceResult:
    """Evaluate hydro accelerations and energy rates for all particles.

    ``grid`` reuses a prebuilt neighbor grid (e.g. the density solve's) for
    the pair search; ``pairs`` skips the search entirely by supplying a
    previously returned half-pair edge list ``(i, j, r)`` — valid only while
    positions and kernel sizes are unchanged (the step-7 fast path of the
    integrator, where only the internal energy moved).  ``backend`` is a
    compute-backend name or instance (default: the registry's selection).
    """
    from repro.accel.backends import get_backend

    pos = np.asarray(pos, dtype=np.float64)
    vel = np.asarray(vel, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    dens = np.asarray(dens, dtype=np.float64)
    pres = np.asarray(pres, dtype=np.float64)
    csnd = np.asarray(csnd, dtype=np.float64)
    n = len(pos)
    omega = np.ones(n) if omega is None else np.asarray(omega, dtype=np.float64)

    if divv is not None and curlv is not None:
        # Per-particle Balsara limiter; the backend averages it per pair.
        balsara = np.abs(divv) / (
            np.abs(divv) + np.asarray(curlv) + 1e-4 * csnd / np.maximum(h, 1e-300)
        )
    else:
        balsara = None

    acc, du_dt, v_signal, out_pairs = get_backend(backend).hydro_force_pairs(
        pos, vel, mass, h, dens, pres, csnd, omega, balsara,
        alpha_visc, beta_visc, kernel, grid=grid, pairs=pairs,
    )
    n_pairs = len(out_pairs[0])
    if counter is not None:
        # Each unordered pair is two interactions of the ordered formulation.
        counter.add("hydro_force", 2, n_pairs)
    return HydroForceResult(
        acc=acc, du_dt=du_dt, v_signal=v_signal, n_pairs=n_pairs, pairs=out_pairs
    )
