"""Pairwise gravity kernels (Eq. 1 of the paper).

.. math::

    \\mathbf{F}_{ij} = -G \\frac{m_i m_j}
        {(r_{ij}^2 + \\epsilon_i^2 + \\epsilon_j^2)^{3/2}} \\mathbf{r}_{ij}

The arithmetic lives in the two compute backends of
:mod:`repro.accel.backends` (``numpy``, the reference, and ``pikg``, whose
float64 tile is generated from the PIKG DSL);
the functions here are the stable entry points: they resolve the backend,
dispatch the tile, and report interaction counts to an
:class:`~repro.fdps.interaction.InteractionCounter` for the FLOP accounting
of Table 3/4.

The numpy backend evaluates every tile — a tree group against its list,
the LET imports against a rank's targets, a direct sum — as a sequence of
pair blocks of at most ``_TILE_PAIRS`` (target block x source block,
:func:`~repro.accel.backends.numpy_backend.pair_blocks`), the way a
PIKG-generated kernel keeps a group's i- and j-particles in registers and
cache: in mixed precision the block's planes (1.4 MB) stay in a core's
2 MB L2 whatever the tile's shape; a float64 block is 2.7 MB.
No environment variable, config field or argument selects the block.
What that changes is the float grouping of the sums only: the pairs, their
order, the masked coincident pairs and the interaction counts are those of
one unblocked tile.  Callers that evaluate many tiles pass their own
:class:`~repro.accel.backends.base.TileWorkspace`, which then holds one
block's scratch for the life of its owner.  :func:`potential_direct` runs
over the same blocks.
"""

from __future__ import annotations

import numpy as np

from repro.accel.backends import numpy_backend
from repro.accel.backends.base import KernelBackend, TileWorkspace
from repro.fdps.interaction import InteractionCounter
from repro.util.constants import GRAV_CONST


def accel_between(
    target_pos: np.ndarray,
    target_eps: np.ndarray,
    source_pos: np.ndarray,
    source_mass: np.ndarray,
    source_eps: np.ndarray | None = None,
    counter: InteractionCounter | None = None,
    exclude_self: bool = False,
    g: float = GRAV_CONST,
    backend: str | KernelBackend | None = None,
    mixed: bool = False,
    workspace: TileWorkspace | None = None,
) -> np.ndarray:
    """Acceleration on targets from sources (double precision).

    ``exclude_self`` masks pairs at identical positions (a particle never
    pulls on itself; softening alone would still produce NaN-free zeros, but
    masking keeps the count ledger exact).  ``backend`` is a backend name or
    instance (default: the registry's selection, see
    :func:`repro.accel.backends.get_backend`); ``mixed`` selects the
    float32 variant (see :func:`accel_between_mixed`); ``workspace`` is the
    caller's tile scratch (see :meth:`KernelBackend.grav_tile`).
    """
    from repro.accel.backends import get_backend

    n_src = len(source_pos)
    se = np.zeros(n_src) if source_eps is None else source_eps
    acc = get_backend(backend).grav_tile(
        target_pos, target_eps, source_pos, source_mass, se,
        exclude_self=exclude_self, mixed=mixed, g=g, workspace=workspace,
    )
    if counter is not None:
        counter.add("gravity", len(acc), n_src)
    return acc


def accel_between_mixed(
    target_pos: np.ndarray,
    target_eps: np.ndarray,
    source_pos: np.ndarray,
    source_mass: np.ndarray,
    source_eps: np.ndarray | None = None,
    counter: InteractionCounter | None = None,
    exclude_self: bool = False,
    g: float = GRAV_CONST,
    backend: str | KernelBackend | None = None,
) -> np.ndarray:
    """Mixed-precision kernel (Sec. 4.3).

    Positions are shifted to the centroid of the *target group* (the
    representative value of the receiving particles) and cast to float32
    before the force loop; the accumulation and the final result are float64.
    Relative accuracy of the interaction is single precision while absolute
    double-precision positions survive upstream — exactly the production
    scheme.
    """
    return accel_between(
        target_pos, target_eps, source_pos, source_mass, source_eps,
        counter=counter, exclude_self=exclude_self, g=g, backend=backend,
        mixed=True,
    )


def accel_direct(
    pos: np.ndarray,
    mass: np.ndarray,
    eps: np.ndarray,
    counter: InteractionCounter | None = None,
    g: float = GRAV_CONST,
    backend: str | KernelBackend | None = None,
    workspace: TileWorkspace | None = None,
) -> np.ndarray:
    """Full O(N^2) direct summation — the reference for tree accuracy tests."""
    return accel_between(
        pos, eps, pos, mass, eps, counter=counter, exclude_self=True, g=g,
        backend=backend, workspace=workspace,
    )


def potential_direct(
    pos: np.ndarray,
    mass: np.ndarray,
    eps: np.ndarray,
    g: float = GRAV_CONST,
) -> np.ndarray:
    """Softened specific potential phi_i = -G sum_j m_j / sqrt(r^2 + eps^2).

    Used by the conservation audits (total energy E = K + U + thermal).
    Evaluated in the gravity tile's pair blocks
    (:func:`~repro.accel.backends.numpy_backend.pair_blocks`), so its two
    scratch planes stay one block whatever ``n``.
    """
    xyz = np.ascontiguousarray(np.asarray(pos, dtype=np.float64).T)   # coordinate planes
    mass = np.asarray(mass, dtype=np.float64)
    eps2 = np.asarray(eps, dtype=np.float64) ** 2
    n = len(mass)
    pot = np.zeros(n)
    t_edges, s_edges = numpy_backend.pair_blocks(n, n)
    r2_buf = np.empty(min(n * n, numpy_backend._TILE_PAIRS))
    tmp_buf = np.empty_like(r2_buf)
    for t0, t1 in zip(t_edges[:-1], t_edges[1:], strict=True):
        for s0, s1 in zip(s_edges[:-1], s_edges[1:], strict=True):
            shape = (t1 - t0, s1 - s0)
            r2_c = r2_buf[: shape[0] * shape[1]].reshape(shape)
            tmp_c = tmp_buf[: shape[0] * shape[1]].reshape(shape)
            np.subtract(xyz[0][t0:t1, None], xyz[0][None, s0:s1], out=r2_c)
            np.multiply(r2_c, r2_c, out=r2_c)
            for x_k in xyz[1:]:
                np.subtract(x_k[t0:t1, None], x_k[None, s0:s1], out=tmp_c)
                np.multiply(tmp_c, tmp_c, out=tmp_c)
                np.add(r2_c, tmp_c, out=r2_c)
            coincident = r2_c <= 0.0
            np.add(eps2[t0:t1, None], eps2[None, s0:s1], out=tmp_c)
            np.add(r2_c, tmp_c, out=tmp_c)
            np.sqrt(tmp_c, out=tmp_c)
            np.divide(1.0, tmp_c, out=tmp_c)
            tmp_c[coincident] = 0.0
            pot[t0:t1] -= g * (tmp_c @ mass[s0:s1])
    return pot


def total_potential_energy(
    pos: np.ndarray, mass: np.ndarray, eps: np.ndarray, g: float = GRAV_CONST
) -> float:
    """U = 1/2 sum_i m_i phi_i (each pair counted once)."""
    return float(0.5 * np.sum(mass * potential_direct(pos, mass, eps, g=g)))
