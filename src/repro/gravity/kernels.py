"""Pairwise gravity kernels (Eq. 1 of the paper).

.. math::

    \\mathbf{F}_{ij} = -G \\frac{m_i m_j}
        {(r_{ij}^2 + \\epsilon_i^2 + \\epsilon_j^2)^{3/2}} \\mathbf{r}_{ij}

The arithmetic lives in the pluggable compute backends of
:mod:`repro.accel.backends` (numpy reference, numba JIT, PIKG-generated);
the functions here are the stable entry points: they resolve the backend,
dispatch the tile, and report interaction counts to an
:class:`~repro.fdps.interaction.InteractionCounter` for the FLOP accounting
of Table 3/4.

The numpy backend chunks the source axis to bound temporary memory; the
tile size comes from :func:`grav_chunk_size` (env-tunable via
``REPRO_GRAV_CHUNK`` / ``REPRO_GRAV_TEMP_MB``).  Callers that evaluate many
tiles pass their own :class:`~repro.accel.backends.base.TileWorkspace` so
those temporaries are reused instead of re-allocated per tile.
"""

from __future__ import annotations

import os

import numpy as np

from repro.accel.backends.base import TileWorkspace
from repro.fdps.interaction import InteractionCounter
from repro.util.constants import GRAV_CONST

#: Default temporary-buffer budget (MiB) for one source-axis tile of the
#: vectorized kernel; ~64 MiB reproduces the historical 4096-source chunk
#: at the default interaction-group size of 256 targets.
DEFAULT_GRAV_TEMP_MB = 64.0

#: float64 temporaries per (target, source) pair the budget is counted in:
#: three separation planes plus four scalars of an allocate-per-call tile.
_TILE_DOUBLES = 7


def grav_chunk_size(n_targets: int) -> int:
    """Source-axis tile size for the vectorized pairwise kernel.

    ``REPRO_GRAV_CHUNK`` forces a fixed value; otherwise the chunk is sized
    so one tile's temporaries fit a ``REPRO_GRAV_TEMP_MB`` (default 64 MiB)
    budget, clamped to [256, 65536].  Benchmarks record the value actually
    chosen (``benchmarks/bench_backend_kernels.py``).

    The budget counts the 7 doubles per pair of the allocate-per-call tile;
    a caller-owned :class:`~repro.accel.backends.base.TileWorkspace` holds 5
    reals + 1 byte per pair of the *largest* chunk it has served (about
    5/7 of the budget in float64, half that in mixed precision) for as long
    as its owner lives.  The workspace belongs to the caller of the force
    pass, never to the registry's shared backend instance, and serves one
    tile at a time (not thread-safe).
    """
    forced = os.environ.get("REPRO_GRAV_CHUNK")
    if forced:
        return max(int(forced), 16)
    budget_mb = float(os.environ.get("REPRO_GRAV_TEMP_MB", DEFAULT_GRAV_TEMP_MB))
    per_source = _TILE_DOUBLES * 8 * max(int(n_targets), 1)
    return int(np.clip(budget_mb * 2**20 // per_source, 256, 65536))


def accel_between(
    target_pos: np.ndarray,
    target_eps: np.ndarray,
    source_pos: np.ndarray,
    source_mass: np.ndarray,
    source_eps: np.ndarray | None = None,
    counter: InteractionCounter | None = None,
    exclude_self: bool = False,
    g: float = GRAV_CONST,
    backend=None,
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
    backend=None,
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
    backend=None,
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
    """
    xyz = np.ascontiguousarray(np.asarray(pos, dtype=np.float64).T)   # coordinate planes
    mass = np.asarray(mass, dtype=np.float64)
    eps2 = np.asarray(eps, dtype=np.float64) ** 2
    n = len(mass)
    pot = np.zeros(n)
    chunk = grav_chunk_size(n)
    r2 = np.empty((n, min(chunk, n)))
    tmp = np.empty_like(r2)
    for s0 in range(0, n, chunk):
        s1 = min(s0 + chunk, n)
        r2_c, tmp_c = r2[:, : s1 - s0], tmp[:, : s1 - s0]
        np.subtract(xyz[0][:, None], xyz[0][None, s0:s1], out=r2_c)
        np.multiply(r2_c, r2_c, out=r2_c)
        for x_k in xyz[1:]:
            np.subtract(x_k[:, None], x_k[None, s0:s1], out=tmp_c)
            np.multiply(tmp_c, tmp_c, out=tmp_c)
            np.add(r2_c, tmp_c, out=r2_c)
        coincident = r2_c <= 0.0
        np.add(eps2[:, None], eps2[None, s0:s1], out=tmp_c)
        np.add(r2_c, tmp_c, out=tmp_c)
        np.sqrt(tmp_c, out=tmp_c)
        np.divide(1.0, tmp_c, out=tmp_c)
        tmp_c[coincident] = 0.0
        pot -= g * (tmp_c @ mass[s0:s1])
    return pot


def total_potential_energy(
    pos: np.ndarray, mass: np.ndarray, eps: np.ndarray, g: float = GRAV_CONST
) -> float:
    """U = 1/2 sum_i m_i phi_i (each pair counted once)."""
    return float(0.5 * np.sum(mass * potential_direct(pos, mass, eps, g=g)))
