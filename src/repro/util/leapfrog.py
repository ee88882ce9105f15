"""In-place kick/drift primitives of the one step host.

:class:`~repro.core.runner.CoupledRunner` — both arms, every ``n_ranks``
and force mode — advances particles through these three functions (its
``kick`` and ``drift``), so a kick reordered in one
place cannot silently break the bit-identity contracts between them.  They take the
*pre-multiplied* interval (callers pass ``0.5 * dt`` for a half kick), which
keeps the float arithmetic literally ``vel += (0.5 * dt) * acc``.
"""

from __future__ import annotations

import numpy as np

#: Internal-energy floor applied by every kick.
U_FLOOR = 1e-12


def leapfrog_kick(vel: np.ndarray, acc: np.ndarray, dt: float) -> None:
    """In-place velocity kick over ``dt`` (pass ``0.5 * dt`` for a half kick)."""
    vel += dt * acc


def energy_kick(u: np.ndarray, du_dt: np.ndarray, dt: float) -> None:
    """In-place internal-energy kick over ``dt``, floored at :data:`U_FLOOR`."""
    u[:] = np.maximum(u + dt * du_dt, U_FLOOR)


def leapfrog_drift(pos: np.ndarray, vel: np.ndarray, dt: float) -> None:
    """In-place position drift over ``dt`` (spatial caches are now stale —
    the caller owns the invalidation, e.g. ``SpatialIndex.invalidate_positions``)."""
    pos += dt * vel
