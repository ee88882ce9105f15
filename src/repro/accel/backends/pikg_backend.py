"""PIKG backend: DSL-generated kernels driving the production fast path.

The production code never hand-writes interaction kernels — PIKG emits them
per ISA from the DSL (Sec. 3.5).  This backend does the same for the
reproduction: the gravity tile and the cubic-spline density gather are
*generated* from :data:`~repro.pikg.dsl.GRAVITY_DSL` /
:data:`~repro.pikg.dsl.CUBIC_DENSITY_DSL` through
:func:`~repro.pikg.codegen.generate_numba_kernel` and plugged into the
kernel slots ``numpy`` fills by hand.  Kernels are numba-jitted
when numba is importable and run as plain Python otherwise (correct but
slow — fine for the parity tests a bare environment runs).

Coverage follows what the DSL expresses: the hydro force (whose half-pair
scatter structure the tile DSL does not model), the velocity estimators,
the gather's finalize and the mixed-precision gravity variant inherit the
numpy reference — and with it, where the host's ``cc`` builds them, its
compiled SPH loops (:mod:`repro.accel.backends.compiled`), bit-identical to
its numpy code, so ``pikg`` agrees with ``numpy`` on those bit for bit
either way.  The density gather feeds the
generated kernel the grid's candidate list as it is (a reach list too, the
very list the numpy gather reads), unfiltered: pairs beyond the
support radius contribute exactly zero because the DSL encodes the cutoff
branch-free (``max(1-q, 0)``), the same trick the production PIKG uses
instead of per-lane branches.
"""

from __future__ import annotations

import numpy as np

from repro.accel.backends.numpy_backend import (  # PIKG inherits the kernels its DSL does not express
    NumpyBackend,
    _NumpyDensityGather,
)
from repro.pikg.codegen import generate_numba_kernel
from repro.pikg.dsl import CUBIC_DENSITY_DSL, GRAVITY_DSL, parse_kernel
from repro.sph.kernels import CubicSpline
from repro.util.constants import GRAV_CONST


class _PikgDensityGather(_NumpyDensityGather):
    """Gather sweeps through the generated density kernel.

    Finalization (grad-h sums, pair-list emission) inherits the reference
    implementation — the DSL covers the density sum itself.
    """

    def __init__(self, grid, pos, kernel, pikg_kernel) -> None:
        super().__init__(grid, pos, kernel)
        # The generated kernel walks one (i, j) array pair: the list as one.
        self.ci, self.cj, _ = self.candidates.select()
        self._pikg = pikg_kernel
        self._pos = np.asarray(pos, dtype=np.float64)
        self._ones = np.ones(self.n)

    def weight_sum(self, h: np.ndarray) -> np.ndarray:
        out = self._pikg(
            {"xi": self._pos, "hinv_i": 1.0 / h},
            {"xj": self._pos, "m_j": self._ones},
            self.ci, self.cj,
        )
        return out["rho"]


class PikgBackend(NumpyBackend):
    """Kernels generated from the PIKG DSL (numba-jitted when available)."""

    name = "pikg"

    def __init__(self) -> None:
        self._grav = generate_numba_kernel(
            parse_kernel(GRAVITY_DSL, name="pikg_gravity"), layout="tile"
        )
        self._dens = generate_numba_kernel(
            parse_kernel(CUBIC_DENSITY_DSL, name="pikg_density"), layout="pairs"
        )

    @property
    def jitted(self) -> bool:
        """True when the generated kernels compiled through numba."""
        return bool(self._grav.jitted)

    # ------------------------------------------------------------- gravity
    def grav_tile(
        self, target_pos, target_eps, source_pos, source_mass, source_eps,
        exclude_self: bool = False, mixed: bool = False, g: float = GRAV_CONST,
        workspace=None,
    ) -> np.ndarray:
        te = np.asarray(target_eps, dtype=np.float64)
        se = np.asarray(source_eps, dtype=np.float64)
        if mixed or (np.any(te <= 0.0) and np.any(se <= 0.0)):
            # The DSL kernel has no coincident-pair mask: rsqrt(0) goes NaN
            # unless nonzero softening keeps r2 > 0 (production always has
            # some).  Whenever softening cannot guarantee that on both
            # sides — and for the float32 variant — fall back to the
            # reference implementation.
            return super().grav_tile(
                target_pos, target_eps, source_pos, source_mass, source_eps,
                exclude_self=exclude_self, mixed=mixed, g=g, workspace=workspace,
            )
        out = self._grav(
            {"xi": target_pos, "eps2_i": te**2},
            {"xj": source_pos, "m_j": source_mass, "eps2_j": se**2},
        )
        return g * out["f"]

    # ------------------------------------------------------------- density
    def density_gather(self, grid, pos, kernel):
        if not isinstance(kernel, CubicSpline):
            return super().density_gather(grid, pos, kernel)
        return _PikgDensityGather(grid, pos, kernel, self._dens)
