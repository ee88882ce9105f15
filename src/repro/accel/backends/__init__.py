"""Compute-backend registry for the hot interaction kernels.

The paper's performance story rests on PIKG generating
architecture-specific interaction kernels behind one interface (Sec. 3.5,
Table 4) — the same DSL emits SVE, AVX and CUDA loops.  This package is
that seam for the reproduction: every hot kernel of the force pipeline
(pairwise/tree-walk gravity, SPH density gather, half-pair hydro scatter)
is dispatched through a :class:`~repro.accel.backends.base.KernelBackend`,
and there are two of them:

``numpy``
    The tuned vectorized reference (default) — bincount scatter reduction,
    compacted candidate lists, gravity tiles in pair blocks sized to L2
    (mixed precision).  Every workload runs it.
``pikg``
    Kernels *generated* from the PIKG DSL
    (:func:`repro.pikg.codegen.generate_numba_kernel`), jitted when numba
    is importable, pure Python otherwise; the kernels the DSL does not
    express (the half-pair scatter, the float32 tile) are ``numpy``'s.

Selection: an explicit name (config field ``cfg.backend``, threaded by
:class:`~repro.accel.ForceEngine` and
:class:`~repro.fdps.distributed.DistributedGravity`) wins; otherwise the
``REPRO_BACKEND`` environment variable; otherwise ``numpy``.  Instances
are process-wide singletons — backends hold no per-simulation state (all
caching lives in :class:`~repro.accel.SpatialIndex` and per-solve gather
objects), so sharing them is safe.
"""

from __future__ import annotations

import os

from repro.accel.backends.base import DensityGatherState, KernelBackend
from repro.accel.backends.numpy_backend import NumpyBackend
from repro.accel.backends.pikg_backend import PikgBackend

#: Environment variable consulted when no explicit backend is requested.
ENV_VAR = "REPRO_BACKEND"
DEFAULT_BACKEND = "numpy"

BACKENDS: dict[str, type[KernelBackend]] = {"numpy": NumpyBackend, "pikg": PikgBackend}
_INSTANCES: dict[str, KernelBackend] = {}


def get_backend(name: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve a backend: explicit name > ``$REPRO_BACKEND`` > ``numpy``.

    Passing an instance returns it unchanged (so call sites can thread a
    resolved backend through without re-lookup).  An unknown name raises.
    """
    if isinstance(name, KernelBackend):
        return name
    if name is None:
        name = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    key = name.lower()
    if key not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; backends: {sorted(BACKENDS)}")
    if key not in _INSTANCES:
        _INSTANCES[key] = BACKENDS[key]()
    return _INSTANCES[key]


__all__ = [
    "BACKENDS",
    "DensityGatherState",
    "KernelBackend",
    "get_backend",
]
