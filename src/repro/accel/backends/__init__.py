"""Pluggable compute-backend registry for the hot interaction kernels.

The paper's performance story rests on PIKG generating
architecture-specific interaction kernels behind one interface (Sec. 3.5,
Table 4) — the same DSL emits SVE, AVX and CUDA loops.  This package is
that seam for the reproduction: every hot kernel of the force pipeline
(pairwise/tree-walk gravity, SPH density gather, half-pair hydro scatter)
is dispatched through a :class:`~repro.accel.backends.base.KernelBackend`,
and implementations register here by name:

``numpy``
    The tuned vectorized reference (default) — bincount scatter reduction,
    compacted candidate lists, gravity tiles in pair blocks sized to L2 (mixed precision).
``numba``
    ``@njit(parallel=True, fastmath=True)`` scalar-loop kernels with
    grid-walk neighbor iteration; import-gated — selecting it without
    numba installed logs a warning and falls back to ``numpy``.
``pikg``
    Kernels *generated* from the PIKG DSL
    (:func:`repro.pikg.codegen.generate_numba_kernel`), jitted when numba
    is importable, pure Python otherwise.
``seed``
    The pre-registry kernels frozen for benchmarking
    (``benchmarks/bench_backend_kernels.py`` reports speedups against it).

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

from repro.accel.backends.base import BackendUnavailable, DensityGatherState, KernelBackend
from repro.util.logging import get_logger

_log = get_logger("accel.backends")

#: Environment variable consulted when no explicit backend is requested.
ENV_VAR = "REPRO_BACKEND"
DEFAULT_BACKEND = "numpy"

_FACTORIES: dict[str, type[KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}
_WARNED: set[str] = set()


def register_backend(name: str, factory, replace: bool = False) -> None:
    """Register a backend factory (a zero-argument callable, typically the
    class) under ``name``.  The factory may raise
    :class:`BackendUnavailable` when its toolchain is missing; selection
    then falls back to the default with a logged warning."""
    key = name.lower()
    if key in _FACTORIES and not replace:
        raise ValueError(f"backend {name!r} is already registered")
    _FACTORIES[key] = factory
    _INSTANCES.pop(key, None)


def registered_backends() -> list[str]:
    """All registered names, available or not."""
    return sorted(_FACTORIES)


def available_backends() -> list[str]:
    """Registered backends whose construction succeeds in this environment."""
    out = []
    for name in sorted(_FACTORIES):
        try:
            _instance(name)
        except BackendUnavailable:
            continue
        out.append(name)
    return out


def _instance(key: str) -> KernelBackend:
    if key not in _INSTANCES:
        _INSTANCES[key] = _FACTORIES[key]()
    return _INSTANCES[key]


def get_backend(name: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve a backend: explicit name > ``$REPRO_BACKEND`` > ``numpy``.

    Passing an instance returns it unchanged (so call sites can thread a
    resolved backend through without re-lookup).  An unknown name raises;
    a known-but-unavailable one (e.g. ``numba`` without numba installed)
    logs a warning once and returns the default.
    """
    if isinstance(name, KernelBackend):
        return name
    if name is None:
        name = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    key = name.lower()
    if key not in _FACTORIES:
        raise ValueError(
            f"unknown backend {name!r}; registered: {registered_backends()}"
        )
    try:
        return _instance(key)
    except BackendUnavailable as exc:
        if key not in _WARNED:
            _WARNED.add(key)
            _log.warning("backend %r unavailable (%s); falling back to %r",
                         key, exc, DEFAULT_BACKEND)
        return _instance(DEFAULT_BACKEND)


def _register_builtins() -> None:
    from repro.accel.backends.numba_backend import NumbaBackend
    from repro.accel.backends.numpy_backend import NumpyBackend, SeedBackend
    from repro.accel.backends.pikg_backend import PikgBackend

    register_backend("numpy", NumpyBackend)
    register_backend("seed", SeedBackend)
    register_backend("numba", NumbaBackend)
    register_backend("pikg", PikgBackend)


_register_builtins()

__all__ = [
    "BackendUnavailable",
    "DensityGatherState",
    "KernelBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backends",
]
