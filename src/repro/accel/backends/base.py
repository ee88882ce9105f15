"""The compute-backend contract: the four hot kernels behind one interface.

A :class:`KernelBackend` owns the per-interaction arithmetic of the force
pipeline — exactly the kernels PIKG generates per ISA in the production code
(Sec. 3.5, Table 4):

* **gravity tile** (:meth:`KernelBackend.grav_tile`) — the dense
  (targets x sources) pairwise kernel used by direct summation *and* by the
  group-vs-interaction-list evaluation inside the tree walk, with its
  temporaries in a caller-owned :class:`TileWorkspace`;
* **density gather** (:meth:`KernelBackend.density_gather`) — the
  h-iteration inner loop of the SPH kernel-size solve: repeated
  sum-of-W sweeps over one neighbor binning, then the final density /
  grad-h sums;
* **velocity estimators** (:meth:`KernelBackend.velocity_estimators`) —
  ``divv`` / ``curlv`` over the gather list, in the density pass and in the
  step-7 fast path;
* **hydro force scatter** (:meth:`KernelBackend.hydro_force_pairs`) — the
  half-pair momentum/energy/signal-velocity evaluation mirrored onto both
  pair endpoints.

Backends receive *built* spatial structures (a
:class:`~repro.sph.neighbors.NeighborGrid`, pair lists) and never own
caching or invalidation — that stays with
:class:`~repro.accel.SpatialIndex` / :class:`~repro.accel.ForceEngine`, so
every backend sees identical inputs and the physics is backend-independent
by construction (asserted by the parity tests in
``tests/accel/test_backends.py``).

There are two: ``numpy``, the reference, and ``pikg``, which overrides the
kernels its DSL expresses (the float64 gravity tile, the density sweep) and
inherits ``numpy``'s elsewhere.  Both construct in any environment: ``pikg``
runs its generated kernels as plain Python where numba is missing.
``numpy`` runs its four SPH pair passes (the gather's sweep and finalize,
the velocity estimators, the hydro force) as compiled C loops where the
host's C compiler builds them (:mod:`repro.accel.backends.compiled`), with
the same bits as its numpy code, which runs where there is none.
"""

from __future__ import annotations

import mmap
from typing import TYPE_CHECKING

import numpy as np

from repro.util.constants import GRAV_CONST

if TYPE_CHECKING:  # import only for annotations: backends stay leaf modules
    from repro.sph.kernels import SPHKernel
    from repro.sph.neighbors import NeighborGrid


def _anonymous_bytes(n: int) -> np.ndarray:
    """``n`` uninitialised bytes in a private anonymous mapping, unmapped
    when the last view of them goes."""
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    return np.frombuffer(mmap.mmap(-1, n, **private), dtype=np.uint8)


class TileWorkspace:
    """Caller-owned, grow-only scratch for one dense gravity tile.

    A (targets x sources) block of a tile needs the separation as three
    coordinate planes ``dx, dy, dz``, the squared distance ``r2`` and the
    weight ``w`` — five planes in the working precision — plus one bool
    mask: 5 reals + 1 byte per pair.  Allocated per call they are mapped,
    faulted in and unmapped on every block; a workspace keeps one byte
    arena sized to the largest block it has seen (no growth factor) and
    hands out contiguous views of its head, so a force pass allocates
    nothing after its first block.  The numpy backend cuts every tile into
    blocks of at most ``_TILE_PAIRS`` pairs
    (:mod:`repro.accel.backends.numpy_backend`), so its workspace holds at
    most ``5 * 8 * _TILE_PAIRS + _TILE_PAIRS`` bytes (2.7 MB in float64,
    1.4 MB in mixed precision) whatever N, ``n_g`` or the LET import count:
    one block, sized so a mixed-precision block stays in a core's 2 MB L2
    while it is worked on (a float64 block, 2.7 MB, does not).

    The arena is an anonymous mapping of its own, not a ``malloc`` block:
    released or outgrown it goes straight back to the system.  A heap block
    no longer would: a :class:`repro.accel.ForceEngine` fixes glibc's trim
    and mmap thresholds far above any arena, so a freed block stays
    resident for reuse, and a process that runs several simulations would
    keep a dead arena beside the live one whenever a later run met a larger
    tile than an earlier one (+17 to +20 MB high-water RSS on about one
    4,000-particle halo draw in ten, seen when glibc's dynamic mmap
    threshold sent the arenas to the heap).

    The *caller* of the force pass owns it (:class:`repro.accel.ForceEngine`
    and :class:`repro.fdps.distributed.DistributedGravity` hold one each);
    it never lives on a backend instance, which the registry shares between
    every simulation in the process.  Views from one :meth:`planes` call are
    overwritten by the next, so a workspace serves one tile at a time: not
    thread-safe, one per concurrent force pass.
    """

    def __init__(self) -> None:
        self._arena = np.empty(0, dtype=np.uint8)

    @property
    def nbytes(self) -> int:
        """Bytes held (the largest block seen so far)."""
        return int(self._arena.size)

    def planes(
        self, n_targets: int, n_sources: int, dtype: type[np.floating]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Uninitialised C-contiguous ``(d, r2, w, mask)`` for one block.

        Arena layout, head first: ``d`` is ``(3, n_targets, n_sources)`` —
        ``dx, dy, dz = d``, each axis one contiguous plane, never a trailing
        axis of 3, so every ufunc over a plane runs unit-stride — then the
        ``(n_targets, n_sources)`` planes ``r2`` and ``w`` in ``dtype``,
        then the bool ``mask``.
        """
        pairs = n_targets * n_sources
        plane = pairs * np.dtype(dtype).itemsize
        need = 5 * plane + pairs
        if need > self._arena.size:
            self._arena = np.empty(0, dtype=np.uint8)   # unmap before growing
            self._arena = _anonymous_bytes(need)
        a = self._arena
        shape = (n_targets, n_sources)
        return (
            a[: 3 * plane].view(dtype).reshape(3, *shape),
            a[3 * plane : 4 * plane].view(dtype).reshape(shape),
            a[4 * plane : 5 * plane].view(dtype).reshape(shape),
            a[5 * plane : need].view(np.bool_).reshape(shape),
        )


class DensityGatherState:
    """Per-solve state of the density gather kernel.

    Built over one candidate list — the grid's list as it is
    (:meth:`~repro.sph.neighbors.NeighborGrid.candidates`), a reach list
    too, and made again when the solve regrids or widens the list; the h
    iteration calls :meth:`weight_sum` per sweep and :meth:`finalize` once
    after convergence, with every ``h_i`` within the list's reach.
    Implementations may cache whatever per-candidate state (compacted
    pair lists, last-sweep kernel values) makes repeated sweeps cheap —
    positions are immutable for the lifetime of the object.
    """

    def weight_sum(self, h: np.ndarray) -> np.ndarray:
        """Sum_j W(r_ij, h_i) per target (gather, including self)."""
        raise NotImplementedError

    def finalize(
        self, h: np.ndarray, mass: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Final sums at the converged h: (dens, drho_dh, counts, pairs).

        ``pairs`` is the gather edge list (i, j, r) with r_ij < h_i
        including self — the list the velocity estimators and the step-7
        fast path reuse.
        """
        raise NotImplementedError


class KernelBackend:
    """Abstract backend: scalar/vector implementations of the hot kernels."""

    #: Registry name; subclasses override.
    name = "abstract"

    # ------------------------------------------------------------- gravity
    def grav_tile(
        self,
        target_pos: np.ndarray,
        target_eps: np.ndarray,
        source_pos: np.ndarray,
        source_mass: np.ndarray,
        source_eps: np.ndarray,
        exclude_self: bool = False,
        mixed: bool = False,
        g: float = GRAV_CONST,
        workspace: TileWorkspace | None = None,
    ) -> np.ndarray:
        """Pairwise gravity of all sources on all targets -> (n_t, 3).

        ``exclude_self`` masks zero-separation pairs; ``mixed`` evaluates in
        float32 relative to the target-group centroid with float64
        accumulation (the production mixed-precision scheme of Sec. 4.3).

        ``workspace`` is the caller's :class:`TileWorkspace`: the tile's
        temporaries are written into it instead of being allocated, with
        the same operations in the same order, so the result is
        bit-identical with and without one.  ``None`` allocates for this
        call only.  The returned array is always freshly allocated (never a
        view of the workspace).  The generated ``pikg`` float64 tile keeps
        every pair in registers and ignores it.

        What is exact and what is bounded: both backends evaluate the same
        pairs and mask the same coincident ones; the values agree to
        rounding (float64 1e-10 relative — the parity tests), not bit for
        bit, because the order of the per-pair operations and of the
        source-axis sum is the backend's own.
        """
        raise NotImplementedError

    # ------------------------------------------------------------- density
    def density_gather(
        self, grid: NeighborGrid, pos: np.ndarray, kernel: SPHKernel
    ) -> DensityGatherState:
        """Per-solve gather state over one built neighbor grid.

        ``grid`` covers exactly ``pos`` and every search radius the solve
        will use (the caller rebuilds it when h outgrows the cell size).
        """
        raise NotImplementedError

    def velocity_estimators(
        self,
        pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
        pos: np.ndarray,
        vel: np.ndarray,
        mass: np.ndarray,
        h: np.ndarray,
        dens_safe: np.ndarray,
        kernel: SPHKernel,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The standard SPH (divv, curlv) estimators over a gather list
        ``pairs`` (i, j, r) with ``r < h_i``: ``divv_i = -(1/rho_i) sum_j
        m_j (v_ij . r_ij) gf`` and ``curlv_i = (1/rho_i) |sum_j m_j (v_ij x
        r_ij) gf|``, ``gf`` the kernel's (1/r) dW/dr at ``h_i``.  The full
        density pass and the step-7 fast path both call it, so the two never
        diverge."""
        raise NotImplementedError

    # --------------------------------------------------------- hydro force
    def hydro_force_pairs(
        self,
        pos: np.ndarray,
        vel: np.ndarray,
        mass: np.ndarray,
        h: np.ndarray,
        dens: np.ndarray,
        pres: np.ndarray,
        csnd: np.ndarray,
        omega: np.ndarray,
        balsara: np.ndarray | None,
        alpha_visc: float,
        beta_visc: float,
        kernel: SPHKernel,
        grid: NeighborGrid | None = None,
        pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Half-pair hydro kernel -> (acc, du_dt, v_signal, pairs).

        ``pairs`` supplies a previously returned half-pair list (i, j, r)
        and skips the search (the integrator's step-7 fast path); otherwise
        the search runs against ``grid``.  ``balsara`` is the per-particle
        viscosity limiter f_i (``None`` disables the switch).
        """
        raise NotImplementedError
