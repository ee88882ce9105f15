"""NumPy reference backend (the default; every workload runs it).

``numpy`` is the tuned vectorized implementation ``pikg`` must agree with:

* scatter-adds are :func:`np.bincount` reductions instead of ``np.add.at``
  (same element order per target, so on equal inputs the sums are
  bit-identical — asserted in the tests — while avoiding the ufunc.at
  inner-loop overhead);
* the density/force pair searches run over the grid's *compacted* candidate
  list (``r < cell`` once, instead of re-filtering the full 27-stencil list
  every sweep), compacted again per sweep with ``flatnonzero`` + ``take``;
* repeated kernel-size sweeps only re-evaluate targets whose h actually
  changed (the converged majority keeps its cached partial sum, which is
  exactly the value a full recompute would produce);
* the gather sums run over the dimensionless profile ``w(q)`` and are
  normalized by ``sigma / h_i^3`` once per target, not once per pair;
* the half-pair force kernel works on coordinate planes — ``dx, dy, dz`` and
  the velocity differences each one contiguous per-pair array gathered with
  ``take`` from a unit-stride coordinate row, never an (n_pairs, 3) array —
  with ``v.r`` written out per component and per-particle terms
  (``P / (Omega rho^2)``, the halves of the pair means) formed once per
  particle;
* the gravity tile runs in fixed pair blocks of at most :data:`_TILE_PAIRS`
  (about 256 targets x 256 sources, :func:`pair_blocks`) whatever the
  tile's shape — a tree group against its list, the LET imports against a
  rank's targets, a direct sum — so in mixed precision (what every tree
  pass runs) each block's planes, 1.4 MB, stay in a core's 2 MB L2 through
  all ~19 ufunc passes, instead of one source-only chunk of ~16 MB
  streaming from L3 on every pass; a float64 block (the direct sums below
  ``direct_gravity_below``, :func:`potential_direct`) is 2.7 MB and does
  not fit; the per-coordinate reduction of a block accumulates into its
  target rows;
* the gravity tile works on coordinate planes too, carved with ``r2``, the
  weight and the coincidence mask from the caller's
  :class:`~repro.accel.backends.base.TileWorkspace` (5 reals + 1 byte per
  pair of one block, written through ``out=``), with ``w * sqrt(w)`` for
  ``w ** 1.5``: the arithmetic of the jitted kernels;
* the four SPH pair passes — the gather's weight sweep, its finalize (sums
  and gather list), the velocity estimators and the half-pair force — run
  as the compiled C loops of :mod:`repro.accel.backends.compiled` with the
  cubic spline wherever the host's ``cc`` builds them (the numpy code below
  runs otherwise, and for every other kernel): one pass over the pairs, no
  per-pair temporaries, the cuts (``alive``, the tail, ``targets``,
  ``r < h_i``) fused into the loop in list order.

What is exact and what is bounded, against the plain references under
``tests/`` — the trailing-axis tile of ``tests/accel/test_tile_workspace.py``,
the full-stencil candidates of ``tests/sph/test_neighbors.py``, the masked
``kernel.value`` finalize of ``tests/sph/test_density.py`` and the row-gather
force kernel of ``tests/sph/test_forces.py``.  Exact: pair sets (the
compacted candidates, the gather and the searched half-pair lists, which
tile pairs are masked as coincident — in whichever block they land) and
``n_neighbors``.  Not their order: the candidates come from the half
stencil of :meth:`~repro.sph.neighbors.NeighborGrid.compact_self_pairs`
(a forward block, its mirror, then the self pairs), the references walk
the full stencil per offset, so the lists agree by ``(i, j)`` key and every
sum over them to rounding.  Bounded: the tile sums its squares per plane and
reduces per coordinate over a block's sources, the blocks' partial sums
added in float64, so it agrees with the trailing-axis tile (and with an
unblocked one) to 1e-13 relative in float64 and 5e-6 of the largest
acceleration in mixed precision; the candidate separations agree to 2 ulp,
and with the per-target normalization and the per-plane pair kernels every
SPH sum (``dens``, ``drho_dh``, ``divv``, ``curlv``, ``acc``, ``du_dt``) to
1e-12, the signal velocity (a max, but of ``v.r / r``) to 1e-13.  With and
without a workspace the tile is bit-identical, and the workspace never holds
more than one block.  No environment variable, config field or argument
selects the block size.  The compiled SPH loops are bit-identical to the
numpy code on every output (``dens``, ``drho_dh``, counts, the gather
list, ``divv``, ``curlv``, ``acc``, ``du_dt``, ``v_signal``): each repeats
its operations in its order and each bincount as a sequential sum in list
order (``tests/accel/test_compiled_loops.py`` draws clouds with coincident
points, full, edited and reach lists); nothing selects them either.
"""

from __future__ import annotations

import math

import numpy as np

from repro.accel.backends.base import DensityGatherState, KernelBackend, TileWorkspace
from repro.accel.backends.compiled import (  # numpy's own pair loops, compiled from sph_loops.c
    SphLoops,
    sph_loops,
)
from repro.sph.neighbors import NeighborGrid, pair_differences
from repro.util.constants import GRAV_CONST

#: Pairs in one gravity tile block (target block x source block).  Five
#: working-precision planes and the mask of a 256 x 256 block take 1.4 MB in
#: float32 and 2.7 MB in float64: in mixed precision the block stays in a
#: core's 2 MB L2 through the ~19 ufunc passes over it instead of streaming
#: from L3; a float64 block does not fit.  Measured on a
#: 2-core Xeon (2 MB L2 per core), 4,000-particle halo tree pass, best of 9:
#: mixed 93 / 76 / 71 / 76 ms at 128x128 / 128x256 / 256x256 / 256x512 pairs
#: (94 ms with the whole source list per tile); float64 152 / 145 / 158 /
#: 172 ms.  Every workload's tree pass is mixed, so 256 x 256: float64 tiles
#: (direct sums, the potential) run about 9% slower than at its best shape.
_TILE_PAIRS = 256 * 256


def _edges(n: int, cap: int) -> list[int]:
    """Bounds of the fewest near-equal runs of at most ``cap`` covering
    ``range(n)``."""
    k = max(-(-n // cap), 1)
    return [i * n // k for i in range(k + 1)]


def pair_blocks(n_targets: int, n_sources: int) -> tuple[list[int], list[int]]:
    """Target and source block bounds of one ``n_targets x n_sources`` tile.

    Every block holds at most :data:`_TILE_PAIRS` pairs.  Both axes split
    into near-equal runs: targets into runs of at most ``sqrt(_TILE_PAIRS)``
    (more when the sources are few), sources into runs that fill the rest of
    the block.
    """
    side = math.isqrt(_TILE_PAIRS)
    t_edges = _edges(n_targets, max(side, _TILE_PAIRS // max(n_sources, 1)))
    t_block = max(-(-n_targets // (len(t_edges) - 1)), 1)    # the longest run
    return t_edges, _edges(n_sources, _TILE_PAIRS // t_block)


def _c(a: np.ndarray, dtype: type = np.float64) -> np.ndarray:
    """``a`` as the compiled loops take it: C-contiguous ``dtype`` (itself
    when it already is)."""
    return np.ascontiguousarray(a, dtype=dtype)


def _loop_inputs(
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray], n: int, *fields: np.ndarray | None
) -> tuple[np.ndarray | None, ...]:
    """``pairs`` (i, j, r) and the per-particle ``fields`` (``None`` passed
    on) as the compiled loops take them, their shapes checked: a pointer
    past an array's end is read, not refused.  (The loops check that every
    pair's ends are among the ``n`` particles.)"""
    i, j, r = _c(pairs[0], np.int64), _c(pairs[1], np.int64), _c(pairs[2])
    fields = tuple(None if f is None else _c(f) for f in fields)
    shapes = [f.shape for f in fields if f is not None]
    if not len(i) == len(j) == len(r) or any(sh not in ((n,), (n, 3)) for sh in shapes):
        raise ValueError(
            f"pair arrays of lengths {len(i)}, {len(j)}, {len(r)}; per-particle "
            f"shapes {shapes} for {n} particles"
        )
    return (i, j, r, *fields)


def _check_ends(bad: int, i: np.ndarray, j: np.ndarray, n: int) -> None:
    """Raise for the pair a compiled loop stopped at (``bad`` >= 0)."""
    if bad >= 0:
        raise IndexError(f"pair {bad} = ({i[bad]}, {j[bad]}) has an end outside the {n} particles")


class _NumpyDensityGather(DensityGatherState):
    """Compacted-candidate gather with changed-target sweep reuse.

    ``W(r, h_i) = (sigma / h_i^3) w(r / h_i)`` has the target's own
    normalization, so the pair sums run over the dimensionless ``w`` (and
    ``3 w + q dw`` for the grad-h term) and are scaled once per target.
    Every sum reads the grid's :class:`~repro.sph.neighbors.CandidateList`
    through one cut (:meth:`~repro.sph.neighbors.CandidateList.select`), so
    an edited list is never copied whole.
    """

    def __init__(self, grid: NeighborGrid, pos: np.ndarray, kernel) -> None:
        self.kernel = kernel
        self.n = len(pos)
        if grid.n_points != self.n:
            raise ValueError(f"a grid over {grid.n_points} points for {self.n} positions")
        #: The compiled pair loops for this kernel; ``None``: numpy's.
        self._loops = sph_loops(kernel)
        # The grid's list as it is: a reach list holds every pair the solve
        # evaluates, in the full list's order.
        self.candidates = grid.candidate_list()
        self._h_prev: np.ndarray | None = None
        self._wsum: np.ndarray | None = None

    def _per_target(self, a: np.ndarray, dtype: type = np.float64) -> np.ndarray:
        """A per-target array as the compiled loops take it (:func:`_c`),
        one entry per point: the loops index it with the list's entries."""
        a = _c(a, dtype)
        if a.shape != (self.n,):
            raise ValueError(f"an array of shape {a.shape} for {self.n} points")
        return a

    def _profile_sum(self, h: np.ndarray, targets: np.ndarray | None = None) -> np.ndarray:
        """sum_j w(r_ij / h_i) per target over the candidates inside their
        target's support (and of a ``targets`` one only)."""
        loops = self._loops
        if loops is None:
            i, _, r = self.candidates.select(radius=h, targets=targets)
            q = r / h.take(i)
            return np.bincount(i, weights=self.kernel.w(q), minlength=self.n)
        out, h = np.zeros(self.n), self._per_target(h)
        for (i, _, r), alive in self.candidates.blocks():
            loops.sph_profile_sum(len(i), i, r, alive, targets, h, out)
        return out

    def weight_sum(self, h: np.ndarray) -> np.ndarray:
        norm = self.kernel.sigma / (h * h * h)
        if self._h_prev is None:
            wsum = norm * self._profile_sum(h)
        else:
            changed = h != self._h_prev
            if not changed.any():
                return self._wsum.copy()
            # Every candidate of a changed target is recomputed in the same
            # order a full sweep would visit it, so the partial sums match a
            # cold evaluation bit-for-bit; unchanged targets keep theirs.
            upd = norm * self._profile_sum(h, changed)
            wsum = np.where(changed, upd, self._wsum)
        self._h_prev = h.copy()
        self._wsum = wsum.copy()
        return wsum

    def _sums(
        self, i: np.ndarray, j: np.ndarray, r: np.ndarray, h: np.ndarray, mass: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per target over gather entries ``(i, j, r)``: sum_j m_j w(q),
        sum_j m_j (3 w(q) + q dw(q)) — dW/dh = -(sigma / h^4) (3 w + q dw),
        the grad-h pair term — and the count."""
        q = r / h.take(i)
        m_j = mass.take(j)
        w = self.kernel.w(q)
        w *= m_j
        dwdh = self.kernel.dw(q)
        dwdh *= q
        dwdh *= m_j
        dwdh += 3.0 * w
        return (
            np.bincount(i, weights=w, minlength=self.n),
            np.bincount(i, weights=dwdh, minlength=self.n),
            np.bincount(i, minlength=self.n),
        )

    def _gather(
        self, loops: SphLoops, h: np.ndarray, mass: np.ndarray
    ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The compiled finalize: the gather list (every live entry with
        ``r < h_i``, in order) and :meth:`_sums` over it."""
        blocks, h, mass = self.candidates.blocks(), self._per_target(h), self._per_target(mass)
        sizes = [loops.sph_gather_count(len(i), i, r, alive, h) for (i, _, r), alive in blocks]
        total = sum(sizes)
        gi, gj, gr = np.empty(total, np.int64), np.empty(total, np.int64), np.empty(total)
        sums = np.zeros(self.n), np.zeros(self.n), np.zeros(self.n, np.int64)
        at = 0
        for ((i, j, r), alive), size in zip(blocks, sizes, strict=True):
            loops.sph_gather(len(i), i, j, r, alive, h, mass, gi[at:], gj[at:], gr[at:], *sums)
            at += size
        return sums, (gi, gj, gr)

    def finalize(
        self, h: np.ndarray, mass: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        if self._loops is not None:
            (wm, dwdh, counts), pairs = self._gather(self._loops, h, mass)
        else:
            pairs = self.candidates.select(radius=h)
            wm, dwdh, counts = self._sums(*pairs, h, mass)
        norm = self.kernel.sigma / (h * h * h)
        return norm * wm, -norm / h * dwdh, counts, pairs


class NumpyBackend(KernelBackend):
    """The vectorized reference implementation (default backend)."""

    name = "numpy"

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
        tp = np.asarray(target_pos, dtype=np.float64)
        sp = np.asarray(source_pos, dtype=np.float64)
        if mixed:
            # Positions shift to the target-group centroid and drop to
            # float32; accumulation and the result stay float64 (Sec. 4.3).
            origin = tp.mean(axis=0)
            tp, sp = tp - origin, sp - origin
            real, tiny = np.float32, np.float32(1e-30)
        else:
            real, tiny = np.float64, np.float64(1e-300)
        # One contiguous plane per coordinate: numpy cannot vectorise over a
        # trailing axis of 3, it can over a unit-stride row of sources.
        t_xyz = np.ascontiguousarray(tp.T, dtype=real)
        s_xyz = np.ascontiguousarray(sp.T, dtype=real)
        sm = np.asarray(source_mass, dtype=real)
        te2 = np.asarray(target_eps, dtype=real) ** 2
        se2 = np.asarray(source_eps, dtype=real) ** 2
        ws = workspace if workspace is not None else TileWorkspace()
        acc = np.zeros((3, len(tp)))
        t_edges, s_edges = pair_blocks(len(tp), len(sp))
        for t0, t1 in zip(t_edges[:-1], t_edges[1:], strict=True):
            t_blk = [t_k[t0:t1, None] for t_k in t_xyz]
            te2_blk = te2[t0:t1, None]
            for s0, s1 in zip(s_edges[:-1], s_edges[1:], strict=True):
                # Every plane is written in full before it is read, so what
                # the previous block left in the workspace never matters.
                d, r2, w, coincident = ws.planes(t1 - t0, s1 - s0, real)
                for d_k, t_k, s_k in zip(d, t_blk, s_xyz, strict=True):
                    np.subtract(t_k, s_k[None, s0:s1], out=d_k)
                np.multiply(d[0], d[0], out=r2)
                for d_k in d[1:]:
                    np.multiply(d_k, d_k, out=w)
                    np.add(r2, w, out=r2)
                if exclude_self:
                    np.less_equal(r2, real(0.0), out=coincident)
                np.add(te2_blk, se2[None, s0:s1], out=w)
                np.add(r2, w, out=w)
                # w^1.5 as w * sqrt(w) (what the jitted kernels do); the mask
                # is taken, so r2's plane is free to hold the root.
                np.sqrt(w, out=r2)
                np.multiply(w, r2, out=w)
                np.maximum(w, tiny, out=w)
                np.divide(sm[None, s0:s1], w, out=w)
                if exclude_self:
                    np.copyto(w, real(0.0), where=coincident)
                for acc_k, d_k in zip(acc, d, strict=True):
                    acc_k[t0:t1] -= g * np.einsum("ij,ij->i", w, d_k).astype(
                        np.float64, copy=False
                    )
        return np.ascontiguousarray(acc.T)

    # ------------------------------------------------------------- density
    def density_gather(self, grid, pos: np.ndarray, kernel) -> DensityGatherState:
        return _NumpyDensityGather(grid, pos, kernel)

    def velocity_estimators(
        self,
        pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
        pos: np.ndarray,
        vel: np.ndarray,
        mass: np.ndarray,
        h: np.ndarray,
        dens_safe: np.ndarray,
        kernel,
    ) -> tuple[np.ndarray, np.ndarray]:
        i, j, r = pairs
        n = len(dens_safe)
        loops = sph_loops(kernel)
        if loops is not None and len(i):       # no pairs: bincount's integer zeros
            args = _loop_inputs(pairs, n, pos, vel, mass, h)
            sums = np.zeros((4, n))
            _check_ends(loops.sph_velocity_sums(len(i), n, *args, kernel.sigma, *sums), i, j, n)
            div, cx, cy, cz = sums
        else:
            # m_j (1/r) dW/dr at h_i: the weight all four sums share.
            wgt = kernel.grad_factor(r, h.take(i))
            wgt *= mass.take(j)
            dx, dy, dz = pair_differences(pos, i, j)
            vx, vy, vz = pair_differences(vel, i, j)

            def gather_sum(term: np.ndarray) -> np.ndarray:
                term *= wgt
                return np.bincount(i, weights=term, minlength=n)

            div = gather_sum(vx * dx + vy * dy + vz * dz)
            cx = gather_sum(vy * dz - vz * dy)
            cy = gather_sum(vz * dx - vx * dz)
            cz = gather_sum(vx * dy - vy * dx)
        # div v_i = -(1/rho_i) sum_j m_j (v_ij . r_ij) gf
        divv = -div / dens_safe
        # curl v_i = (1/rho_i) | sum_j m_j (v_ij x r_ij) gf |
        curlv = np.sqrt(cx * cx + cy * cy + cz * cz) / dens_safe
        return divv, curlv

    # --------------------------------------------------------- hydro force
    def _half_pairs(
        self, pos: np.ndarray, h: np.ndarray, grid: NeighborGrid | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each unordered pair with r < max(h_i, h_j) exactly once, searched
        in the candidate list — for callers that hold no gather list (the
        engine derives its pairs: :func:`~repro.sph.neighbors.half_pairs_from_gather`)."""
        r_max = float(h.max())
        if grid is None or not grid.covers(r_max) or grid.n_points != len(pos):
            grid = NeighborGrid.build(pos, r_max)
        i, j, r = grid.compact_self_pairs()
        keep = np.flatnonzero((r < np.maximum(h.take(i), h.take(j))) & (i < j))
        return i.take(keep), j.take(keep), r.take(keep)

    @staticmethod
    def _scatter_add_pairs(
        n: int, i: np.ndarray, j: np.ndarray, w_i: np.ndarray, w_j: np.ndarray,
        d_xyz: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> np.ndarray:
        """acc[i] += w_i * d, acc[j] += w_j * d for d = (dx, dy, dz) planes.

        One bincount per axis over the concatenated endpoints accumulates
        each target's terms in exactly the order a sequential ``np.add.at``
        pair visits them, so on equal inputs the result is bit-identical —
        only the ufunc.at inner loop is gone.
        """
        n_pairs = len(i)
        idx = np.concatenate([i, j])
        w = np.empty(2 * n_pairs)
        acc = np.empty((n, 3))
        for ax, d_k in enumerate(d_xyz):
            np.multiply(w_i, d_k, out=w[:n_pairs])
            np.multiply(w_j, d_k, out=w[n_pairs:])
            acc[:, ax] = np.bincount(idx, weights=w, minlength=n)
        return acc

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
        kernel,
        grid=None,
        pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        n = len(pos)
        dens_safe = np.maximum(dens, 1e-300)
        if pairs is not None:
            i, j, r = pairs
        else:
            i, j, r = self._half_pairs(pos, h, grid)
        if len(i) == 0:
            return np.zeros((n, 3)), np.zeros(n), csnd.copy(), (i, j, r)
        p_term = pres / (omega * dens_safe * dens_safe)   # once per particle
        loops = sph_loops(kernel)
        if loops is not None:
            acc, du_dt, du_j = np.zeros((n, 3)), np.zeros(n), np.zeros(n)
            v_signal = np.array(csnd, dtype=np.float64)
            # The halves the pair means add, once per particle.
            args = _loop_inputs(
                (i, j, r), n, pos, vel, mass, h, csnd, p_term, 0.5 * h, 0.5 * csnd,
                0.5 * dens_safe, None if balsara is None else 0.5 * balsara,
            )
            bad = loops.sph_hydro_force(
                len(i), n, *args, alpha_visc, beta_visc, kernel.sigma,
                acc, du_dt, du_j, v_signal, np.empty(2 * len(i)),
            )
            _check_ends(bad, i, j, n)
            du_dt += du_j
            return acc, du_dt, v_signal, (i, j, r)

        def pair_mean(x: np.ndarray) -> np.ndarray:
            half = 0.5 * x                  # once per particle, exact
            out = half.take(i)
            out += half.take(j)
            return out

        d_xyz = pair_differences(pos, i, j)
        vdotr, vy_dy, vz_dz = pair_differences(vel, i, j)
        vdotr *= d_xyz[0]
        vy_dy *= d_xyz[1]
        vz_dz *= d_xyz[2]
        vdotr += vy_dy
        vdotr += vz_dz

        gf_i = kernel.grad_factor(r, h.take(i))   # (1/r) dW/dr at h_i
        gf_j = kernel.grad_factor(r, h.take(j))

        # --- artificial viscosity ----------------------------------------
        h_bar = pair_mean(h)
        mu = h_bar * vdotr / (r * r + 0.01 * (h_bar * h_bar))
        mu = np.where(vdotr < 0.0, mu, 0.0)  # only approaching pairs dissipate
        visc = (beta_visc * mu - alpha_visc * pair_mean(csnd)) * mu / pair_mean(dens_safe)
        if balsara is not None:
            visc *= pair_mean(balsara)
        visc_gf = 0.5 * (gf_i + gf_j)
        visc_gf *= visc

        # --- pressure gradient -------------------------------------------
        pg_i = p_term.take(i) * gf_i
        pg_j = p_term.take(j) * gf_j
        scal = pg_i + pg_j
        scal += visc_gf
        m_i, m_j = mass.take(i), mass.take(j)
        acc = self._scatter_add_pairs(n, i, j, -m_j * scal, m_i * scal, d_xyz)

        # --- energy equation ---------------------------------------------
        visc_gf *= 0.5
        du_dt = np.bincount(i, weights=m_j * vdotr * (pg_i + visc_gf), minlength=n)
        du_dt += np.bincount(j, weights=m_i * vdotr * (pg_j + visc_gf), minlength=n)

        # --- signal velocity (Monaghan 1997) -----------------------------
        w_rel = np.where(r > 0, vdotr / np.maximum(r, 1e-300), 0.0)
        vsig_pair = csnd.take(i) + csnd.take(j) - 3.0 * np.minimum(w_rel, 0.0)
        v_signal = csnd.copy()
        np.maximum.at(v_signal, i, vsig_pair)
        np.maximum.at(v_signal, j, vsig_pair)
        return acc, du_dt, v_signal, (i, j, r)
