"""Numba-JIT backend: scalar-loop kernels, parallel over targets.

The kernels below are the scalar loops PIKG would emit for a CPU ISA —
one target per thread (``prange``), sources streamed through registers, no
(n_t, n_s) temporaries at all.  The density and force searches walk the
cell grid directly (27-cell stencil, binary search into the sorted keys)
instead of materializing the candidate edge list, which removes the
largest per-step transient entirely.

The module imports *without* numba: every kernel is plain Python that
:func:`_jit` passes through untouched when numba is missing, so the logic
is unit-testable in a bare environment (``NumbaBackend(force_python=True)``
on tiny particle counts).  Constructing the backend without numba and
without ``force_python`` raises
:class:`~repro.accel.backends.base.BackendUnavailable`, which the registry
turns into a logged fallback to ``numpy``.

Scalar-loop accumulation reassociates sums relative to the vectorized
reference (and ``fastmath`` allows further reordering), so agreement with
``numpy`` is to tight tolerance (~1e-13 relative), not bit-exact — the
parity tests pin 1e-10.
"""

from __future__ import annotations

import numpy as np

from repro.accel.backends.base import BackendUnavailable, DensityGatherState
from repro.accel.backends.numpy_backend import (  # repro-lint: disable=backend-purity -- numpy is the always-available reference backend; numba subclasses it to inherit the fallback paths
    NumpyBackend,
)
from repro.sph.kernels import CubicSpline
from repro.sph.neighbors import NeighborGrid
from repro.util.constants import GRAV_CONST

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba

    HAVE_NUMBA = True
    prange = _numba.prange

    def _jit(fn):
        return _numba.njit(cache=True, fastmath=True)(fn)

    def _pjit(fn):
        return _numba.njit(cache=True, fastmath=True, parallel=True)(fn)

except ImportError:
    HAVE_NUMBA = False
    prange = range

    def _jit(fn):
        return fn

    def _pjit(fn):
        return fn


_SIGMA_CUBIC = 8.0 / np.pi


@_jit
def _w_cubic(q):
    if q < 0.5:
        return 1.0 - 6.0 * q * q + 6.0 * q * q * q
    if q < 1.0:
        t = 1.0 - q
        return 2.0 * t * t * t
    return 0.0


@_jit
def _dw_cubic(q):
    if q < 0.5:
        return -12.0 * q + 18.0 * q * q
    if q < 1.0:
        t = 1.0 - q
        return -6.0 * t * t
    return 0.0


@_jit
def _bisect_left(a, v):
    lo, hi = 0, len(a)
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] < v:
            lo = mid + 1
        else:
            hi = mid
    return lo


@_jit
def _bisect_right(a, v):
    lo, hi = 0, len(a)
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] <= v:
            lo = mid + 1
        else:
            hi = mid
    return lo


# --------------------------------------------------------------------- gravity
@_pjit
def _grav_tile_f64(tp, te, sp, sm, se, exclude_self, g):
    n_t = tp.shape[0]
    n_s = sp.shape[0]
    acc = np.zeros((n_t, 3))
    for i in prange(n_t):
        xi, yi, zi = tp[i, 0], tp[i, 1], tp[i, 2]
        e2 = te[i] * te[i]
        ax = 0.0
        ay = 0.0
        az = 0.0
        for j in range(n_s):
            dx = xi - sp[j, 0]
            dy = yi - sp[j, 1]
            dz = zi - sp[j, 2]
            r2 = dx * dx + dy * dy + dz * dz
            if exclude_self and r2 <= 0.0:
                continue
            s = r2 + e2 + se[j] * se[j]
            if s <= 0.0:
                continue
            w = sm[j] / (s * np.sqrt(s))
            ax += w * dx
            ay += w * dy
            az += w * dz
        acc[i, 0] = -g * ax
        acc[i, 1] = -g * ay
        acc[i, 2] = -g * az
    return acc


@_pjit
def _grav_tile_f32(tp, te, sp, sm, se, exclude_self):
    """float32 arithmetic, float64 accumulation (mixed precision, Sec. 4.3)."""
    n_t = tp.shape[0]
    n_s = sp.shape[0]
    acc = np.zeros((n_t, 3))
    for i in prange(n_t):
        xi, yi, zi = tp[i, 0], tp[i, 1], tp[i, 2]
        e2 = te[i] * te[i]
        ax = 0.0
        ay = 0.0
        az = 0.0
        for j in range(n_s):
            dx = xi - sp[j, 0]
            dy = yi - sp[j, 1]
            dz = zi - sp[j, 2]
            r2 = dx * dx + dy * dy + dz * dz
            if exclude_self and r2 <= np.float32(0.0):
                continue
            s = r2 + e2 + se[j] * se[j]
            if s <= np.float32(0.0):
                continue
            w = sm[j] / (s * np.sqrt(s))
            ax += w * dx
            ay += w * dy
            az += w * dz
        acc[i, 0] = -ax
        acc[i, 1] = -ay
        acc[i, 2] = -az
    return acc


# --------------------------------------------------------------------- density
@_pjit
def _density_wsum(pos, h, lox, loy, loz, cell, d0, d1, d2, order, sorted_keys):
    n = pos.shape[0]
    wsum = np.zeros(n)
    for i in prange(n):
        hi = h[i]
        hi2 = hi * hi
        wnorm = _SIGMA_CUBIC / (hi * hi * hi)
        cx = min(max(int((pos[i, 0] - lox) / cell), 0), d0 - 1)
        cy = min(max(int((pos[i, 1] - loy) / cell), 0), d1 - 1)
        cz = min(max(int((pos[i, 2] - loz) / cell), 0), d2 - 1)
        acc = 0.0
        for ox in range(-1, 2):
            x = cx + ox
            if x < 0 or x >= d0:
                continue
            for oy in range(-1, 2):
                y = cy + oy
                if y < 0 or y >= d1:
                    continue
                for oz in range(-1, 2):
                    z = cz + oz
                    if z < 0 or z >= d2:
                        continue
                    key = (x * d1 + y) * d2 + z
                    s0 = _bisect_left(sorted_keys, key)
                    s1 = _bisect_right(sorted_keys, key)
                    for s in range(s0, s1):
                        jj = order[s]
                        dx = pos[i, 0] - pos[jj, 0]
                        dy = pos[i, 1] - pos[jj, 1]
                        dz = pos[i, 2] - pos[jj, 2]
                        r2 = dx * dx + dy * dy + dz * dz
                        if r2 < hi2:
                            q = min(np.sqrt(r2) / hi, 1.0)
                            acc += wnorm * _w_cubic(q)
        wsum[i] = acc
    return wsum


@_pjit
def _density_counts(pos, h, lox, loy, loz, cell, d0, d1, d2, order, sorted_keys):
    n = pos.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    for i in prange(n):
        hi2 = h[i] * h[i]
        cx = min(max(int((pos[i, 0] - lox) / cell), 0), d0 - 1)
        cy = min(max(int((pos[i, 1] - loy) / cell), 0), d1 - 1)
        cz = min(max(int((pos[i, 2] - loz) / cell), 0), d2 - 1)
        c = 0
        for ox in range(-1, 2):
            x = cx + ox
            if x < 0 or x >= d0:
                continue
            for oy in range(-1, 2):
                y = cy + oy
                if y < 0 or y >= d1:
                    continue
                for oz in range(-1, 2):
                    z = cz + oz
                    if z < 0 or z >= d2:
                        continue
                    key = (x * d1 + y) * d2 + z
                    s0 = _bisect_left(sorted_keys, key)
                    s1 = _bisect_right(sorted_keys, key)
                    for s in range(s0, s1):
                        jj = order[s]
                        dx = pos[i, 0] - pos[jj, 0]
                        dy = pos[i, 1] - pos[jj, 1]
                        dz = pos[i, 2] - pos[jj, 2]
                        if dx * dx + dy * dy + dz * dz < hi2:
                            c += 1
        counts[i] = c
    return counts


@_pjit
def _density_finalize(
    pos, h, mass, offsets,
    lox, loy, loz, cell, d0, d1, d2, order, sorted_keys,
    pi, pj, pr, dens, drho_dh,
):
    n = pos.shape[0]
    for i in prange(n):
        hi = h[i]
        hi2 = hi * hi
        h3 = hi * hi * hi
        wnorm = _SIGMA_CUBIC / h3
        dwnorm = -_SIGMA_CUBIC / (h3 * hi)
        cx = min(max(int((pos[i, 0] - lox) / cell), 0), d0 - 1)
        cy = min(max(int((pos[i, 1] - loy) / cell), 0), d1 - 1)
        cz = min(max(int((pos[i, 2] - loz) / cell), 0), d2 - 1)
        cur = offsets[i]
        rho = 0.0
        drho = 0.0
        for ox in range(-1, 2):
            x = cx + ox
            if x < 0 or x >= d0:
                continue
            for oy in range(-1, 2):
                y = cy + oy
                if y < 0 or y >= d1:
                    continue
                for oz in range(-1, 2):
                    z = cz + oz
                    if z < 0 or z >= d2:
                        continue
                    key = (x * d1 + y) * d2 + z
                    s0 = _bisect_left(sorted_keys, key)
                    s1 = _bisect_right(sorted_keys, key)
                    for s in range(s0, s1):
                        jj = order[s]
                        dx = pos[i, 0] - pos[jj, 0]
                        dy = pos[i, 1] - pos[jj, 1]
                        dz = pos[i, 2] - pos[jj, 2]
                        r2 = dx * dx + dy * dy + dz * dz
                        if r2 < hi2:
                            r = np.sqrt(r2)
                            q = min(r / hi, 1.0)
                            w = _w_cubic(q)
                            rho += mass[jj] * wnorm * w
                            drho += mass[jj] * dwnorm * (3.0 * w + q * _dw_cubic(q))
                            pi[cur] = i
                            pj[cur] = jj
                            pr[cur] = r
                            cur += 1
        dens[i] = rho
        drho_dh[i] = drho


# ----------------------------------------------------------------- hydro force
@_pjit
def _half_pair_counts(pos, h, lox, loy, loz, cell, d0, d1, d2, order, sorted_keys):
    n = pos.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    for i in prange(n):
        hi = h[i]
        cx = min(max(int((pos[i, 0] - lox) / cell), 0), d0 - 1)
        cy = min(max(int((pos[i, 1] - loy) / cell), 0), d1 - 1)
        cz = min(max(int((pos[i, 2] - loz) / cell), 0), d2 - 1)
        c = 0
        for ox in range(-1, 2):
            x = cx + ox
            if x < 0 or x >= d0:
                continue
            for oy in range(-1, 2):
                y = cy + oy
                if y < 0 or y >= d1:
                    continue
                for oz in range(-1, 2):
                    z = cz + oz
                    if z < 0 or z >= d2:
                        continue
                    key = (x * d1 + y) * d2 + z
                    s0 = _bisect_left(sorted_keys, key)
                    s1 = _bisect_right(sorted_keys, key)
                    for s in range(s0, s1):
                        jj = order[s]
                        if jj <= i:
                            continue
                        dx = pos[i, 0] - pos[jj, 0]
                        dy = pos[i, 1] - pos[jj, 1]
                        dz = pos[i, 2] - pos[jj, 2]
                        hm = max(hi, h[jj])
                        if dx * dx + dy * dy + dz * dz < hm * hm:
                            c += 1
        counts[i] = c
    return counts


@_pjit
def _half_pair_fill(
    pos, h, offsets, lox, loy, loz, cell, d0, d1, d2, order, sorted_keys, pi, pj, pr
):
    n = pos.shape[0]
    for i in prange(n):
        hi = h[i]
        cx = min(max(int((pos[i, 0] - lox) / cell), 0), d0 - 1)
        cy = min(max(int((pos[i, 1] - loy) / cell), 0), d1 - 1)
        cz = min(max(int((pos[i, 2] - loz) / cell), 0), d2 - 1)
        cur = offsets[i]
        for ox in range(-1, 2):
            x = cx + ox
            if x < 0 or x >= d0:
                continue
            for oy in range(-1, 2):
                y = cy + oy
                if y < 0 or y >= d1:
                    continue
                for oz in range(-1, 2):
                    z = cz + oz
                    if z < 0 or z >= d2:
                        continue
                    key = (x * d1 + y) * d2 + z
                    s0 = _bisect_left(sorted_keys, key)
                    s1 = _bisect_right(sorted_keys, key)
                    for s in range(s0, s1):
                        jj = order[s]
                        if jj <= i:
                            continue
                        dx = pos[i, 0] - pos[jj, 0]
                        dy = pos[i, 1] - pos[jj, 1]
                        dz = pos[i, 2] - pos[jj, 2]
                        r2 = dx * dx + dy * dy + dz * dz
                        hm = max(hi, h[jj])
                        if r2 < hm * hm:
                            pi[cur] = i
                            pj[cur] = jj
                            pr[cur] = np.sqrt(r2)
                            cur += 1


@_jit
def _hydro_force_eval(
    i_arr, j_arr, r_arr, pos, vel, mass, h, dens, pres, csnd, omega,
    fbals, use_balsara, alpha, beta, acc, du_dt, v_signal,
):
    for p in range(len(i_arr)):
        i = i_arr[p]
        j = j_arr[p]
        r = r_arr[p]
        dx = pos[i, 0] - pos[j, 0]
        dy = pos[i, 1] - pos[j, 1]
        dz = pos[i, 2] - pos[j, 2]
        vx = vel[i, 0] - vel[j, 0]
        vy = vel[i, 1] - vel[j, 1]
        vz = vel[i, 2] - vel[j, 2]
        vdotr = vx * dx + vy * dy + vz * dz

        hi = h[i]
        hj = h[j]
        rs_i = max(r, 1e-12 * max(hi, 1e-300))
        rs_j = max(r, 1e-12 * max(hj, 1e-300))
        qi = min(r / hi, 1.0)
        qj = min(r / hj, 1.0)
        gf_i = _SIGMA_CUBIC / (hi * hi * hi) * _dw_cubic(qi) / (rs_i * hi)
        gf_j = _SIGMA_CUBIC / (hj * hj * hj) * _dw_cubic(qj) / (rs_j * hj)
        gf_bar = 0.5 * (gf_i + gf_j)

        rho_i = max(dens[i], 1e-300)
        rho_j = max(dens[j], 1e-300)
        h_bar = 0.5 * (hi + hj)
        rho_bar = 0.5 * (rho_i + rho_j)
        c_bar = 0.5 * (csnd[i] + csnd[j])
        visc = 0.0
        if vdotr < 0.0:
            mu = h_bar * vdotr / (r * r + 0.01 * h_bar * h_bar)
            fb = 0.5 * (fbals[i] + fbals[j]) if use_balsara else 1.0
            visc = fb * (-alpha * c_bar * mu + beta * mu * mu) / rho_bar

        p_term_i = pres[i] / (omega[i] * rho_i * rho_i)
        p_term_j = pres[j] / (omega[j] * rho_j * rho_j)
        scal = p_term_i * gf_i + p_term_j * gf_j + visc * gf_bar
        wi = mass[j] * scal
        wj = mass[i] * scal
        acc[i, 0] -= wi * dx
        acc[i, 1] -= wi * dy
        acc[i, 2] -= wi * dz
        acc[j, 0] += wj * dx
        acc[j, 1] += wj * dy
        acc[j, 2] += wj * dz

        du_visc = 0.5 * visc * vdotr * gf_bar
        du_dt[i] += mass[j] * (p_term_i * vdotr * gf_i + du_visc)
        du_dt[j] += mass[i] * (p_term_j * vdotr * gf_j + du_visc)

        w_rel = vdotr / max(r, 1e-300) if r > 0 else 0.0
        vsig = csnd[i] + csnd[j] - 3.0 * min(w_rel, 0.0)
        if vsig > v_signal[i]:
            v_signal[i] = vsig
        if vsig > v_signal[j]:
            v_signal[j] = vsig


def _grid_args(grid: NeighborGrid):
    return (
        float(grid.lo[0]), float(grid.lo[1]), float(grid.lo[2]),
        float(grid.cell),
        int(grid.dims[0]), int(grid.dims[1]), int(grid.dims[2]),
        grid.order, grid.sorted_keys,
    )


class _NumbaDensityGather(DensityGatherState):
    """Cell-walk gather: no candidate list is ever materialized."""

    def __init__(self, grid: NeighborGrid, pos: np.ndarray, kernel) -> None:
        self.grid = grid
        self.pos = np.ascontiguousarray(pos, dtype=np.float64)
        self.kernel = kernel
        self.n = len(pos)

    def weight_sum(self, h: np.ndarray) -> np.ndarray:
        return _density_wsum(self.pos, h, *_grid_args(self.grid))

    def finalize(self, h: np.ndarray, mass: np.ndarray):
        args = _grid_args(self.grid)
        counts = _density_counts(self.pos, h, *args)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        total = int(offsets[-1])
        pi = np.empty(total, dtype=np.int64)
        pj = np.empty(total, dtype=np.int64)
        pr = np.empty(total)
        dens = np.empty(self.n)
        drho_dh = np.empty(self.n)
        _density_finalize(
            self.pos, h, np.ascontiguousarray(mass, dtype=np.float64),
            offsets[:-1], *args, pi, pj, pr, dens, drho_dh,
        )
        return dens, drho_dh, counts, (pi, pj, pr)


class NumbaBackend(NumpyBackend):
    """JIT scalar-loop kernels (``@njit(parallel=True, fastmath=True)``).

    Kernels are specialized to the library's default
    :class:`~repro.sph.kernels.CubicSpline`; a custom SPH kernel object
    falls back to the inherited numpy path for the SPH sums (gravity is
    kernel-independent and always runs jitted).
    """

    name = "numba"

    def __init__(self, force_python: bool = False) -> None:
        if not HAVE_NUMBA and not force_python:
            raise BackendUnavailable(
                "backend 'numba' requires the numba package (not importable)"
            )

    # ------------------------------------------------------------- gravity
    def grav_tile(
        self, target_pos, target_eps, source_pos, source_mass, source_eps,
        exclude_self: bool = False, mixed: bool = False, g: float = GRAV_CONST,
        workspace=None,
    ) -> np.ndarray:
        # The scalar loops keep every pair in registers: no tile temporaries,
        # so the caller's workspace is not used.
        tp = np.ascontiguousarray(target_pos, dtype=np.float64)
        sp = np.ascontiguousarray(source_pos, dtype=np.float64)
        if len(tp) == 0 or len(sp) == 0:
            return np.zeros((len(tp), 3))
        if mixed:
            origin = tp.mean(axis=0)
            acc = _grav_tile_f32(
                (tp - origin).astype(np.float32),
                np.asarray(target_eps, dtype=np.float32),
                (sp - origin).astype(np.float32),
                np.asarray(source_mass, dtype=np.float32),
                np.asarray(source_eps, dtype=np.float32),
                exclude_self,
            )
            return g * acc
        return _grav_tile_f64(
            tp,
            np.ascontiguousarray(target_eps, dtype=np.float64),
            sp,
            np.ascontiguousarray(source_mass, dtype=np.float64),
            np.ascontiguousarray(source_eps, dtype=np.float64),
            exclude_self,
            float(g),
        )

    # ------------------------------------------------------------- density
    def density_gather(self, grid, pos, kernel) -> DensityGatherState:
        if not isinstance(kernel, CubicSpline):
            return super().density_gather(grid, pos, kernel)
        return _NumbaDensityGather(grid, pos, kernel)

    # --------------------------------------------------------- hydro force
    def hydro_force_pairs(
        self, pos, vel, mass, h, dens, pres, csnd, omega, balsara,
        alpha_visc, beta_visc, kernel, grid=None, pairs=None,
    ):
        if not isinstance(kernel, CubicSpline):
            return super().hydro_force_pairs(
                pos, vel, mass, h, dens, pres, csnd, omega, balsara,
                alpha_visc, beta_visc, kernel, grid=grid, pairs=pairs,
            )
        pos = np.ascontiguousarray(pos, dtype=np.float64)
        n = len(pos)
        if pairs is not None:
            i, j, r = pairs
        else:
            r_max = float(h.max())
            if grid is None or not grid.covers(r_max) or grid.n_points != n:
                grid = NeighborGrid.build(pos, r_max)
            args = _grid_args(grid)
            counts = _half_pair_counts(pos, h, *args)
            offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            total = int(offsets[-1])
            i = np.empty(total, dtype=np.int64)
            j = np.empty(total, dtype=np.int64)
            r = np.empty(total)
            _half_pair_fill(pos, h, offsets[:-1], *args, i, j, r)
        if len(i) == 0:
            return np.zeros((n, 3)), np.zeros(n), csnd.copy(), (i, j, r)
        acc = np.zeros((n, 3))
        du_dt = np.zeros(n)
        v_signal = csnd.astype(np.float64).copy()
        use_balsara = balsara is not None
        fbals = balsara if use_balsara else np.ones(0)
        _hydro_force_eval(
            i, j, r,
            pos,
            np.ascontiguousarray(vel, dtype=np.float64),
            np.ascontiguousarray(mass, dtype=np.float64),
            np.ascontiguousarray(h, dtype=np.float64),
            np.ascontiguousarray(dens, dtype=np.float64),
            np.ascontiguousarray(pres, dtype=np.float64),
            np.ascontiguousarray(csnd, dtype=np.float64),
            np.ascontiguousarray(omega, dtype=np.float64),
            np.ascontiguousarray(fbals, dtype=np.float64),
            use_balsara, float(alpha_visc), float(beta_visc),
            acc, du_dt, v_signal,
        )
        return acc, du_dt, v_signal, (i, j, r)
