"""Microbenchmark: compute-backend kernel throughput and the kernels' ratios.

For ``numpy``, and for ``pikg`` where its generated kernels are jitted (numba
installed: the CI ``pikg-jit`` leg, whose JSON is an artifact of that leg),
this records at 5k/20k/50k particles:

* per-kernel throughput in interactions/s for the three hot kernels of
  Table 4 (tree gravity, density gather including the h iteration, and the
  half-pair hydro force), and
* the wall seconds of one whole surrogate-leapfrog step.

Neither has a floor.  The whole-step floors (numpy >= 3.4x and jitted
numba >= 3x over the frozen ``seed`` kernels at 20k) went with the ``seed``
and ``numba`` backends: their baseline is gone, each kernel below keeps a
ratio floor against its own reference, and the end-to-end harness
(``benchmarks/e2e``) gates the step.

It also records what one 4,000-particle tree-gravity pass costs the kernel
(minor page faults, system time as a share of the wall clock) with the
caller-owned tile workspace and without one, and asserts the pass with a
workspace stays under 5,000 faults: per-tile temporaries took 63,000 faults
and a quarter of the pass in the kernel before the workspace existed.

The three coordinate-plane kernels are timed alone against the plain
references under ``tests/`` they replaced, and the *ratios* are asserted
(absolutes are the machine's): ns/pair of the ``numpy`` gravity tile against
the trailing-axis tile of ``tests/accel/test_tile_workspace.py`` (mixed
precision >= 2x: measured 3.5x, the pre-planes tile 1.6x; float64 >= 1.6x:
measured 3.1x alone and 2.3x late in this long process, where the reference
tile's allocations have become cheap, the pre-planes tile 1.5x alone), ms
per ``compact_self_pairs`` against the full-stencil reference of
``tests/sph/test_neighbors.py`` filtered at ``r < cell`` (>= 3x: measured
5.8-6.6x for the half stencil, which walks each pair of neighbor cells once
and mirrors the kept pairs; 3.6-4.6x for the 27-offset walk before it, 1.4x
for the trailing-axis compaction before that), ms per ``_deposit_pairs`` against
the per-offset oracle of ``tests/surrogate/test_voxelize.py`` (>= 7x:
measured 12x, the blocked (offsets, particles, 3) deposit 2.4x on the same
region).

The SPH pass after the candidate list is timed the same way
(``sph_pair_kernels``, ms per call and the ratio) on the same 5k turbulent
box and on the gas of an exponential disk: the coordinate-plane ``finalize``
/ ``_velocity_estimators`` / ``hydro_force_pairs(pairs=)`` against the
masked ``kernel.value`` finalize of ``tests/sph/test_density.py`` over the
full stencil, the row-gather estimator oracle of the same file and the
row-gather force kernel of ``tests/sph/test_forces.py`` (box: >= 1.3x /
1.8x / 1.25x), and the half pairs derived from the gather list against the
search over the compacted candidates (disk: >= 8x; that ratio is the
candidates-to-gather-list ratio, 2.6 on the uniform box).
``tree_build`` is the level-by-level ``Octree.build`` of the 4,000-particle
halo against the per-node oracle of ``tests/fdps/test_tree.py`` (>= 3x).

``sn_local_edit`` is the SN return: ms per ``NeighborGrid.move_points`` (the
local edit: re-bin the moved points, repair the cached candidate list)
against a fresh ``compact_self_pairs`` of the same positions on the same
binning, on the 12^3 turbulent box of the ``sn_storm`` workload with 4% of
the points moved (one 60 pc region; >= 2x asserted, measured 2.5-2.9x) and
with 55% moved (what ``cluster_2rank`` replaces per event; recorded, no
floor).  The edit walks all 27 offsets of each moved point, a fresh
generation the 13 forward offsets of every point (half the work of the
27-offset walk it replaced, so the ratio at 4% fell from 3.7-4.0x): at 55%
moved the edit now costs more than a fresh generation — 8.7-11 ms against
4.3-6.3 ms, a ratio of 0.49-0.55 — where it cost 0.75x of the 27-offset
generation.  The edit's full stencil of each moved point is twice the half
stencil per point of a fresh generation, plus O(n) bookkeeping.

``h_solve`` is the kernel-size solve on the two shapes the multiplicative
fixed point could not close: a blast shell re-inserted with ``h`` at the cap
of ``receive_sne`` (it contracted at ~0.65 per sweep there, which is why a
private bisection used to run in front of it) and the sparse tail of the gas
disk with 95% of its gas kept, seed 11 (10 sweeps, up to 6 grids and one
particle unconverged on every pass).  Sweeps, grid builds and ms per pass are
recorded; the *counts* are asserted: nobody unconverged, <= 5 sweeps, one
grid.

``grav_tile`` times the gravity tile on the three shapes the workloads run
— an interaction group of the 4,000-particle halo against its list
(256 x 3,140, mixed precision), the LET import tile of a two-rank run
(1,370 x 2,600, mixed) and a direct sum below ``direct_gravity_below``
(800 x 800, float64) — in Mpair/s for the blocked ``numpy`` tile and the
trailing-axis reference tile, with the bytes the ``numpy`` tile's workspace
holds afterwards.  Asserted: the workspace is one pair block
(``5 * 8 * _TILE_PAIRS + _TILE_PAIRS`` bytes at most) on every shape, and
the blocked tile is >= 1.3x the reference on the import shape.

Results land in ``benchmarks/results/BENCH_backend_kernels.json``.
``repro.perf.calibrate`` consumes the JSON to calibrate the Table-4 cost
model from these local measurements.
"""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import fmt_table
from repro.accel.backends import get_backend, numpy_backend
from repro.accel.backends.base import TileWorkspace
from repro.core.integrator import IntegratorConfig
from repro.core.runner import CoupledRunner
from repro.fdps.interaction import InteractionCounter
from repro.gravity.treegrav import tree_accel
from repro.ic.galaxy import MW_SPEC, make_mw_mini, make_mw_model
from repro.serve import SurrogateServer
from repro.sn.turbulence import make_turbulent_box
from repro.sph.density import _velocity_estimators, compute_density
from repro.sph.forces import compute_hydro_forces
from repro.sph.kernels import DEFAULT_KERNEL
from repro.sph.neighbors import NeighborGrid, half_pairs_from_gather
from repro.surrogate import voxelize
from repro.surrogate.model import SedovBlastOracle, SNSurrogate
from tests.accel.test_tile_workspace import _trailing_axis_tile_reference
from tests.fdps.test_tree import _build_per_node_reference
from tests.sph.test_density import (
    _finalize_reference,
    _velocity_estimators_reference,
    sparse_disk_gas,
)
from tests.sph.test_forces import _hydro_force_reference
from tests.sph.test_neighbors import _stencil_pairs_reference
from tests.surrogate.test_voxelize import _deposit_pairs_reference

#: n_per_side -> ~5k / ~20k / ~50k particles.
SIZES = {17: "5k", 27: "20k", 37: "50k"}
WHOLE_STEP_ROUNDS = {17: 3, 27: 3, 37: 2}
#: Tree passes averaged per page-fault row (ru_stime ticks are ~4-10 ms).
FAULT_PASSES = 5
MAX_FAULTS_WITH_WORKSPACE = 5000
#: Floors on (reference seconds / coordinate-plane seconds), see the module
#: docstring for what each reference is and what the old layout measured.
MIN_PLANE_SPEEDUP = {"tile_float64": 1.6, "tile_mixed": 2.0, "candidates": 3.0, "deposit": 7.0}
#: (targets, sources, mixed, exclude_self) of the gravity tiles the
#: workloads run, and the floor of blocked over the reference on the import
#: shape.
GRAV_TILE_SHAPES = {
    "group_256x3140": (256, 3140, True, True),
    "import_1370x2600": (1370, 2600, True, False),
    "direct_800x800": (800, 800, False, True),
}
MIN_IMPORT_TILE_SPEEDUP = 1.3
#: Floors on (reference ms / ms) of the SPH pass after the candidate list,
#: per cloud.  Measured on the box 3.3-3.7 / 2.1-2.6 / 1.44-1.66 (the force
#: kernel's ~135 array passes are bound by memory at 67 k pairs); half pairs
#: 4.4 there, where the candidate list is 2.6x the gather list, and 130 on the
#: disk, where it is 80x — the floor is set where the search costs.
MIN_SPH_PAIR_SPEEDUP = {
    "box_5k": {"finalize": 1.3, "velocity_estimators": 1.8, "hydro_force": 1.25},
    "gas_disk": {"half_pairs": 8.0},
}
#: Level-by-level ``Octree.build`` over the per-node oracle: measured 5.5-7.
MIN_TREE_BUILD_SPEEDUP = 3.0
#: Fresh ``compact_self_pairs`` over ``move_points`` with 4% of the 1,728
#: points moved: measured 2.5-2.9 since the fresh generation walks a half
#: stencil (3.7-4.3 against the 27-offset walk, when the floor was 3).
MIN_LOCAL_EDIT_SPEEDUP = 2.0
#: Sweeps of one kernel-size solve on the ``h_solve`` fixtures (measured: see
#: the JSON; the fixed point ran into ``max_iter = 10`` on both).
MAX_H_SOLVE_SWEEPS = 5


def _box(n_per_side):
    return make_turbulent_box(n_per_side=n_per_side, side=60.0, mean_density=0.05,
                              temperature=100.0, mach=2.0, seed=12)


def _backends():
    """``numpy``, and ``pikg`` when its generated kernels are jitted (plain
    Python kernels would time the interpreter, not the kernel)."""
    return ["numpy", "pikg"] if get_backend("pikg").jitted else ["numpy"]


def _time_kernels(ps, backend):
    """(seconds, interactions) per kernel for one backend on one box.

    The octree is built outside the timed region (backend-independent
    work), so the gravity number measures the walk + kernel evaluation the
    backend actually owns — the quantity ``perf/calibrate.py`` converts to
    Gflop/s.
    """
    from repro.fdps.tree import Octree

    bk = get_backend(backend)
    out = {}

    tree = Octree.build(ps.pos, ps.mass, leaf_size=16)
    t0 = time.perf_counter()
    res = tree_accel(ps.pos, ps.mass, ps.eps, theta=0.5, leaf_size=16,
                     tree=tree, backend=bk)
    out["gravity"] = (time.perf_counter() - t0, res.interactions)

    counter = InteractionCounter()
    t0 = time.perf_counter()
    d = compute_density(ps.pos, ps.vel, ps.mass, ps.u, ps.h, n_ngb=32,
                        counter=counter, backend=bk)
    # Interaction convention of the ledger: the final gather list,
    # counted once (sweep work is proportional; identical across backends).
    out["hydro_density"] = (
        time.perf_counter() - t0, counter.interactions("hydro_density")
    )

    t0 = time.perf_counter()
    f = compute_hydro_forces(ps.pos, ps.vel, ps.mass, d.h, d.dens, d.pres, d.csnd,
                             omega=d.omega, divv=d.divv, curlv=d.curlv,
                             grid=d.grid, backend=bk)
    out["hydro_force"] = (time.perf_counter() - t0, 2 * f.n_pairs)
    return out


#: name -> whether the ``numpy`` pass owns a workspace.  With
#: ``workspace=None`` it maps one arena per pass and faults it in again every
#: pass; only a caller-owned workspace is free of faults by construction,
#: and only that row is asserted.
GRAVITY_PASS_ROWS = {"without_workspace": False, "with_workspace": True}


def _measure_gravity_pass(row):
    """Page faults and system time of one tree-gravity pass at N = 4000 (the
    e2e ``halo_gravity`` workload: mixed precision, n_g = 256), averaged
    over ``FAULT_PASSES`` passes after one warm-up pass."""
    from repro.fdps.tree import Octree

    owns = GRAVITY_PASS_ROWS[row]
    workspace = TileWorkspace() if owns else None
    ps = make_mw_mini(4000, seed=3)
    tree = Octree.build(ps.pos, ps.mass, leaf_size=16)

    def one_pass():
        tree_accel(ps.pos, ps.mass, ps.eps, theta=0.5, n_g=256, leaf_size=16,
                   mixed_precision=True, tree=tree, backend="numpy",
                   workspace=workspace)

    one_pass()  # the workspace grows to its largest tile here
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for _ in range(FAULT_PASSES):
        one_pass()
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "ru_minflt_per_pass": (after.ru_minflt - before.ru_minflt) / FAULT_PASSES,
        "stime_over_wall": (after.ru_stime - before.ru_stime) / wall,
        "wall_per_pass_s": wall / FAULT_PASSES,
        "workspace_mb": workspace.nbytes / 2**20 if owns else 0.0,
    }


def _gravity_pass_kernel_cost(row):
    """:func:`_measure_gravity_pass` in a fresh interpreter.

    What a pass costs the kernel depends on what the process freed before
    it: after one large free glibc raises its mmap and trim thresholds and
    per-tile temporaries stop being unmapped.  A simulation starts from a
    fresh process, so that is where the rows are measured.
    """
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root), str(root / "src")]))
    code = (
        "import json; from benchmarks.bench_backend_kernels import _measure_gravity_pass; "
        f"print(json.dumps(_measure_gravity_pass({row!r})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=root, check=True,
        capture_output=True, text=True, timeout=300,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_grav_tile():
    """Mpair/s of the blocked ``numpy`` tile and the trailing-axis reference
    tile on the workloads' three tile shapes, and the ``numpy`` workspace's
    bytes."""
    rng = np.random.default_rng(9)
    numpy_bk = get_backend("numpy")
    out = {}
    for label, (n_t, n_s, mixed, exclude_self) in GRAV_TILE_SHAPES.items():
        tile = (
            rng.normal(size=(n_t, 3)) * 100.0, np.full(n_t, 1.0),
            rng.normal(size=(n_s, 3)) * 1000.0, rng.uniform(0.5, 2.0, n_s), np.full(n_s, 1.0),
        )
        if exclude_self:
            tile[2][: min(n_t, n_s)] = tile[0][: min(n_t, n_s)]
        kw = {"exclude_self": exclude_self, "mixed": mixed}
        workspace = TileWorkspace()
        blocked = _best_of(lambda: numpy_bk.grav_tile(*tile, workspace=workspace, **kw), 7)
        ref = _best_of(lambda: _trailing_axis_tile_reference(*tile, **kw), 7)
        out[label] = {
            "mixed": mixed,
            "blocked_mpair_per_s": n_t * n_s / blocked / 1e6,
            "reference_mpair_per_s": n_t * n_s / ref / 1e6,
            "speedup": ref / blocked,
            "workspace_bytes": workspace.nbytes,
        }
    return out


def _time_plane_kernels():
    """Each coordinate-plane kernel alone, against its reference: seconds
    (best of a few), ns/pair for the tiles, and the speed-up ratio."""
    rng = np.random.default_rng(5)
    out = {}

    # One interaction-group tile of the 4,000-particle halo: 256 x 3163.
    n_t, n_s = 256, 3163
    tile = (
        rng.normal(size=(n_t, 3)) * 100.0, np.full(n_t, 1.0),
        rng.normal(size=(n_s, 3)) * 1000.0, rng.uniform(0.5, 2.0, n_s), np.full(n_s, 1.0),
    )
    numpy_bk, workspace = get_backend("numpy"), TileWorkspace()
    for mixed in (False, True):
        kw = {"exclude_self": True, "mixed": mixed}
        planes = _best_of(lambda: numpy_bk.grav_tile(*tile, workspace=workspace, **kw), 10)
        ref = _best_of(lambda: _trailing_axis_tile_reference(*tile, **kw), 10)
        out["tile_mixed" if mixed else "tile_float64"] = {
            "planes_ns_per_pair": planes / (n_t * n_s) * 1e9,
            "reference_ns_per_pair": ref / (n_t * n_s) * 1e9,
            "speedup": ref / planes,
        }

    # Candidate pairs of the 5k box at the cell the density solve bins with.
    box = _box(17)
    cell = float(box.h.max())

    def filtered_self_pairs():
        i, j, r = _stencil_pairs_reference(NeighborGrid.build(box.pos, cell))
        keep = r < cell
        return i[keep], j[keep], r[keep]

    planes = _best_of(lambda: NeighborGrid.build(box.pos, cell).compact_self_pairs(), 5)
    ref = _best_of(filtered_self_pairs, 5)
    out["candidates"] = {"planes_ms": planes * 1e3, "reference_ms": ref * 1e3,
                         "speedup": ref / planes}

    # One 8^3 SN region of 216 gas particles, kernels ~2.7 voxels wide.
    region = make_turbulent_box(n_per_side=6, side=60.0, mean_density=0.05,
                                temperature=100.0, mach=2.0, seed=12)
    n_grid, vox = 8, 60.0 / 8
    deposit = (region.pos / vox + n_grid / 2.0 - 0.5, np.maximum(region.h, 1.001 * vox),
               n_grid, vox, voxelize.DEFAULT_KERNEL)
    planes = _best_of(lambda: voxelize._deposit_pairs(*deposit), 5)
    ref = _best_of(lambda: _deposit_pairs_reference(*deposit), 3)
    out["deposit"] = {"planes_ms": planes * 1e3, "reference_ms": ref * 1e3,
                      "speedup": ref / planes}
    return out


def _time_sn_local_edit():
    """``move_points`` against a fresh candidate generation on the same
    binning, per moved share: ms (best of a few) and the ratio."""
    box = make_turbulent_box(n_per_side=12, side=180.0, seed=3)
    pos, n = box.pos, len(box)
    # The cell the workload's passes bin with: the converged solve's grid.
    cell = compute_density(pos, box.vel, box.mass, box.u, box.h, n_ngb=32).grid.cell
    rng = np.random.default_rng(19)
    out = {"n_points": n}
    for label, share in (("moved_4pct", 0.04), ("moved_55pct", 0.55)):
        rows = rng.choice(n, size=round(share * n), replace=False)
        # Scattered around where they were, inside the box of the points.
        new_pos = np.clip(pos[rows] + rng.normal(0.0, 10.0, (len(rows), 3)),
                          pos.min(axis=0), pos.max(axis=0))
        edited = pos.copy()
        edited[rows] = new_pos
        edit_s = fresh_s = np.inf
        for _ in range(7):
            grid = NeighborGrid.build(pos, cell)
            grid.compact_self_pairs()
            t0 = time.perf_counter()
            repaired = grid.move_points(rows, new_pos)
            edit_s = min(edit_s, time.perf_counter() - t0)
            assert repaired
            # The same binning over the edited positions, list not yet made.
            fresh = NeighborGrid(lo=grid.lo, cell=grid.cell, dims=grid.dims, order=grid.order,
                                 sorted_keys=grid.sorted_keys, pos=edited)
            t0 = time.perf_counter()
            fresh.compact_self_pairs()
            fresh_s = min(fresh_s, time.perf_counter() - t0)
        out[label] = {"rows": len(rows), "candidates": len(grid.compact_self_pairs()[0]),
                      "edit_ms": edit_s * 1e3, "fresh_ms": fresh_s * 1e3,
                      "speedup": fresh_s / edit_s}
    return out


def _time_h_solve():
    """The kernel-size solve where a fixed point stalls: sweeps, grid builds
    and ms per ``compute_density`` (best of a few; the counts repeat).

    ``blast_shell``: the ``sn_storm`` box after a converged pass, the gas of
    one 60 pc region swept into a thin shell and handed back with ``h`` at
    the cap ``receive_sne`` applies (the largest ``h`` of the gas that
    stayed).  ``sparse_disk``: the gas disk with 95% of its gas kept, seed
    11, one small drift after a converged pass — the draw whose tail
    particle oscillated across the cell boundary on every pass.
    """
    out = {}

    def solve(label, pos, vel, mass, u, h_guess, n_ngb):
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            d = compute_density(pos, vel, mass, u, h_guess, n_ngb=n_ngb)
            best = min(best, time.perf_counter() - t0)
        out[label] = {"n_gas": len(pos), "sweeps": d.iterations, "grid_builds": d.grid_builds,
                      "n_unconverged": d.n_unconverged, "ms": best * 1e3}
        return d

    box = make_turbulent_box(n_per_side=12, side=180.0, seed=3)
    h = compute_density(box.pos, box.vel, box.mass, box.u, box.h, n_ngb=64).h
    rows = np.flatnonzero(np.all(np.abs(box.pos) < 30.0, axis=1))
    rng = np.random.default_rng(19)
    shell = rng.normal(size=(len(rows), 3))
    pos = box.pos.copy()
    pos[rows] = 25.0 * shell / np.linalg.norm(shell, axis=1, keepdims=True)
    h[rows] = np.delete(h, rows).max()
    solve("blast_shell", pos, box.vel, box.mass, box.u, h, 64)

    gas = sparse_disk_gas(11)
    args = (gas.vel, gas.mass, gas.u)
    h = compute_density(gas.pos, *args, gas.h, n_ngb=64).h
    solve("sparse_disk", gas.pos + 0.002 * h[:, None] * rng.normal(size=gas.pos.shape),
          *args, h, 64)
    return out


def _gas_disk():
    """The gas of a 2,500-particle exponential disk: kernel sizes span 10x,
    so the cell (= the largest) leaves a candidate list ~20x the gather list
    — where a search over the candidates costs most."""
    ps = make_mw_model(2500, seed=3, spec=MW_SPEC.scaled(0.01),
                       count_fractions=(0.02, 0.02, 0.96))
    return ps.gas()


def _time_sph_pair_kernels(cloud):
    """What the SPH pass does on ``cloud`` after the candidate list, piece by
    piece: ms per call (best of a few) against each reference."""
    pos, vel, mass = cloud.pos, cloud.vel, cloud.mass
    numpy_bk = get_backend("numpy")
    d = compute_density(pos, vel, mass, cloud.u, cloud.h, n_ngb=32, backend=numpy_bk)
    dens_safe = np.maximum(d.dens, 1e-300)
    half = half_pairs_from_gather(d.pairs, d.h)
    # Candidate lists (compacted and full stencil) made outside the timed calls.
    gather = numpy_bk.density_gather(d.grid, pos, DEFAULT_KERNEL)
    stencil = _stencil_pairs_reference(d.grid)
    estimator_args = (d.pairs, pos, vel, mass, d.h, dens_safe, DEFAULT_KERNEL)
    balsara = np.abs(d.divv) / (np.abs(d.divv) + d.curlv + 1e-4 * d.csnd / d.h)
    force_args = (pos, vel, mass, d.h, d.dens, d.pres, d.csnd, d.omega, balsara,
                  1.0, 2.0, DEFAULT_KERNEL)

    pieces = {
        "finalize": (lambda: gather.finalize(d.h, mass),
                     lambda: _finalize_reference(stencil, d.h, mass, DEFAULT_KERNEL)),
        "velocity_estimators": (lambda: _velocity_estimators(*estimator_args),
                                lambda: _velocity_estimators_reference(*estimator_args)),
        "hydro_force": (lambda: numpy_bk.hydro_force_pairs(*force_args, pairs=half),
                        lambda: _hydro_force_reference(*force_args, half)),
        "half_pairs": (lambda: half_pairs_from_gather(d.pairs, d.h),
                       lambda: numpy_bk._half_pairs(pos, d.h, d.grid)),
    }
    out = {"gather_pairs": len(d.pairs[0]), "half_pairs_n": len(half[0]),
           "candidates": len(d.grid.compact_self_pairs()[0])}
    for label, (fn, ref_fn) in pieces.items():
        ms, ref_ms = _best_of(fn, 7) * 1e3, _best_of(ref_fn, 5) * 1e3
        out[label] = {"ms": ms, "reference_ms": ref_ms, "speedup": ref_ms / ms}
    return out


def _time_tree_build():
    """``Octree.build`` of the 4,000-particle halo against the per-node build."""
    from repro.fdps.tree import Octree

    halo = make_mw_mini(4000, seed=3)
    ms = _best_of(lambda: Octree.build(halo.pos, halo.mass, leaf_size=16), 7) * 1e3
    ref_ms = _best_of(
        lambda: _build_per_node_reference(halo.pos, halo.mass, leaf_size=16), 5
    ) * 1e3
    return {"ms": ms, "reference_ms": ref_ms, "speedup": ref_ms / ms}


def _whole_step(n_per_side, backend):
    ps = _box(n_per_side)
    cfg = IntegratorConfig(self_gravity=True, enable_cooling=True,
                           enable_star_formation=False, backend=backend,
                           n_pool=5, latency_steps=5)
    surr = SNSurrogate(oracle=SedovBlastOracle(t_after=0.01), n_grid=8, side=60.0)
    sim = CoupledRunner(ps, SurrogateServer(surrogate=surr), n_ranks=1, config=cfg)
    sim.run(1)  # warm-up: startup force pass (and JIT compilation)
    rounds = WHOLE_STEP_ROUNDS[n_per_side]
    t0 = time.perf_counter()
    sim.run(rounds)
    return (time.perf_counter() - t0) / rounds


def test_backend_kernels(benchmark, results_dir, write_result):
    kernels: dict = {}
    whole: dict = {}

    def _run():
        # Warm every backend on a tiny box first so JIT compilation (pikg)
        # never pollutes a measured round.
        warm = _box(9)
        for bk in _backends():
            _time_kernels(warm, bk)
        for n_side, label in SIZES.items():
            ps = _box(n_side)
            for bk in _backends():
                for kname, (s, it) in _time_kernels(ps, bk).items():
                    kernels.setdefault(kname, {}).setdefault(bk, {})[label] = {
                        "seconds": s,
                        "interactions": it,
                        "inter_per_s": it / max(s, 1e-12),
                    }
            whole[label] = {bk: {"wall_per_step_s": _whole_step(n_side, bk)}
                            for bk in _backends()}

    benchmark.pedantic(_run, rounds=1, iterations=1)
    gravity_pass = {row: _gravity_pass_kernel_cost(row) for row in GRAVITY_PASS_ROWS}
    grav_tile = _time_grav_tile()
    plane_kernels = _time_plane_kernels()
    sph_pair_kernels = {"box_5k": _time_sph_pair_kernels(_box(17)),
                        "gas_disk": _time_sph_pair_kernels(_gas_disk())}
    tree_build = _time_tree_build()
    sn_local_edit = _time_sn_local_edit()
    h_solve = _time_h_solve()

    payload = {
        "backends": _backends(),
        "pikg_jitted": get_backend("pikg").jitted,
        "grav_tile": {"tile_pairs": numpy_backend._TILE_PAIRS, "shapes": grav_tile},
        "gravity_pass_n4000": gravity_pass,
        "plane_kernels": plane_kernels,
        "sph_pair_kernels": sph_pair_kernels,
        "tree_build": tree_build,
        "sn_local_edit": sn_local_edit,
        "h_solve": h_solve,
        "kernels": kernels,
        "whole_step": whole,
    }
    (results_dir / "BENCH_backend_kernels.json").write_text(
        json.dumps(payload, indent=2)
    )

    rows = []
    for kname, per_bk in kernels.items():
        for bk, per_size in per_bk.items():
            for label, cell in per_size.items():
                rows.append([kname, bk, label, cell["inter_per_s"] / 1e6])
    for label, per_bk in whole.items():
        for bk, cell in per_bk.items():
            rows.append(["whole_step s", bk, label, cell["wall_per_step_s"]])
    for label, cell in gravity_pass.items():
        rows.append(["gravity faults/pass", "numpy", label, cell["ru_minflt_per_pass"]])
    for label, cell in grav_tile.items():
        rows.append(["grav tile Mpair/s", "numpy", label, cell["blocked_mpair_per_s"]])
        rows.append(["grav tile Mpair/s", "reference", label, cell["reference_mpair_per_s"]])
    for label, cell in plane_kernels.items():
        rows.append(["planes vs reference", "numpy", label, cell["speedup"]])
    for cloud, floors in MIN_SPH_PAIR_SPEEDUP.items():
        for label in floors:
            rows.append([f"sph {label} vs reference", "numpy", cloud,
                         sph_pair_kernels[cloud][label]["speedup"]])
    rows.append(["tree build vs per-node", "numpy", "4k halo", tree_build["speedup"]])
    for label in ("moved_4pct", "moved_55pct"):
        rows.append(["grid edit vs fresh candidates", "numpy", label,
                     sn_local_edit[label]["speedup"]])
    for label, cell in h_solve.items():
        rows.append(["h solve: sweeps", "numpy", label, cell["sweeps"]])
    write_result(
        "backend_kernels",
        fmt_table(["kernel", "backend", "size", "Minter/s | s | speedup"], rows),
    )

    # The regression alarm of the tile workspace: a pass that owns one takes
    # (almost) no page faults once the workspace has grown.
    assert (
        gravity_pass["with_workspace"]["ru_minflt_per_pass"] < MAX_FAULTS_WITH_WORKSPACE
    )

    # The gravity tile holds one pair block whatever its shape, and blocking
    # both axes pays where the reference tile streams the most: the import
    # tile.
    block_bytes = 5 * 8 * numpy_backend._TILE_PAIRS + numpy_backend._TILE_PAIRS
    for label, cell in grav_tile.items():
        assert cell["workspace_bytes"] <= block_bytes, (label, cell)
    assert grav_tile["import_1370x2600"]["speedup"] >= MIN_IMPORT_TILE_SPEEDUP, grav_tile

    # The regression alarm of the coordinate planes: each kernel against the
    # reference it replaced, as a ratio.
    for label, floor in MIN_PLANE_SPEEDUP.items():
        assert plane_kernels[label]["speedup"] >= floor, (label, plane_kernels[label])

    # The same alarm for the SPH pass after the candidate list and the tree.
    for cloud, floors in MIN_SPH_PAIR_SPEEDUP.items():
        for label, floor in floors.items():
            cell = sph_pair_kernels[cloud][label]
            assert cell["speedup"] >= floor, (cloud, label, cell)
    assert tree_build["speedup"] >= MIN_TREE_BUILD_SPEEDUP, tree_build
    # One SN region's edit must stay well under a second candidate generation.
    assert sn_local_edit["moved_4pct"]["speedup"] >= MIN_LOCAL_EDIT_SPEEDUP, sn_local_edit
    # The kernel-size solve converges where the fixed point did not — counts,
    # not milliseconds: every particle inside tolerance, a handful of sweeps,
    # and no regridding back and forth across a cell boundary.
    for label, cell in h_solve.items():
        assert cell["n_unconverged"] == 0 and cell["sweeps"] <= MAX_H_SOLVE_SWEEPS, (label, cell)
        assert cell["grid_builds"] == 1, (label, cell)
    for per_bk in kernels.values():
        for per_size in per_bk.values():
            for cell in per_size.values():
                assert cell["interactions"] > 0
