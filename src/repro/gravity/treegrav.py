"""Barnes–Hut tree gravity using the FDPS group-walk strategy.

For each Morton-contiguous interaction group of up to ``n_g`` particles, a
tree walk builds a shared interaction list (accepted monopoles + opened-leaf
particles) and a single vectorized kernel call evaluates the whole
group-versus-list tile.  The walks of all groups run as one wave traversal
(:meth:`~repro.fdps.tree.Octree.walk_groups`), each group's list equal,
order included, to a walk of that group alone.  This is the structure whose
cost trade-off the paper analyses in Sec. 5.2.4: tree-walk cost
~ O(N log(N_loc)/n_g), kernel cost ~ O(N n_l) with list length
n_l ~ O(log N + n_g).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.accel.backends.base import KernelBackend, TileWorkspace
from repro.fdps.interaction import InteractionCounter
from repro.fdps.tree import Octree
from repro.util.constants import GRAV_CONST

if TYPE_CHECKING:
    from repro.obs.trace import Tracer


@dataclass
class TreeGravityResult:
    """Acceleration plus the walk statistics the performance model consumes."""

    acc: np.ndarray
    n_groups: int
    mean_list_length: float
    interactions: int


@dataclass
class GroupTiles:
    """The group-vs-list tiles of one tree pass, walked but not evaluated.

    ``targets`` are the local rows of each sorted-order group that holds
    any (imports receive no force) and ``lists`` the groups' interaction
    lists (accepted node ids, opened-leaf particles) from one wave
    traversal; ``sources`` are the ``(pos, mass, eps)`` of every particle
    the tree covers.  A tile writes its own targets' rows and nothing else,
    so any group can be evaluated on its own, in any order and by any
    process that walked the same tree: :meth:`evaluate` is the one group
    loop, which :func:`tree_accel` runs over every group and
    :class:`repro.accel.ForceEngine` and its gravity helper run over the
    groups each claims (:mod:`repro.accel.gravity_helper`).
    """

    tree: Octree
    pos: np.ndarray
    eps: np.ndarray
    sources: tuple[np.ndarray, np.ndarray, np.ndarray]
    targets: list[np.ndarray]
    lists: list[tuple[np.ndarray, np.ndarray]]
    mixed: bool = False
    g: float = GRAV_CONST

    @classmethod
    def walk(
        cls,
        tree: Octree,
        pos: np.ndarray,
        eps: np.ndarray,
        sources: tuple[np.ndarray, np.ndarray, np.ndarray],
        n_g: int,
        theta: float,
        mixed: bool = False,
        g: float = GRAV_CONST,
    ) -> GroupTiles:
        """Walk every group holding local targets in one traversal."""
        groups, targets = [], []
        for start, end in tree.group_slices(n_g):
            members = tree.order[start:end]       # original indices in group
            local = members[members < len(pos)]
            if len(local):
                groups.append((start, end))
                targets.append(local)
        return cls(tree, pos, eps, sources, targets, tree.walk_groups(groups, theta), mixed, g)

    @property
    def n_groups(self) -> int:
        return len(self.targets)

    @property
    def list_len(self) -> np.ndarray:
        return np.array([len(nodes) + len(parts) for nodes, parts in self.lists], dtype=np.int64)

    @property
    def costs(self) -> np.ndarray:
        """Pairs per group tile: targets x list length."""
        return np.array([len(t) for t in self.targets], dtype=np.int64) * self.list_len

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The target rows that groups ``lo:hi`` write."""
        return np.concatenate(self.targets[lo:hi]) if lo < hi else np.empty(0, dtype=np.int64)

    def evaluate(
        self, acc: np.ndarray, groups: Iterable[int], backend: KernelBackend,
        workspace: TileWorkspace,
    ) -> None:
        """Write the accelerations of ``groups`` into their rows of ``acc``,
        in the order the iterable yields them (it may be a claimer that
        decides the next group only when asked)."""
        node_com, node_mass = self.tree.node_com, self.tree.node_mass
        src_pos, src_mass, src_eps = self.sources
        for k in groups:
            nodes, parts = self.lists[k]
            targets = self.targets[k]
            acc[targets] = backend.grav_tile(
                self.pos[targets],
                self.eps[targets],
                np.concatenate([node_com[nodes], src_pos[parts]]),
                np.concatenate([node_mass[nodes], src_mass[parts]]),
                np.concatenate([np.zeros(len(nodes)), src_eps[parts]]),
                exclude_self=True,
                mixed=self.mixed,
                g=self.g,
                workspace=workspace,
            )

    def count(self, counter: InteractionCounter) -> None:
        """Charge every tile to ``counter``, one list per group."""
        for targets, length in zip(self.targets, self.list_len, strict=True):
            counter.add("gravity", len(targets), length)


def tree_accel(
    pos: np.ndarray,
    mass: np.ndarray,
    eps: np.ndarray,
    theta: float = 0.5,
    n_g: int = 256,
    leaf_size: int = 16,
    counter: InteractionCounter | None = None,
    mixed_precision: bool = False,
    extra_pos: np.ndarray | None = None,
    extra_mass: np.ndarray | None = None,
    g: float = GRAV_CONST,
    tree: Octree | None = None,
    backend=None,
    workspace: TileWorkspace | None = None,
) -> TreeGravityResult:
    """Tree acceleration on all particles.

    ``backend`` selects the compute backend evaluating the group-vs-list
    tiles (name or instance; default: the registry's selection).
    ``workspace`` is the caller's tile scratch, reused by every group tile
    and the import tile of this pass (bit-identical to ``None``, which maps
    one for this pass alone; see :meth:`KernelBackend.grav_tile`).

    ``extra_pos/extra_mass`` inject imported LET matter (pseudo + boundary
    particles from remote ranks); they contribute force but receive none.
    ``tree`` skips construction by supplying a prebuilt :class:`Octree` (e.g.
    the cached tree of a :class:`repro.accel.SpatialIndex`), in one of two
    shapes:

    * covering exactly local + extra particles in that order — the combined
      tree is walked as if built here;
    * covering exactly the *local* particles while extras are present — the
      local tree is walked for the local-local forces and the imports
      (already per-domain-aggregated by the LET construction) are evaluated
      once as direct sources on every local target.  This is the distributed
      reuse path: the same cached local tree serves the LET export and the
      force walk, trading a modest kernel-work increase (no MAC
      re-compression of the import list — every target sees every import
      entry) for skipping the per-step combined-tree build entirely; the
      inflation is bounded by the LET summary size, which the export MAC
      keeps far below N_remote.
    """
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    n_local = len(pos)
    has_extra = extra_pos is not None and len(extra_pos) > 0
    if has_extra:
        extra_pos = np.asarray(extra_pos, dtype=np.float64)
        extra_mass = np.asarray(extra_mass, dtype=np.float64)
        extra_eps = np.zeros(len(extra_pos))

    local_tree_mode = (
        tree is not None and has_extra and tree.n_particles == n_local
    )
    if local_tree_mode:
        all_pos, all_mass, all_eps = pos, mass, eps
    elif has_extra:
        all_pos = np.concatenate([pos, extra_pos])
        all_mass = np.concatenate([mass, extra_mass])
        all_eps = np.concatenate([eps, extra_eps])
    else:
        all_pos, all_mass, all_eps = pos, mass, eps

    if tree is None:
        tree = Octree.build(all_pos, all_mass, leaf_size=leaf_size)
    elif tree.n_particles != len(all_pos):
        raise ValueError(
            f"prebuilt tree covers {tree.n_particles} particles, "
            f"expected {len(all_pos)}"
            + (f" (or the {n_local} local ones)" if has_extra else "")
        )
    from repro.accel.backends import get_backend

    bk = get_backend(backend)
    if workspace is None:
        workspace = TileWorkspace()

    tiles = GroupTiles.walk(
        tree, pos, eps, (all_pos, all_mass, all_eps),
        n_g=n_g, theta=theta, mixed=mixed_precision, g=g,
    )
    acc = np.zeros_like(pos)
    tiles.evaluate(acc, range(tiles.n_groups), bk, workspace)
    if counter is not None:
        tiles.count(counter)
    lists = tiles.n_groups
    total_list = int(tiles.list_len.sum())
    total_inter = int(tiles.costs.sum())

    if local_tree_mode:
        # The imports are needed by every group, so evaluate them once for
        # all local targets instead of copying them into each group's list.
        acc += bk.grav_tile(
            pos, eps, extra_pos, extra_mass, extra_eps,
            mixed=mixed_precision, g=g, workspace=workspace,
        )
        if counter is not None:
            counter.add("gravity", n_local, len(extra_pos))
        total_list += lists * len(extra_pos)
        total_inter += n_local * len(extra_pos)

    return TreeGravityResult(
        acc=acc,
        n_groups=lists,
        mean_list_length=total_list / lists if lists else 0.0,
        interactions=total_inter,
    )


def record_gravity_pass(
    tracer: Tracer, pairs: int, workspace: TileWorkspace | None
) -> None:
    """Trace one force pass: ``accel.gravity_passes`` / ``accel.gravity_pairs``
    counters (the report's Mpair/s over the ``Calc_Force`` spans) and the
    tile workspace's bytes as the ``accel.grav_workspace_bytes`` gauge — the
    scratch the pass holds, one pair block whatever N."""
    tracer.count("accel.gravity_passes")
    tracer.count("accel.gravity_pairs", pairs)
    if workspace is not None:
        tracer.gauge("accel.grav_workspace_bytes", workspace.nbytes)
