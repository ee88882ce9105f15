"""The gravity helper: a second process that takes part in every gravity pass.

Inside one node the paper's ranks run their force loop in parallel over
the interaction groups (FDPS splits the group loop across threads), each
MPI rank runs its own tree, LET and force loop, and gravity and hydro are
two independent interaction passes over the same positions.  Here a
:class:`~repro.accel.ForceEngine` that does the gravity of a run gets one
forked helper, and every pass of either kind is shared with it.

Two pass kinds, one protocol:

* **groups** — one tree pass of the engine, split by the interaction
  groups of one octree (global force mode);
* **ranks** — one force pass of
  :class:`~repro.fdps.distributed.DistributedGravity`, split by whole
  emulated ranks (distributed force mode), the unit FDPS runs in parallel.

Every pass works like this:

1. **submit** — main lays the pass's blocks back to back in the input slot
   of a :class:`~repro.util.shm.SharedMemoryRing` (one block per unit of
   data: its targets' ``pos`` / ``mass`` / ``eps`` and, for a rank, its
   LET imports' ``pos`` / ``mass``), resets the two claim counters in the
   output slot's header (``helper_hi = 0``, ``main_lo = +inf``) and sends
   ``go`` (the kind, the pass number, the block sizes and the walk
   parameters) over a pipe.  A tree pass is submitted before the SPH pass,
   so main runs density + hydro while the helper builds the octree, walks
   every group and starts evaluating; a rank pass is submitted after the
   LET exchange, and the SPH pass follows it;
2. **claim from both ends** — the helper takes units (groups, or ranks)
   ``0, 1, ...`` and main ``n-1, n-2, ...``: each side stops at the first
   unit the other has claimed, and publishes its claim (``helper_hi = g +
   1`` / ``main_lo = g``) before it evaluates ``g`` (:func:`claim_up`,
   :func:`claim_down`).  No lock: a claim is never given back, so every
   unit is evaluated at least once, and only the unit both sides reached
   together is evaluated twice.  A helper that shares its CPU (with a serve
   worker, or another tenant of the host) simply claims fewer units —
   nothing predicts its rate;
3. **collect** — the helper tags the output slot with the pass number and
   answers ``done`` with its busy seconds, its final ``helper_hi`` and, for
   a rank pass, a :class:`RankDone` per rank (start, busy seconds,
   interactions and list tally); main copies the helper's rows of the
   units ``[0, main_lo)``.

The result is bit-identical to the serial pass.  Gravity reads only
``pos`` / ``mass`` / ``eps`` (and a rank's imports), which the SPH pass
never writes.  In a tree pass both processes build the same octree and
walk the same lists (both steps are deterministic), and a tile
(:meth:`~repro.gravity.treegrav.GroupTiles.evaluate`, the one group loop)
writes only its own targets' rows.  In a rank pass both processes run
:func:`rank_accel` — :func:`~repro.gravity.treegrav.tree_accel` on the
rank's local tree with its imports as extra sources — on the same inputs;
the helper builds the rank's tree itself with the same deterministic
:meth:`~repro.fdps.tree.Octree.build`.  So whichever side evaluated a
unit, and if both did, the assembled ``acc`` holds the same bits.

Ownership.  The helper is a :class:`repro.util.shm.Child` whose handler is
:class:`_HelperPass`, so the fork, the pipe, the wait on the pipe and the
process sentinel, and the stop-and-reap are the ones the serve workers use.
Main owns the process and the ring: it creates both, re-creates the ring
when a pass outgrows it, and :meth:`GravityHelper.close` stops
and reaps the process and unlinks the ring (also when the handle is
garbage-collected or the interpreter exits).  The helper owns nothing it
inherits: it gets the backend name as an argument, attaches each ring by
name and only unmaps it.

Failure never changes a result.  A dead helper, one that has not answered
within :data:`DEADLINE_S` (it is killed), or an answer for another pass
raises :class:`HelperLost`, the :class:`~repro.util.shm.ChildLost` of every
child; main then evaluates the units below its own claims itself, logs
once, and runs every later pass alone.  A submitted
pass that main will not collect (an exception in between) is cancelled
(:meth:`GravityHelper.cancel`), so none is left in flight.  There is no
restart, and no option, keyword or environment variable turns the helper
on or off.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from typing import Any, NamedTuple

import numpy as np

from repro.accel.backends import get_backend
from repro.accel.backends.base import TileWorkspace
from repro.fdps.interaction import InteractionCounter
from repro.fdps.tree import Octree
from repro.gravity.treegrav import GroupTiles, tree_accel
from repro.util.shm import Child, ChildLost, SharedMemoryRing, owner_finalizer

#: Seconds main waits for the helper's answer before evaluating its share itself.
DEADLINE_S = 10.0
#: Ring slots: the blocks in; header | acc out.
_IN, _OUT = 0, 1
#: The output slot's header: pass-number tag, the helper's claims
#: ``[0, helper_hi)``, main's claims ``[main_lo, n)``; ``acc`` follows.
_TAG, _HELPER_HI, _MAIN_LO, _HEADER = 0, 1, 2, 3
#: Floats of ring capacity per particle (the input slot is the larger).
_FLOATS_PER_PARTICLE = 5

#: The helper cannot deliver this pass: dead, late or out of step.
HelperLost = ChildLost

#: One block of a pass: ``pos``, ``mass``, ``eps`` of its targets and the
#: ``pos``, ``mass`` of its imported sources (empty for a group pass).
Block = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class RankDone(NamedTuple):
    """The helper's account of one rank it evaluated: when it started
    (``time.monotonic()``), its busy seconds, and the pairs and list tally
    that rank's pass charges to an :class:`InteractionCounter`."""

    rank: int
    started: float
    busy_s: float
    interactions: int
    n_lists: int
    list_total: int


def _ring_floats(n: int) -> int:
    """Slot size for ``n`` floats and some growth (star formation)."""
    return n + n // 8 + 1


def _blocks(inp: np.ndarray, sizes: Sequence[tuple[int, int]]) -> Iterator[Block]:
    """The blocks laid back to back in the input slot: per ``(n, m)``,
    ``n`` targets' pos | mass | eps, then ``m`` imports' pos | mass."""
    at = 0
    for n, m in sizes:
        pos = inp[at : at + 3 * n].reshape(n, 3)
        mass, eps = inp[at + 3 * n : at + 4 * n], inp[at + 4 * n : at + 5 * n]
        at += 5 * n
        imp_pos = inp[at : at + 3 * m].reshape(m, 3)
        imp_mass = inp[at + 3 * m : at + 4 * m]
        at += 4 * m
        yield pos, mass, eps, imp_pos, imp_mass


def _accs(out: np.ndarray, sizes: Sequence[int]) -> Iterator[np.ndarray]:
    """Each block's ``acc`` rows in the output slot, after the header."""
    at = _HEADER
    for n in sizes:
        yield out[at : at + 3 * n].reshape(n, 3)
        at += 3 * n


def claim_up(header: np.ndarray, n_units: int) -> Iterator[int]:
    """The helper's claims: units ``0, 1, ...`` until one main holds.

    ``g`` is published (``helper_hi = g + 1``) before it is yielded for
    evaluation, and the walk stops at the first ``g >= main_lo``.
    """
    g = 0
    while g < n_units and g < header[_MAIN_LO]:
        header[_HELPER_HI] = g + 1
        yield g
        g += 1


def claim_down(header: np.ndarray, n_units: int) -> Iterator[int]:
    """Main's claims: units ``n-1, n-2, ...`` until one the helper holds.

    ``g`` is published (``main_lo = g``) before it is yielded for
    evaluation, and the walk stops at the first ``g < helper_hi``.
    """
    g = n_units - 1
    while g >= 0 and g >= header[_HELPER_HI]:
        header[_MAIN_LO] = g
        yield g
        g -= 1


def rank_accel(
    block: Block, tree: Octree, theta: float, n_g: int, leaf_size: int, mixed: bool,
    counter: InteractionCounter | None, backend: Any, workspace: TileWorkspace,
) -> tuple[np.ndarray, int]:
    """One emulated rank's force pass — its local tree walked for the local
    sources, its LET imports added as direct sources — as either process
    runs it; returns ``acc`` and the pairs evaluated."""
    pos, mass, eps, imp_pos, imp_mass = block
    res = tree_accel(
        pos, mass, eps, theta=theta, n_g=n_g, leaf_size=leaf_size, counter=counter,
        mixed_precision=mixed, extra_pos=imp_pos, extra_mass=imp_mass, tree=tree,
        backend=backend, workspace=workspace,
    )
    return res.acc, res.interactions


class _HelperPass:
    """The helper's handler: one ``go`` is one pass, answered with ``(pass
    number, busy seconds, final helper_hi, a RankDone per rank evaluated)``."""

    def __init__(self, backend_name: str) -> None:
        self.backend = get_backend(backend_name)
        self.workspace = TileWorkspace()
        self.ring: SharedMemoryRing | None = None

    def __call__(self, msg: tuple[Any, ...]) -> tuple[int, float, int, list[RankDone]]:
        kind, pass_no, ring_name, slot_floats, sizes, theta, n_g, leaf_size, mixed = msg
        t0 = time.perf_counter()
        if self.ring is None or self.ring.name != ring_name:
            if self.ring is not None:
                self.ring.close()
            self.ring = SharedMemoryRing(2, slot_floats, name=ring_name)
        inp, out = self.ring.slot(_IN), self.ring.slot(_OUT)
        blocks = list(_blocks(inp, sizes))
        accs = list(_accs(out, [n for n, _m in sizes]))
        done: list[RankDone] = []
        if kind == "groups":
            pos, mass, eps = blocks[0][:3]
            tiles = GroupTiles.walk(
                Octree.build(pos, mass, leaf_size=leaf_size), pos, eps, (pos, mass, eps),
                n_g=n_g, theta=theta, mixed=mixed,
            )
            tiles.evaluate(accs[0], claim_up(out, tiles.n_groups), self.backend, self.workspace)
        else:
            for r in claim_up(out, len(blocks)):
                pos, mass = blocks[r][:2]
                if len(pos) == 0:
                    continue
                tree = Octree.build(pos, mass, leaf_size=leaf_size)
                # Timed like main's Calc_Force: the force pass, not the build.
                started = time.monotonic()
                counter = InteractionCounter()
                accs[r][:], _pairs = rank_accel(
                    blocks[r], tree, theta, n_g, leaf_size, mixed, counter,
                    self.backend, self.workspace,
                )
                done.append(RankDone(r, started, time.monotonic() - started,
                                     *counter.tally("gravity")))
        out[_TAG] = pass_no
        return pass_no, time.perf_counter() - t0, int(out[_HELPER_HI]), done


def _close(child: Child, rings: list[SharedMemoryRing]) -> None:
    """Stop and reap the helper, unlink its ring."""
    child.close()
    rings[0].close()


class GravityHelper:
    """Main's side of the helper: the :class:`~repro.util.shm.Child` and the ring.

    Started by :meth:`repro.accel.ForceEngine.start_gravity_helper`; one
    pass is :meth:`submit` or :meth:`submit_ranks` (copy the inputs, reset
    the claims, send ``go``), main's own :meth:`claims`, then
    :meth:`collect` or :meth:`collect_ranks` (wait for ``done``, copy the
    helper's rows) — or :meth:`cancel`.
    """

    def __init__(self, backend_name: str, n_particles: int) -> None:
        #: The current ring, in a list the finalizer shares.
        self._rings = [
            SharedMemoryRing(2, _ring_floats(_FLOATS_PER_PARTICLE * n_particles))
        ]
        self._child = Child(_HelperPass, backend_name, name="repro-gravity-helper")
        self._finalizer = owner_finalizer(self, _close, self._child, self._rings)
        self._pass = 0

    @property
    def pid(self) -> int:
        return self._child.pid

    @property
    def _ring(self) -> SharedMemoryRing:
        return self._rings[0]

    def _out(self) -> np.ndarray:
        return self._ring.slot(_OUT)

    def _ship(
        self, kind: str, blocks: Sequence[Block],
        theta: float, n_g: int, leaf_size: int, mixed: bool,
    ) -> int:
        """Lay ``blocks`` back to back in the input slot, reset the claims
        and send ``go``; returns the pass number the answer must carry."""
        sizes = [(len(b[0]), len(b[3])) for b in blocks]
        need = max(sum(5 * n + 4 * m for n, m in sizes),
                   _HEADER + 3 * sum(n for n, _m in sizes))
        if need > self._ring.slot_floats:
            # Star formation or the imports outgrew the ring; the helper,
            # idle between passes, attaches the new one by the name in this go.
            self._ring.close()
            self._rings[0] = SharedMemoryRing(2, _ring_floats(need))
        ring = self._ring
        for block, views in zip(blocks, _blocks(ring.slot(_IN), sizes), strict=True):
            for src, dst in zip(block, views, strict=True):
                dst[...] = src
        out = ring.slot(_OUT)
        out[_HELPER_HI], out[_MAIN_LO] = 0, np.inf
        self._pass += 1
        go = (kind, self._pass, ring.name, ring.slot_floats, sizes,
              float(theta), int(n_g), int(leaf_size), bool(mixed))
        self._child.send(go)
        return self._pass

    def submit(
        self, pos: np.ndarray, mass: np.ndarray, eps: np.ndarray,
        theta: float, n_g: int, leaf_size: int, mixed: bool,
    ) -> int:
        """Ship one tree pass, shared by groups; returns the pass number
        :meth:`collect` expects."""
        none = np.empty((0, 3)), np.empty(0)
        return self._ship("groups", [(pos, mass, eps, *none)], theta, n_g, leaf_size, mixed)

    def submit_ranks(
        self, blocks: Sequence[Block], theta: float, n_g: int, leaf_size: int, mixed: bool,
    ) -> int:
        """Ship one distributed force pass, shared by whole ranks (one block
        per rank: its local particles and its LET imports); returns the pass
        number :meth:`collect_ranks` expects."""
        return self._ship("ranks", blocks, theta, n_g, leaf_size, mixed)

    def claims(self, n_units: int) -> Iterator[int]:
        """Main's claims on the submitted pass (:func:`claim_down`)."""
        return claim_down(self._out(), n_units)

    def main_lo(self, n_units: int) -> int:
        """Main's lowest claim on this pass (``n_units`` before any)."""
        return int(min(self._out()[_MAIN_LO], n_units))

    def _wait(self, pass_no: int, n_units: int) -> tuple[int, int, float, list[RankDone]]:
        """Wait for ``done`` of pass ``pass_no`` and check that the two
        claims on its ``n_units`` left no gap; returns the helper's final
        ``helper_hi``, main's ``main_lo``, the helper's busy seconds and its
        rank accounts."""
        done_pass, busy_s, helper_hi, ranks = self._child.recv(DEADLINE_S)
        tag = self._out()[_TAG]
        if done_pass != pass_no or tag != pass_no:
            raise HelperLost(
                f"answer for pass {done_pass} (slot tag {tag:g}), expected {pass_no}"
            )
        main_lo = self.main_lo(n_units)
        if helper_hi < main_lo:
            raise HelperLost(f"claims [0, {helper_hi}) and [{main_lo}, n) leave a gap")
        return int(helper_hi), main_lo, float(busy_s), ranks

    def collect(self, pass_no: int, acc: np.ndarray, tiles: GroupTiles) -> tuple[int, float]:
        """Wait for pass ``pass_no`` and copy the helper's rows of the groups
        below main's claims into ``acc``; returns the groups the helper
        claimed and its busy seconds.  Raises :class:`HelperLost` instead of
        waiting past :data:`DEADLINE_S`."""
        helper_hi, main_lo, busy_s, _ranks = self._wait(pass_no, tiles.n_groups)
        rows = tiles.rows(0, main_lo)
        acc[rows] = self._out()[_HEADER : _HEADER + acc.size].reshape(acc.shape)[rows]
        return helper_hi, busy_s

    def collect_ranks(self, pass_no: int, accs: list[np.ndarray]) -> list[RankDone]:
        """Wait for pass ``pass_no`` and copy the helper's ``acc`` of every
        rank below main's claims into ``accs``; returns the helper's account
        of each of those ranks.  Raises :class:`HelperLost` as
        :meth:`collect` does."""
        _hi, main_lo, _busy_s, ranks = self._wait(pass_no, len(accs))
        helper_accs = _accs(self._out(), [len(a) for a in accs[:main_lo]])
        for acc, rows in zip(accs[:main_lo], helper_accs, strict=True):
            acc[...] = rows
        return [done for done in ranks if done.rank < main_lo]

    def cancel(self, pass_no: int) -> None:
        """Drop pass ``pass_no``, which main will not collect: claim every
        unit so the helper stops at its next, and wait for its answer.
        Raises :class:`HelperLost` as :meth:`collect` does."""
        self._out()[_MAIN_LO] = 0
        self._wait(pass_no, 0)

    def kill(self) -> None:
        """SIGKILL the helper (a lost one must not touch the ring again)."""
        self._child.kill()

    def close(self) -> None:
        """Stop and reap the helper and unlink its ring; idempotent, and a
        no-op in a forked child holding a copy of this handle."""
        self._finalizer()


__all__ = ["DEADLINE_S", "Block", "GravityHelper", "HelperLost", "RankDone", "rank_accel"]
