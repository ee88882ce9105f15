"""The gravity helper: a second process that takes part in every tree pass.

Inside one node the paper's ranks run their force loop in parallel over
the interaction groups (FDPS splits the group loop across threads), and
gravity and hydro are two independent interaction passes over the same
positions.  Here a :class:`~repro.accel.ForceEngine` that does the gravity
of a run gets one forked helper, and every tree pass works like this:

1. **submit** — before the SPH pass, main copies ``pos`` / ``mass`` /
   ``eps`` into the input slot of a :class:`~repro.util.shm.SharedMemoryRing`,
   resets the two claim counters in the output slot's header
   (``helper_hi = 0``, ``main_lo = +inf``) and sends ``go`` (the pass
   number and the walk parameters) over a pipe;
2. **hydro** — main runs density + hydro while the helper builds the
   octree, walks every group and starts evaluating;
3. **claim from both ends** — the helper takes groups ``0, 1, ...`` and
   main, after hydro, its own build and walk, takes ``n-1, n-2, ...``:
   each side stops at the first group the other has claimed, and publishes
   its claim (``helper_hi = g + 1`` / ``main_lo = g``) before it evaluates
   ``g`` (:func:`claim_up`, :func:`claim_down`).  No lock: a claim is
   never given back, so every group is evaluated at least once, and only
   the group both sides reached together is evaluated twice.  A helper
   that shares its CPU (with a serve worker, or another tenant of the
   host) simply claims fewer groups — nothing predicts its rate;
4. **collect** — the helper tags the output slot with the pass number and
   answers ``done`` with its busy seconds and final ``helper_hi``; main
   copies the helper's rows of groups ``[0, main_lo)``.

The result is bit-identical to :func:`~repro.gravity.treegrav.tree_accel`:
gravity reads only ``pos`` / ``mass`` / ``eps``, which the SPH pass never
writes; both processes build the same octree and walk the same lists
(both steps are deterministic); and a tile
(:meth:`~repro.gravity.treegrav.GroupTiles.evaluate`, the one group loop)
writes only its own targets' rows, giving the same floats in either
process, in any order — so whichever side evaluated a group, and if both
did, the assembled ``acc`` holds the same bits.

Ownership.  The helper is a :class:`repro.util.shm.Child` whose handler is
:class:`_HelperPass`, so the fork, the pipe, the wait on the pipe and the
process sentinel, and the stop-and-reap are the ones the serve workers use.
Main owns the process and the ring: it creates both, re-creates the ring
when the particle count outgrows it, and :meth:`GravityHelper.close` stops
and reaps the process and unlinks the ring (also when the handle is
garbage-collected or the interpreter exits).  The helper owns nothing it
inherits: it gets the backend name as an argument, attaches each ring by
name and only unmaps it.

Failure never changes a result.  A dead helper, one that has not answered
within :data:`DEADLINE_S` (it is killed), or an answer for another pass
raises :class:`HelperLost`, the :class:`~repro.util.shm.ChildLost` of every
child; the engine then evaluates the groups below its own claims itself,
logs once, and runs every later pass alone.  A submitted
pass that main will not collect (an exception in between) is cancelled
(:meth:`GravityHelper.cancel`), so none is left in flight.  There is no
restart, and no option, keyword or environment variable turns the helper
on or off.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.accel.backends import get_backend
from repro.accel.backends.base import TileWorkspace
from repro.fdps.tree import Octree
from repro.gravity.treegrav import GroupTiles
from repro.util.shm import Child, ChildLost, SharedMemoryRing, owner_finalizer

#: Seconds main waits for the helper's answer before evaluating its groups itself.
DEADLINE_S = 10.0
#: Ring slots: pos | mass | eps in; header | acc out.
_IN, _OUT = 0, 1
#: The output slot's header: pass-number tag, the helper's claims
#: ``[0, helper_hi)``, main's claims ``[main_lo, n)``; ``acc`` follows.
_TAG, _HELPER_HI, _MAIN_LO, _HEADER = 0, 1, 2, 3
#: Floats of ring capacity per particle (the input slot is the larger).
_FLOATS_PER_PARTICLE = 5

#: The helper cannot deliver this pass: dead, late or out of step.
HelperLost = ChildLost


def _ring_floats(n: int) -> int:
    """Slot size for ``n`` particles and some growth (star formation)."""
    return _FLOATS_PER_PARTICLE * (n + n // 8 + 1)


def claim_up(header: np.ndarray, n_groups: int) -> Iterator[int]:
    """The helper's claims: groups ``0, 1, ...`` until one main holds.

    ``g`` is published (``helper_hi = g + 1``) before it is yielded for
    evaluation, and the walk stops at the first ``g >= main_lo``.
    """
    g = 0
    while g < n_groups and g < header[_MAIN_LO]:
        header[_HELPER_HI] = g + 1
        yield g
        g += 1


def claim_down(header: np.ndarray, n_groups: int) -> Iterator[int]:
    """Main's claims: groups ``n-1, n-2, ...`` until one the helper holds.

    ``g`` is published (``main_lo = g``) before it is yielded for
    evaluation, and the walk stops at the first ``g < helper_hi``.
    """
    g = n_groups - 1
    while g >= 0 and g >= header[_HELPER_HI]:
        header[_MAIN_LO] = g
        yield g
        g -= 1


class _HelperPass:
    """The helper's handler: one ``go`` is one tree pass, answered with
    ``(pass number, busy seconds, final helper_hi)``."""

    def __init__(self, backend_name: str) -> None:
        self.backend = get_backend(backend_name)
        self.workspace = TileWorkspace()
        self.ring: SharedMemoryRing | None = None

    def __call__(self, msg: tuple[Any, ...]) -> tuple[int, float, int]:
        pass_no, ring_name, slot_floats, n, theta, n_g, leaf_size, mixed = msg
        t0 = time.perf_counter()
        if self.ring is None or self.ring.name != ring_name:
            if self.ring is not None:
                self.ring.close()
            self.ring = SharedMemoryRing(2, slot_floats, name=ring_name)
        inp, out = self.ring.slot(_IN), self.ring.slot(_OUT)
        pos = inp[: 3 * n].reshape(n, 3)
        mass, eps = inp[3 * n : 4 * n], inp[4 * n : 5 * n]
        tiles = GroupTiles.walk(
            Octree.build(pos, mass, leaf_size=leaf_size), pos, eps, (pos, mass, eps),
            n_g=n_g, theta=theta, mixed=mixed,
        )
        acc = out[_HEADER : _HEADER + 3 * n].reshape(n, 3)
        tiles.evaluate(acc, claim_up(out, tiles.n_groups), self.backend, self.workspace)
        out[_TAG] = pass_no
        return pass_no, time.perf_counter() - t0, int(out[_HELPER_HI])


def _close(child: Child, rings: list[SharedMemoryRing]) -> None:
    """Stop and reap the helper, unlink its ring."""
    child.close()
    rings[0].close()


class GravityHelper:
    """Main's side of the helper: the :class:`~repro.util.shm.Child` and the ring.

    Started by :meth:`repro.accel.ForceEngine.start_gravity_helper`; one
    pass is :meth:`submit` (copy the inputs, reset the claims, send
    ``go``), main's own :meth:`claims`, then :meth:`collect` (wait for
    ``done``, copy the helper's rows) — or :meth:`cancel`.
    """

    def __init__(self, backend_name: str, n_particles: int) -> None:
        #: The current ring, in a list the finalizer shares.
        self._rings = [SharedMemoryRing(2, _ring_floats(n_particles))]
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

    def submit(
        self, pos: np.ndarray, mass: np.ndarray, eps: np.ndarray,
        theta: float, n_g: int, leaf_size: int, mixed: bool,
    ) -> int:
        """Copy the pass's inputs into the ring, reset the claims and send
        ``go``; returns the pass number :meth:`collect` expects."""
        n = len(pos)
        if _FLOATS_PER_PARTICLE * n > self._ring.slot_floats:
            # Star formation outgrew the ring; the helper, idle between
            # passes, attaches the new one by the name in this go.
            self._ring.close()
            self._rings[0] = SharedMemoryRing(2, _ring_floats(n))
        ring = self._ring
        inp = ring.slot(_IN)
        inp[: 3 * n] = pos.ravel()
        inp[3 * n : 4 * n] = mass
        inp[4 * n : 5 * n] = eps
        out = ring.slot(_OUT)
        out[_HELPER_HI], out[_MAIN_LO] = 0, np.inf
        self._pass += 1
        go = (self._pass, ring.name, ring.slot_floats, n,
              float(theta), int(n_g), int(leaf_size), bool(mixed))
        self._child.send(go)  # repro-lint: disable=ledger-label -- a pipe
        return self._pass

    def claims(self, n_groups: int) -> Iterator[int]:
        """Main's claims on the submitted pass (:func:`claim_down`)."""
        return claim_down(self._out(), n_groups)

    def main_lo(self, n_groups: int) -> int:
        """Main's lowest claim on this pass (``n_groups`` before any)."""
        return int(min(self._out()[_MAIN_LO], n_groups))

    def _wait(self, pass_no: int) -> tuple[int, float]:
        """Wait for ``done`` of pass ``pass_no``; returns the helper's final
        ``helper_hi`` and busy seconds."""
        done_pass, busy_s, helper_hi = self._child.recv(DEADLINE_S)
        tag = self._out()[_TAG]
        if done_pass != pass_no or tag != pass_no:
            raise HelperLost(
                f"answer for pass {done_pass} (slot tag {tag:g}), expected {pass_no}"
            )
        return int(helper_hi), float(busy_s)

    def collect(self, pass_no: int, acc: np.ndarray, tiles: GroupTiles) -> tuple[int, float]:
        """Wait for pass ``pass_no`` and copy the helper's rows of the groups
        below main's claims into ``acc``; returns the groups the helper
        claimed and its busy seconds.  Raises :class:`HelperLost` instead of
        waiting past :data:`DEADLINE_S`."""
        helper_hi, busy_s = self._wait(pass_no)
        main_lo = self.main_lo(tiles.n_groups)
        if helper_hi < main_lo:
            raise HelperLost(f"claims [0, {helper_hi}) and [{main_lo}, n) leave a gap")
        rows = tiles.rows(0, main_lo)
        acc[rows] = self._out()[_HEADER : _HEADER + acc.size].reshape(acc.shape)[rows]
        return helper_hi, busy_s

    def cancel(self, pass_no: int) -> None:
        """Drop pass ``pass_no``, which main will not collect: claim every
        group so the helper stops at its next, and wait for its answer.
        Raises :class:`HelperLost` as :meth:`collect` does."""
        self._out()[_MAIN_LO] = 0
        self._wait(pass_no)

    def kill(self) -> None:
        """SIGKILL the helper (a lost one must not touch the ring again)."""
        self._child.kill()

    def close(self) -> None:
        """Stop and reap the helper and unlink its ring; idempotent, and a
        no-op in a forked child holding a copy of this handle."""
        self._finalizer()


__all__ = ["DEADLINE_S", "GravityHelper", "HelperLost"]
