"""The gravity helper: a second process that evaluates part of every tree pass.

Inside one node the paper's ranks run their force loop in parallel over
the interaction groups (FDPS splits the group loop across threads).  Here a
:class:`~repro.accel.ForceEngine` that does the gravity of a run gets one
forked helper, and every tree pass works like this:

1. main copies ``pos`` / ``mass`` / ``eps`` into the input slot of a
   :class:`~repro.serve.shm.SharedMemoryRing` and sends ``go`` (the pass
   number, the walk parameters and the helper's share) over a pipe;
2. main and helper each build the same octree and walk every group — both
   steps are deterministic, so both hold the same interaction lists;
3. both compute the same cut
   (:func:`~repro.gravity.treegrav.split_point`): two contiguous group
   runs, the helper's holding its share of the ``targets x list`` pairs —
   half at first, then what it delivered at the rate of the last pass
   (:meth:`GravityHelper.rebalance`), so a helper sharing its CPU is not
   waited for;
4. each evaluates its own run's tiles
   (:meth:`~repro.gravity.treegrav.GroupTiles.evaluate`, the one group
   loop); the helper writes its ``acc`` rows into the output slot, tags the
   slot with the pass number and answers ``done`` with its busy seconds.

A tile writes only its own targets' rows, and the same tile on the same
lists gives the same floats in either process, so the assembled ``acc`` is
bit-identical to :func:`~repro.gravity.treegrav.tree_accel`.

Ownership.  Main owns the process and the ring: it creates both, re-creates
the ring when the particle count outgrows it, and :meth:`GravityHelper.close`
stops and reaps the process and unlinks the ring (also when the handle is
garbage-collected or the interpreter exits).  The helper owns nothing it
inherits: it gets the pipe end and the backend name as arguments, attaches
each ring by name and only unmaps it.

Failure never changes a result.  A dead helper, one that has not answered
within :data:`DEADLINE_S`, or an answer for another pass raises
:class:`HelperLost`; the engine then evaluates the helper's run itself,
logs once, and runs every later pass alone.  There is no restart, and no
option, keyword or environment variable turns the helper on or off.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import weakref
from dataclasses import dataclass
from multiprocessing.connection import Connection

import numpy as np

from repro.accel.backends import get_backend
from repro.accel.backends.base import TileWorkspace
from repro.fdps.tree import Octree
from repro.gravity.treegrav import GroupTiles, split_point
from repro.serve.shm import SharedMemoryRing, process_context

#: Seconds main waits for the helper's run before evaluating it itself.
DEADLINE_S = 10.0
#: Longest single wait on the pipe between liveness checks.
_POLL_S = 0.05
#: Ring slots: pos | mass | eps in; pass-number tag | acc out.
_IN, _OUT = 0, 1
#: Floats of ring capacity per particle (the input slot is the larger).
_FLOATS_PER_PARTICLE = 5
#: Bounds of the helper's share of a pass's pairs.
_MIN_SHARE, _MAX_SHARE = 0.05, 0.95


def _ring_floats(n: int) -> int:
    """Slot size for ``n`` particles and some growth (star formation)."""
    return _FLOATS_PER_PARTICLE * (n + n // 8 + 1)


def _put(conn: Connection, msg: object) -> None:
    """One control message down the pipe (the pass data is in the ring)."""
    conn.send(msg)  # repro-lint: disable=ledger-label -- a process pipe, not the SimComm ledger


class HelperLost(RuntimeError):
    """The helper cannot deliver this pass: dead, late or out of step."""


def _helper_main(conn: Connection, main_end: Connection, backend_name: str) -> None:
    """The helper process: serve ``go`` messages until ``None`` or EOF."""
    main_end.close()          # inherited under fork: EOF must mean main is gone
    backend = get_backend(backend_name)
    workspace = TileWorkspace()
    ring: SharedMemoryRing | None = None
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                return
            if msg is None:
                return
            pass_no, ring_name, slot_floats, n, theta, n_g, leaf_size, mixed, share = msg
            t0 = time.perf_counter()
            if ring is None or ring.name != ring_name:
                if ring is not None:
                    ring.close()
                ring = SharedMemoryRing(2, slot_floats, name=ring_name)
            inp, out = ring.slot(_IN), ring.slot(_OUT)
            pos = inp[: 3 * n].reshape(n, 3)
            mass, eps = inp[3 * n : 4 * n], inp[4 * n : 5 * n]
            tiles = GroupTiles.walk(
                Octree.build(pos, mass, leaf_size=leaf_size), pos, eps, (pos, mass, eps),
                n_g=n_g, theta=theta, mixed=mixed,
            )
            acc = out[1 : 1 + 3 * n].reshape(n, 3)
            cut = split_point(tiles.costs, share)
            tiles.evaluate(acc, cut, tiles.n_groups, backend, workspace)
            out[0] = pass_no
            _put(conn, ("done", pass_no, time.perf_counter() - t0))
    finally:
        if ring is not None:
            ring.close()


@dataclass
class _Handle:
    """What shutting the helper down needs (shared with the finalizer)."""

    owner: int                    # pid of the process that started the helper
    proc: mp.process.BaseProcess | None
    conn: Connection
    ring: SharedMemoryRing | None = None


def _shutdown(h: _Handle) -> None:
    """Stop and reap the helper, unlink the ring.  In any process but the
    owner (a forked child holding a copy) this does nothing."""
    if os.getpid() != h.owner:
        return
    proc, h.proc = h.proc, None
    if proc is not None:
        try:
            _put(h.conn, None)
        except OSError:
            proc.kill()           # the pipe is gone: nothing will read the stop
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
        h.conn.close()
    ring, h.ring = h.ring, None
    if ring is not None:
        ring.close()


class GravityHelper:
    """Main's side of the helper: the process, its pipe and the ring.

    Started by :meth:`repro.accel.ForceEngine.start_gravity_helper`; one
    pass is :meth:`submit` (copy the inputs, send ``go``) then
    :meth:`collect` (wait for ``done``, copy the helper's rows).
    """

    def __init__(self, backend_name: str, n_particles: int) -> None:
        # The ring first: its segment starts this process's resource
        # tracker, which a forked child must inherit rather than start its own
        # (one of its own would unlink the segment when the child exits).
        ring = SharedMemoryRing(2, _ring_floats(n_particles))
        ctx = process_context()
        conn, child_end = ctx.Pipe()
        proc = ctx.Process(
            target=_helper_main, args=(child_end, conn, backend_name),
            daemon=True, name="repro-gravity-helper",
        )
        self._h = _Handle(owner=os.getpid(), proc=None, conn=conn, ring=ring)
        self._finalizer = weakref.finalize(self, _shutdown, self._h)
        proc.start()
        self._h.proc = proc
        child_end.close()
        self._pass = 0
        #: The helper's share of the next pass's pairs (see :meth:`rebalance`).
        self.share = 0.5

    @property
    def pid(self) -> int | None:
        return None if self._h.proc is None else int(self._h.proc.pid)

    def submit(
        self, pos: np.ndarray, mass: np.ndarray, eps: np.ndarray,
        theta: float, n_g: int, leaf_size: int, mixed: bool,
    ) -> int:
        """Copy the pass's inputs into the ring and send ``go``; returns
        the pass number :meth:`collect` expects."""
        h = self._h
        n = len(pos)
        assert h.ring is not None
        if _FLOATS_PER_PARTICLE * n > h.ring.slot_floats:
            # Star formation outgrew the ring; the helper, idle between
            # passes, attaches the new one by the name in this go.
            h.ring.close()
            h.ring = SharedMemoryRing(2, _ring_floats(n))
        inp = h.ring.slot(_IN)
        inp[: 3 * n] = pos.ravel()
        inp[3 * n : 4 * n] = mass
        inp[4 * n : 5 * n] = eps
        self._pass += 1
        try:
            _put(h.conn, (
                self._pass, h.ring.name, h.ring.slot_floats, n,
                float(theta), int(n_g), int(leaf_size), bool(mixed), self.share,
            ))
        except OSError as exc:
            raise HelperLost(f"the helper's pipe is closed ({exc})") from exc
        return self._pass

    def collect(self, pass_no: int, acc: np.ndarray, rows: np.ndarray) -> float:
        """Wait for pass ``pass_no``, copy ``rows`` of the helper's ``acc``
        into ``acc``; returns the helper's busy seconds.  Raises
        :class:`HelperLost` instead of waiting past :data:`DEADLINE_S`."""
        h = self._h
        deadline = time.monotonic() + DEADLINE_S
        while not h.conn.poll(_POLL_S):
            if h.proc is None or not h.proc.is_alive():
                raise HelperLost("the helper process died")
            if time.monotonic() > deadline:
                raise HelperLost(f"no answer within {DEADLINE_S:g} s")
        try:
            _tag, done_pass, busy_s = h.conn.recv()
        except (EOFError, OSError) as exc:
            raise HelperLost("the helper process died") from exc
        assert h.ring is not None
        out = h.ring.slot(_OUT)
        if done_pass != pass_no or out[0] != pass_no:
            raise HelperLost(
                f"answer for pass {done_pass} (slot tag {out[0]:g}), expected {pass_no}"
            )
        acc[rows] = out[1 : 1 + acc.size].reshape(acc.shape)[rows]
        return float(busy_s)

    def rebalance(self, main_rate: float, helper_rate: float) -> None:
        """Move the share toward the one at which both would have finished
        together at this pass's rates (pairs per busy second), halfway: a
        helper that shares its CPU (with a serve worker, or another tenant
        of the host) gets less, and gets it back when the CPU frees up."""
        if main_rate > 0 and helper_rate > 0:
            balanced = helper_rate / (main_rate + helper_rate)
            self.share = min(max(0.5 * (self.share + balanced), _MIN_SHARE), _MAX_SHARE)

    def kill(self) -> None:
        """SIGKILL the helper (a lost one must not touch the ring again)."""
        if self._h.proc is not None and self._h.proc.is_alive():
            self._h.proc.kill()

    def close(self) -> None:
        """Stop and reap the helper and unlink its ring; idempotent."""
        self._finalizer()


__all__ = ["DEADLINE_S", "GravityHelper", "HelperLost"]
