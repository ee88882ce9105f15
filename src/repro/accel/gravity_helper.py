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

Ownership.  Main owns the process and the ring: it creates both, re-creates
the ring when the particle count outgrows it, and :meth:`GravityHelper.close`
stops and reaps the process and unlinks the ring (also when the handle is
garbage-collected or the interpreter exits).  The helper owns nothing it
inherits: it gets the pipe end and the backend name as arguments, attaches
each ring by name and only unmaps it.  The ring, the fork rule, the
stop-and-reap and the owner-only finalizer are :mod:`repro.util.shm`'s,
shared with the serve workers.

Failure never changes a result.  A dead helper, one that has not answered
within :data:`DEADLINE_S`, or an answer for another pass raises
:class:`HelperLost`; the engine then evaluates the groups below its own
claims itself, logs once, and runs every later pass alone.  A submitted
pass that main will not collect (an exception in between) is cancelled
(:meth:`GravityHelper.cancel`), so none is left in flight.  There is no
restart, and no option, keyword or environment variable turns the helper
on or off.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections.abc import Iterator
from contextlib import suppress
from dataclasses import dataclass
from multiprocessing.connection import Connection

import numpy as np

from repro.accel.backends import get_backend
from repro.accel.backends.base import TileWorkspace
from repro.fdps.tree import Octree
from repro.gravity.treegrav import GroupTiles
from repro.util.shm import SharedMemoryRing, owner_finalizer, process_context, stop_process

#: Seconds main waits for the helper's answer before evaluating its groups itself.
DEADLINE_S = 10.0
#: Longest single wait on the pipe between liveness checks.
_POLL_S = 0.05
#: Ring slots: pos | mass | eps in; header | acc out.
_IN, _OUT = 0, 1
#: The output slot's header: pass-number tag, the helper's claims
#: ``[0, helper_hi)``, main's claims ``[main_lo, n)``; ``acc`` follows.
_TAG, _HELPER_HI, _MAIN_LO, _HEADER = 0, 1, 2, 3
#: Floats of ring capacity per particle (the input slot is the larger).
_FLOATS_PER_PARTICLE = 5


def _ring_floats(n: int) -> int:
    """Slot size for ``n`` particles and some growth (star formation)."""
    return _FLOATS_PER_PARTICLE * (n + n // 8 + 1)


def _put(conn: Connection, msg: object) -> None:
    """One control message down the pipe (the pass data is in the ring)."""
    conn.send(msg)  # repro-lint: disable=ledger-label -- a process pipe, not the SimComm ledger


class HelperLost(RuntimeError):
    """The helper cannot deliver this pass: dead, late or out of step."""


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
            pass_no, ring_name, slot_floats, n, theta, n_g, leaf_size, mixed = msg
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
            acc = out[_HEADER : _HEADER + 3 * n].reshape(n, 3)
            tiles.evaluate(acc, claim_up(out, tiles.n_groups), backend, workspace)
            out[_TAG] = pass_no
            _put(conn, ("done", pass_no, time.perf_counter() - t0, int(out[_HELPER_HI])))
    finally:
        if ring is not None:
            ring.close()


@dataclass
class _Handle:
    """What shutting the helper down needs (shared with the finalizer)."""

    proc: mp.process.BaseProcess | None
    conn: Connection
    ring: SharedMemoryRing | None = None


def _shutdown(h: _Handle) -> None:
    """Stop and reap the helper, unlink the ring."""
    proc, h.proc = h.proc, None
    if proc is not None:
        with suppress(OSError):   # the pipe is gone: the helper is too
            _put(h.conn, None)
        stop_process(proc, grace_s=5.0)
        h.conn.close()
    ring, h.ring = h.ring, None
    if ring is not None:
        ring.close()


class GravityHelper:
    """Main's side of the helper: the process, its pipe and the ring.

    Started by :meth:`repro.accel.ForceEngine.start_gravity_helper`; one
    pass is :meth:`submit` (copy the inputs, reset the claims, send
    ``go``), main's own :meth:`claims`, then :meth:`collect` (wait for
    ``done``, copy the helper's rows) — or :meth:`cancel`.
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
        self._h = _Handle(proc=None, conn=conn, ring=ring)
        self._finalizer = owner_finalizer(self, _shutdown, self._h)
        proc.start()
        self._h.proc = proc
        child_end.close()
        self._pass = 0

    @property
    def pid(self) -> int | None:
        return None if self._h.proc is None else int(self._h.proc.pid)

    def _out(self) -> np.ndarray:
        assert self._h.ring is not None
        return self._h.ring.slot(_OUT)

    def submit(
        self, pos: np.ndarray, mass: np.ndarray, eps: np.ndarray,
        theta: float, n_g: int, leaf_size: int, mixed: bool,
    ) -> int:
        """Copy the pass's inputs into the ring, reset the claims and send
        ``go``; returns the pass number :meth:`collect` expects."""
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
        out = h.ring.slot(_OUT)
        out[_HELPER_HI], out[_MAIN_LO] = 0, np.inf
        self._pass += 1
        try:
            _put(h.conn, (
                self._pass, h.ring.name, h.ring.slot_floats, n,
                float(theta), int(n_g), int(leaf_size), bool(mixed),
            ))
        except OSError as exc:
            raise HelperLost(f"the helper's pipe is closed ({exc})") from exc
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
        h = self._h
        deadline = time.monotonic() + DEADLINE_S
        while not h.conn.poll(_POLL_S):
            if h.proc is None or not h.proc.is_alive():
                raise HelperLost("the helper process died")
            if time.monotonic() > deadline:
                raise HelperLost(f"no answer within {DEADLINE_S:g} s")
        try:
            _tag, done_pass, busy_s, helper_hi = h.conn.recv()
        except (EOFError, OSError) as exc:
            raise HelperLost("the helper process died") from exc
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
        if self._h.proc is not None and self._h.proc.is_alive():
            self._h.proc.kill()

    def close(self) -> None:
        """Stop and reap the helper and unlink its ring; idempotent, and a
        no-op in a forked child holding a copy of this handle."""
        self._finalizer()


__all__ = ["DEADLINE_S", "GravityHelper", "HelperLost"]
