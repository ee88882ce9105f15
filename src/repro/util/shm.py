"""The process toolkit of every child this repo forks.

Two jobs run in a child: the surrogate service's pool workers
(:mod:`repro.serve.shm`) and the force engine's gravity helper
(:mod:`repro.accel.gravity_helper`).  Both are a :class:`Child`: a forked
process with one duplex pipe, whose side is one loop (receive a message,
hand it to a handler, send the handler's reply) and whose owner
:meth:`~Child.send` s, :meth:`~Child.recv` s and closes.  Both follow one
rule:

* **Before the fork** the parent starts its resource tracker
  (:func:`process_context` does), which a forked child inherits instead
  of starting its own (one of its own would unlink the parent's segments
  when the child exits).  The parent may create rings before or after the
  fork.
* **After the fork** the child owns nothing it inherits.  It gets what it
  uses as arguments, attaches rings by name and only unmaps them; an
  inherited object's ``close()`` does nothing there
  (:func:`owner_finalizer`).
* **Loss** — a child that dies, closes its pipe or misses the deadline of
  a :meth:`~Child.recv` is killed and the call raises :class:`ChildLost`.
  A lost child is never restarted; its owner does its work itself.
* **At close** the parent asks the child to stop, reaps it
  (:func:`stop_process`) and unlinks its rings.

This module imports nothing from the layers that use it.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import weakref
from collections.abc import Callable
from contextlib import suppress
from multiprocessing import connection, resource_tracker, shared_memory
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any

import numpy as np


def process_context() -> mp.context.BaseContext:
    """The start method of every process this repo starts: ``fork`` where
    the platform has it (a child starts in milliseconds, with the parent's
    imports), else ``spawn``.  A child must therefore take everything it
    uses as arguments and own nothing it inherits (see
    :class:`SharedMemoryRing` on why a ring has no finalizer).  Starts this
    process's resource tracker first, so every child started from the
    context shares it."""
    resource_tracker.ensure_running()
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")


def stop_process(proc: BaseProcess, grace_s: float) -> None:
    """Reap ``proc``: wait up to ``grace_s`` for it to exit, then SIGKILL
    it and wait for that.  The caller has already asked it to stop."""
    proc.join(timeout=grace_s)
    if proc.is_alive():
        proc.kill()
        proc.join()


def owner_finalizer(obj: object, func: Callable[..., Any], *args: Any) -> weakref.finalize:
    """``weakref.finalize(obj, func, *args)`` that runs ``func`` only in
    the process that made it.

    A forked child inherits the object and its finalizer.  Calling the
    finalizer there (an inherited ``close()``) must not stop the parent's
    children or unlink its segments, and cannot: ``join`` and ``is_alive``
    work only on one's own children.  Outside the owner it does nothing.
    """
    return weakref.finalize(obj, _in_owner, os.getpid(), func, *args)


def _in_owner(owner: int, func: Callable[..., Any], *args: Any) -> None:
    if os.getpid() == owner:
        func(*args)


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without taking tracker ownership.

    Python 3.13+ has ``track=False`` for exactly this.  Before 3.13 an
    attach re-registers the name with the resource tracker; within one
    multiprocessing process tree the tracker is shared (its fd rides fork
    and the spawn preparation data) and its cache is a set, so the extra
    registration is an idempotent no-op that the owner's ``unlink``
    clears — explicitly unregistering here would instead make that
    ``unlink`` double-remove and spam KeyError from the tracker.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: shared tracker, registration harmless
        return shared_memory.SharedMemory(name=name)


class SharedMemoryRing:
    """A shared block of ``n_slots`` fixed-size float64 slots.

    The creating process owns the segment and unlinks it on :meth:`close`;
    a child attaches by ``name`` and only unmaps.  Slot allocation policy
    lives with the caller — the ring itself is just the mapped memory.
    """

    def __init__(self, n_slots: int, slot_floats: int, name: str | None = None) -> None:
        if n_slots < 1 or slot_floats < 1:
            raise ValueError("ring needs at least one slot of at least one float")
        self.n_slots = int(n_slots)
        self.slot_floats = int(slot_floats)
        if name is None:
            self._seg = shared_memory.SharedMemory(
                create=True, size=self.n_slots * self.slot_floats * 8
            )
            self._owner = True
        else:
            self._seg = _attach(name)
            self._owner = False
        self.name = self._seg.name
        self._arr: np.ndarray | None = np.ndarray(
            (self.n_slots, self.slot_floats), dtype=np.float64, buffer=self._seg.buf
        )

    @property
    def nbytes(self) -> int:
        return self.n_slots * self.slot_floats * 8

    def slot(self, index: int, nfloats: int | None = None) -> np.ndarray:
        """A live view of slot ``index`` (optionally length-trimmed).

        Slot coordinates cross process boundaries, so both are validated
        before any memory is touched: an out-of-range index or a length
        exceeding the slot capacity raises :class:`ValueError` — a corrupt
        control entry is a recoverable transport fault, not an IndexError
        deep in numpy.
        """
        if self._arr is None:
            raise ValueError("ring is closed")
        if not 0 <= int(index) < self.n_slots:
            raise ValueError(f"shm slot index {index} outside ring of {self.n_slots} slots")
        row = self._arr[int(index)]
        if nfloats is None:
            return row
        if not 0 < int(nfloats) <= self.slot_floats:
            raise ValueError(
                f"shm slot payload length {nfloats} not in (0, {self.slot_floats}]"
            )
        return row[: int(nfloats)]

    def write(self, index: int, buf: np.ndarray) -> int:
        """Memmove an encoded wire buffer into a slot; returns floats used."""
        if self._arr is None:
            raise ValueError("ring is closed")
        n = buf.size
        self._arr[index, :n] = buf
        return n

    def close(self) -> None:
        if self._arr is None:
            return
        self._arr = None
        self._seg.close()
        if self._owner:
            try:
                self._seg.unlink()
            except FileNotFoundError:
                pass
    # No __del__: a forked child inherits the owner's ring object, and a
    # finalizer there would unlink the segment under the parent when the
    # child exits.  Lifetime is explicit — the owner and the child's
    # attachments both close() in their shutdown paths, and the resource
    # tracker covers hard crashes of the creator.


#: Seconds :meth:`Child.close` gives a child to exit before it is killed.
_STOP_GRACE_S = 5.0


class ChildLost(RuntimeError):
    """A :class:`Child` cannot answer: it died, its pipe closed, or it missed
    a deadline.  The child is killed before this is raised."""


def _serve(conn: Connection, parent_end: Connection,
           make_handler: Callable[..., Callable[[Any], Any]], args: tuple[Any, ...]) -> None:
    """The child side of every :class:`Child`: build the handler, then hand
    it each message until ``None`` or EOF and send back what it returns
    (nothing when it returns ``None``)."""
    parent_end.close()          # inherited under fork: EOF must mean the parent is gone
    handler = make_handler(*args)
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg is None:
            return
        reply = handler(msg)
        if reply is not None:
            conn.send(reply)  # repro-lint: disable=ledger-label -- a pipe


def _stop(proc: BaseProcess, conn: Connection) -> None:
    with suppress(OSError):     # the pipe is gone: the child is too
        conn.send(None)  # repro-lint: disable=ledger-label -- a pipe
    stop_process(proc, _STOP_GRACE_S)
    conn.close()


class Child:
    """A forked process serving one pipe: ``make_handler(*args)`` runs in the
    child and returns the handler of its messages (see :func:`_serve`).

    Only the process that made it stops it (:func:`owner_finalizer`):
    :meth:`close`, garbage collection or interpreter exit.
    """

    def __init__(self, make_handler: Callable[..., Callable[[Any], Any]], *args: Any,
                 name: str) -> None:
        ctx = process_context()
        self._conn, child_end = ctx.Pipe()
        self.proc = ctx.Process(
            target=_serve, args=(child_end, self._conn, make_handler, args),
            daemon=True, name=name,
        )
        self.proc.start()
        child_end.close()
        self._finalizer = owner_finalizer(self, _stop, self.proc, self._conn)

    @property
    def pid(self) -> int:
        return int(self.proc.pid or 0)

    def _lost(self, why: str) -> ChildLost:
        self.kill()
        return ChildLost(f"{self.proc.name} (pid {self.pid}) {why}")

    def send(self, msg: Any) -> None:
        """One message down the pipe; raises :class:`ChildLost` when it is closed."""
        try:
            self._conn.send(msg)  # repro-lint: disable=ledger-label -- a pipe
        except OSError as exc:
            raise self._lost(f"closed its pipe ({exc})") from exc

    def recv(self, deadline_s: float) -> Any:
        """The next reply, waiting up to ``deadline_s``; raises
        :class:`ChildLost` when the child dies (its sentinel fires), closes
        its pipe or sends nothing in time.  A reply sent before a death is
        still read."""
        fired = connection.wait([self._conn, self.proc.sentinel], deadline_s)
        if self._conn in fired:
            try:
                return self._conn.recv()
            except (EOFError, OSError) as exc:
                raise self._lost("died") from exc
        raise self._lost("died" if fired else f"sent nothing within {deadline_s:g} s")

    def kill(self) -> None:
        """SIGKILL the child (a no-op once it is reaped)."""
        self.proc.kill()

    def close(self) -> None:
        """Ask the child to stop, reap it and close the pipe; idempotent, and
        a no-op in a forked child holding a copy of this handle."""
        self._finalizer()


def ready(children: dict[int, Child], timeout_s: float) -> list[int]:
    """The keys of ``children`` with a reply or a death to read, in order,
    waiting up to ``timeout_s`` for the first."""
    handles: dict[Any, int] = {}
    for key, child in children.items():
        handles[child._conn] = handles[child.proc.sentinel] = key
    return sorted({handles[h] for h in connection.wait(list(handles), timeout_s)})


__all__ = [
    "Child", "ChildLost", "SharedMemoryRing", "owner_finalizer", "process_context",
    "ready", "stop_process",
]
