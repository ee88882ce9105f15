"""Deterministic fault injection for the serve worker pool.

The fault-tolerance layer — worker loss in :mod:`repro.serve.shm`, inline
recovery and degradation in :mod:`repro.serve.server` — is only
trustworthy if its failure paths are *testable on purpose*.  This module
scripts worker failures deterministically so the chaos suite
(``tests/serve/test_faults.py``) can assert the headline invariant: a run
with injected faults finishes **bit-identical** to a fault-free run, with
the recoveries visible only in
:class:`~repro.serve.metrics.ServiceMetrics`.

* :class:`Fault` — one scripted failure: ``(action, worker, nth batch)``
  plus an optional duration.  Actions:

  ========== ============================================================
  ``kill``    SIGKILL the worker process when the batch arrives (crash)
  ``hang``    sleep ``seconds`` when the batch arrives (the server's
              per-batch deadline must fire)
  ``raise``   raise :class:`InjectedWorkerError` inside the predict call
              (shipped back as the reply, like any worker bug)
  ``corrupt`` flip the first response buffer's wire magic after a
              successful predict (torn/corrupt response)
  ``drop``    serve the batch but send no reply (again the per-batch
              deadline must fire)
  ========== ============================================================

  Each of them loses the worker for good (one rule, see
  :mod:`repro.serve.server`).
* :class:`FaultPlan` — a picklable tuple of faults, threaded to each
  worker through its :class:`~repro.util.shm.Child` arguments (next to the
  :class:`~repro.serve.server.SurrogateSpec`), given to
  :class:`~repro.serve.server.SurrogateServer` as ``fault_plan=`` or
  parsed from the ``REPRO_SERVE_FAULTS`` environment variable (the way
  into a whole :class:`~repro.core.simulation.GalaxySimulation` run).
* :class:`FaultInjector` — the per-worker runtime: counts the batches this
  worker process has received (1-based) and fires the matching actions at
  the scripted points.  A lost worker is never replaced, so each script
  runs once.

The server sends batches to the live workers round robin, so which worker
gets which batch is fixed by the dispatch order, and the ``nth`` batch of a
worker is the same in every run.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

#: Actions :class:`FaultInjector` knows how to perform.
FAULT_ACTIONS = ("kill", "hang", "raise", "corrupt", "drop")


class InjectedWorkerError(RuntimeError):
    """The scripted ``raise`` fault — a stand-in for any worker-side bug."""


@dataclass(frozen=True)
class Fault:
    """One scripted failure on one worker's nth batch (1-based)."""

    action: str
    worker: int
    nth: int
    seconds: float = 0.0        # hang duration; unused by other actions

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} "
                f"(options: {', '.join(FAULT_ACTIONS)})"
            )
        if self.worker < 0 or self.nth < 1:
            raise ValueError("fault needs worker >= 0 and nth >= 1")

    def as_str(self) -> str:
        base = f"{self.action}@w{self.worker}:b{self.nth}"
        return f"{base}:{self.seconds:g}" if self.seconds else base


@dataclass(frozen=True)
class FaultPlan:
    """A picklable script of worker failures for one server lifetime."""

    faults: tuple[Fault, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse ``"kill@w0:b1,hang@w1:b2:0.5"`` (comma-separated faults).

        Each fault is ``action@w<worker>:b<nth>[:<seconds>]``; ``seconds``
        is only meaningful for ``hang``.
        """
        faults = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                action, _, rest = chunk.partition("@")
                parts = rest.split(":")
                worker = int(parts[0].lstrip("w"))
                nth = int(parts[1].lstrip("b"))
                seconds = float(parts[2]) if len(parts) > 2 else 0.0
            except (ValueError, IndexError) as exc:
                raise ValueError(
                    f"bad fault spec {chunk!r}; expected "
                    "action@w<worker>:b<nth>[:<seconds>]"
                ) from exc
            faults.append(Fault(action, worker, nth, seconds))
        return cls(faults=tuple(faults))

    @classmethod
    def from_env(cls, var: str = "REPRO_SERVE_FAULTS") -> "FaultPlan | None":
        """The plan scripted in the environment, or None when unset/empty."""
        text = os.environ.get(var, "").strip()
        if not text:
            return None
        return cls.parse(text)

    def as_str(self) -> str:
        return ",".join(f.as_str() for f in self.faults)

    def for_worker(self, worker_id: int) -> tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.worker == worker_id)


class FaultInjector:
    """Per-worker runtime that fires a :class:`FaultPlan`'s scripted faults.

    Built inside the worker process, once: it counts that worker's batches
    from 1 for the worker's whole life.
    """

    def __init__(self, plan: FaultPlan, worker_id: int) -> None:
        self._faults = plan.for_worker(worker_id)
        self._n = 0

    def _find(self, action: str) -> Fault | None:
        for f in self._faults:
            if f.action == action and f.nth == self._n:
                return f
        return None

    def on_batch(self) -> None:
        """Arrival faults: advance the ordinal, then kill or hang."""
        self._n += 1
        if self._find("kill") is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        hang = self._find("hang")
        if hang is not None:
            time.sleep(hang.seconds)

    def on_predict(self) -> None:
        """Predict-time fault: raise inside the worker's try block."""
        if self._find("raise") is not None:
            raise InjectedWorkerError(
                f"injected worker fault on batch #{self._n}"
            )

    def drops_response(self) -> bool:
        """True when the scripted fault is to swallow this batch's reply."""
        return self._find("drop") is not None

    def corrupts_response(self) -> bool:
        """True when the first response header must be torn before sending."""
        return self._find("corrupt") is not None
