"""Fault policy: what the service does when a worker dies, hangs, or
returns garbage.

:class:`FaultMode` decides whether the server recovers (re-dispatch from
the in-flight request registry, restart the worker, degrade to inline
prediction — the default, what a long production run needs) or raises (the
strict mode debugging wants).  Either way no SN event is dropped silently.
"""

from __future__ import annotations

from enum import Enum


class FaultMode(str, Enum):
    """Server behaviour when a worker dies, hangs, or ships a bad reply."""

    #: Recover: restart dead workers (capped exponential backoff),
    #: re-dispatch lost batches from the in-flight request registry, and
    #: after repeated failures degrade to inline prediction on the main
    #: rank — the simulation finishes with recoveries visible only in
    #: :class:`~repro.serve.metrics.ServiceMetrics`.
    RECOVER = "recover"
    #: Strict: any worker fault raises ``RuntimeError`` on the main rank
    #: (the pre-fault-tolerance behaviour; useful when debugging the
    #: workers themselves, where silent recovery would hide the bug).
    RAISE = "raise"

    @classmethod
    def parse(cls, value: "FaultMode | str") -> "FaultMode":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            options = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown fault mode {value!r} (options: {options})"
            ) from None
