"""Supernova event records.

An :class:`SNEvent` tracks one explosion through the surrogate pipeline:
detection on the main nodes, dispatch of its (60 pc)^3 region to a pool
node, and the step at which the prediction is due back (50 global steps
later by default — the pool-count / latency relationship of Sec. 3.2:
"If dt_global = 2,000 yr, for example, we adopt 50 pool nodes").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SNEvent:
    """One supernova travelling through the pool pipeline."""

    star_pid: int               # exploding star's particle ID
    center: np.ndarray          # explosion position [pc]
    time: float                 # explosion time [Myr]
    dispatch_step: int          # global step at which the region was sent
    return_step: int            # global step at which the prediction lands
    pool_rank: int              # pool node running the prediction
    main_rank: int              # main rank that sent the region
    n_region_particles: int     # gas particles shipped
    region_bytes: int = 0       # request wire bytes (header + packed FIELDS)
    returned: bool = False
    #: Service-assigned request id (matches responses across the transport).
    event_id: int = -1
    #: Base seed of the per-event Gibbs generator (with ``star_pid`` and
    #: ``dispatch_step``) — makes the prediction order-independent.
    seed: int = 0
    #: How the dispatch was served: "pooled" on a free pool node, or
    #: "queued" on a busy one when every node was busy.
    handling: str = "pooled"

    @property
    def in_flight_steps(self) -> int:
        return self.return_step - self.dispatch_step
