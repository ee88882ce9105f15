"""The paper's primary contribution: surrogate-coupled galaxy integration.

* :mod:`repro.core.events` — SN event records and region bookkeeping;
* :mod:`repro.core.pool` — ``PoolManager``, the one pool client of a run:
  the pool's own ``SimComm`` world, round-robin dispatch of (60 pc)^3 SN
  regions from every main rank, the 50-step return latency, and ID-based
  particle replacement (Fig. 3);
* :mod:`repro.core.integrator` — ``IntegratorConfig``, the numerical and
  physical switches;
* :mod:`repro.core.runner` — ``CoupledRunner``, the one host of the
  eight-step loop of Sec. 3.2 and of its physics operators: ``n_ranks``
  simulated main ranks (1 included) coupling distributed gravity with one
  surrogate pool at a fixed global timestep — or, with no server, the adaptive
  CFL-timestep baseline with direct thermal feedback (what the paper calls
  "conventional simulation" in Sec. 5.3);
* :mod:`repro.core.simulation` — ``GalaxySimulation``, the public facade.
"""

from repro.core.events import SNEvent
from repro.core.pool import PoolManager
from repro.core.runner import CoupledRunner
from repro.core.simulation import GalaxySimulation

__all__ = [
    "SNEvent",
    "PoolManager",
    "CoupledRunner",
    "GalaxySimulation",
]
