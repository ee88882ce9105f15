"""The paper's primary contribution: surrogate-coupled galaxy integration.

* :mod:`repro.core.events` — SN event records and region bookkeeping;
* :mod:`repro.core.pool` — the pool-node manager: communicator split,
  round-robin dispatch of (60 pc)^3 SN regions, the 50-step return latency,
  and ID-based particle replacement (Fig. 3);
* :mod:`repro.core.integrator` — ``IntegratorConfig`` and
  ``BaseIntegrator``, the physics operators every scheme shares;
* :mod:`repro.core.runner` — ``CoupledRunner``, the one host of the
  fixed-global-timestep eight-step loop of Sec. 3.2: ``n_ranks`` simulated
  main ranks (1 included) coupling distributed gravity with one shared
  surrogate service;
* :mod:`repro.core.conventional` — ``ConventionalIntegrator``, the adaptive
  CFL-timestep baseline with direct thermal feedback (what the paper calls
  "conventional simulation" in Sec. 5.3);
* :mod:`repro.core.simulation` — ``GalaxySimulation``, the public facade.
"""

from repro.core.events import SNEvent
from repro.core.pool import PoolManager, PoolOccupancy
from repro.core.runner import CoupledRunner
from repro.core.conventional import ConventionalIntegrator
from repro.core.simulation import GalaxySimulation

__all__ = [
    "SNEvent",
    "PoolManager",
    "PoolOccupancy",
    "ConventionalIntegrator",
    "CoupledRunner",
    "GalaxySimulation",
]
