"""``IntegratorConfig`` — the numerical and physical switches of the step host.

One dataclass holds what :class:`repro.core.runner.CoupledRunner` (the one
host of the eight-step loop of Sec. 3.2, every ``n_ranks``) and its
:class:`repro.accel.ForceEngine` read: the global step, the tree and SPH
parameters, the physics switches, the surrogate region size, the pool
sizing (``n_pool`` / ``latency_steps``), the seed and the compute backend.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IntegratorConfig:
    """Numerical and physical switches shared by both arms of the step host
    (``dt`` is the conventional arm's largest step)."""

    dt: float = 2.0e-3            # fixed global step: 2,000 yr (Sec. 3.2)
    theta: float = 0.5            # tree opening angle
    n_ngb: int = 32               # SPH neighbor target
    courant: float = 0.3
    n_g: int = 256                # interaction-group size
    leaf_size: int = 16
    direct_gravity_below: int = 800   # N under which direct summation wins
    mixed_precision: bool = True
    self_gravity: bool = True
    enable_cooling: bool = True
    enable_star_formation: bool = True
    region_side: float = 60.0     # pc, the surrogate box
    latency_steps: int = 50
    n_pool: int = 50
    seed: int = 0
    #: Compute backend for the hot kernels (``repro.accel.backends``):
    #: None resolves $REPRO_BACKEND, then "numpy".
    backend: str | None = None
