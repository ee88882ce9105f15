"""The conventional baseline: adaptive CFL timestep + direct SN feedback.

This is what the paper calls "conventional simulation" (Sec. 5.3): no
surrogate, every SN injects 1e51 erg thermally, and the shared timestep
follows the CFL condition of the hottest gas — which collapses to ~200 yr
after an explosion at star-by-star resolution ("10x smaller than that
adopted for the method with ML").  The recorded ``dt_history`` is the raw
material for the Sec. 5.3 timestep-ratio benchmark.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.integrator import BaseIntegrator, IntegratorConfig
from repro.fdps.particles import ParticleSet, ParticleType
from repro.physics.cooling import CoolingModel
from repro.physics.feedback import SNFeedback
from repro.physics.star_formation import StarFormationModel
from repro.physics.stellar import exploding_between


class ConventionalIntegrator(BaseIntegrator):
    """Adaptive-global-timestep leapfrog with direct thermal feedback."""

    def __init__(
        self,
        ps: ParticleSet,
        config: IntegratorConfig | None = None,
        cooling: CoolingModel | None = None,
        star_formation: StarFormationModel | None = None,
        feedback: SNFeedback | None = None,
        dt_max: float = 2.0e-3,
        dt_min: float = 1.0e-7,
        courant: float | None = None,
        self_gravity: bool | None = None,
        enable_cooling: bool | None = None,
        enable_star_formation: bool | None = None,
    ) -> None:
        overrides = {
            "courant": courant,
            "self_gravity": self_gravity,
            "enable_cooling": enable_cooling,
            "enable_star_formation": enable_star_formation,
        }
        # A copy: the caller's config object is never written to.
        cfg = replace(
            config or IntegratorConfig(),
            **{k: v for k, v in overrides.items() if v is not None},
        )
        super().__init__(ps, cfg, cooling, star_formation)
        self.feedback = feedback or SNFeedback()
        self.dt_max = dt_max
        self.dt_min = dt_min
        self.dt_history: list[float] = []

    def compute_forces(self, label: str = "1st") -> None:
        super().compute_forces(label)
        # No step (7) here: every pass is its step's last hydro evaluation.
        self.engine.release_candidates()

    def current_timestep(self) -> float:
        """Shared adaptive step: min CFL over the gas, clamped."""
        if not self._first_forces_done:
            self.compute_forces("1st")
        dt = self.gas_cfl_timestep()
        return float(np.clip(dt, self.dt_min, self.dt_max))

    def step(self) -> float:
        """One adaptive step; returns the dt actually taken."""
        ps = self.ps
        if not self._first_forces_done:
            self.compute_forces("1st")
        dt = self.current_timestep()

        # Direct feedback for SNe that explode within this step — this is
        # exactly the energy injection the surrogate scheme bypasses; the
        # very next ``current_timestep`` call will feel the hot bubble.
        stars = np.flatnonzero(ps.where_type(ParticleType.STAR))
        if stars.size:
            local = exploding_between(ps.tsn[stars], self.time, self.time + dt)
            with self.timers.measure("Feedback_and_Cooling"):
                for si in stars[local]:
                    self.feedback.inject(ps, ps.pos[si])
                    ps.tsn[si] = np.inf
                    self.n_sn_events += 1

        with self.timers.measure("Integration"):
            self.kick(0.5 * dt)
            self.drift(dt)
        self.compute_forces("1st")
        with self.timers.measure("Final_kick"):
            self.kick(0.5 * dt)

        self.apply_star_formation(dt)
        self.apply_cooling(dt)

        self.time += dt
        self.step_count += 1
        self.dt_history.append(dt)
        return dt

    def run(self, n_steps: int) -> None:
        for _ in range(n_steps):
            self.step()

    def run_until(self, t_end: float, max_steps: int = 10_000_000) -> int:
        """Advance to t_end; returns the number of steps taken."""
        start = self.step_count
        while self.time < t_end and self.step_count - start < max_steps:
            self.step()
        return self.step_count - start
