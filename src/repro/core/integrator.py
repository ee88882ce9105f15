"""The physics half of every integrator: config + ``BaseIntegrator``.

:class:`IntegratorConfig` holds the numerical and physical switches;
:class:`BaseIntegrator` implements the operators both arms of the one host
share — force evaluation, kicks, drift, cooling, star formation and the
step-(7) hydro refresh — around one :class:`repro.accel.ForceEngine`.  The
eight-step loop of Sec. 3.2 is :class:`repro.core.runner.CoupledRunner`
(every ``n_ranks``, 1 included): with a surrogate server it is the
surrogate-coupled scheme, without one the adaptive-timestep conventional
baseline.

All spatial work goes through one :class:`repro.accel.ForceEngine`: a single
tree build serves the gravity walk, one neighbor grid serves every
kernel-size sweep and the hydro force pass — and step (7) re-evaluates
hydro on the pair lists cached in step (3) (positions identical; only u and
v changed) instead of paying a second full density solve.

The timer labels match the breakdown categories of Fig. 6/Table 3 so the
benchmarks can print the same rows the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel import ForceEngine
from repro.fdps.interaction import InteractionCounter
from repro.fdps.particles import ParticleSet, ParticleType
from repro.obs.trace import NULL_TRACER
from repro.physics.cooling import CoolingModel
from repro.physics.star_formation import StarFormationModel
from repro.sph.timestep import cfl_timestep
from repro.util.leapfrog import energy_kick, leapfrog_drift, leapfrog_kick
from repro.util.timers import TimerRegistry


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


class BaseIntegrator:
    """Physics operators around a shared :class:`ForceEngine` pipeline:
    forces, kicks, drift, cooling, star formation, and the step-(7) hydro
    refresh."""

    def __init__(
        self,
        ps: ParticleSet,
        config: IntegratorConfig | None = None,
        cooling: CoolingModel | None = None,
        star_formation: StarFormationModel | None = None,
        tracer=None,
    ) -> None:
        self.ps = ps
        self.cfg = config or IntegratorConfig()
        self.cooling = cooling or CoolingModel()
        self.star_formation = star_formation or StarFormationModel()
        self.time = 0.0
        self.step_count = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Every timer bracket below doubles as a sim-category span, so the
        # in-process Table-3 rows and the exported trace agree by construction.
        self.timers = TimerRegistry(tracer=self.tracer)
        self.counter = InteractionCounter()
        self.engine = ForceEngine(self.cfg, timers=self.timers, counter=self.counter)
        self.rng = np.random.default_rng(self.cfg.seed)
        self.next_pid = int(ps.pid.max()) + 1 if len(ps) else 0
        self.n_sf_events = 0
        self.n_sn_events = 0
        self.sf_history: list[tuple[float, float]] = []  # (time, mass formed)
        self._grav_acc = np.zeros((len(ps), 3))
        self._hydro_acc = np.zeros((len(ps), 3))
        self._du_dt = np.zeros(len(ps))
        self._vsig = np.zeros(len(ps))
        self._first_forces_done = False

    @property
    def _acc(self) -> np.ndarray:
        return self._grav_acc + self._hydro_acc

    @property
    def forces_ready(self) -> bool:
        """True once stored forces are valid for the current membership."""
        return self._first_forces_done

    # --------------------------------------------------------------- forces
    def _gravity(self, label: str) -> np.ndarray:
        return self.engine.gravity(self.ps, label)

    def _hydro(self, label: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Density + hydro forces on the gas; returns (acc, du_dt, vsig)
        scattered to full-particle arrays and refreshes the gas SPH fields."""
        return self.engine.hydro(self.ps, label)

    def compute_forces(self, label: str = "1st") -> None:
        """Full force evaluation; stores acc/du_dt/vsig for the kicks.

        Gravity and hydro are two independent passes over the same
        positions — gravity reads only ``pos``/``mass``/``eps``, which the
        SPH pass never writes — so they overlap: after both passes' inputs
        are checked (a ``ValueError`` names the first non-finite row, before
        anything is shipped), the tree pass goes out to the engine's gravity
        helper (:meth:`ForceEngine.submit_gravity`), this process runs
        density + hydro, then :meth:`ForceEngine.gravity` claims its share of
        the groups and collects the helper's.  The result is bit-identical to
        running the two passes one after the other; an exception in between
        leaves no pass in flight.
        """
        ps, engine = self.ps, self.engine
        engine.check_sph_inputs(ps)
        if self.cfg.self_gravity:
            engine.submit_gravity(ps)
        try:
            self._hydro_acc, self._du_dt, self._vsig = self._hydro(label)
            self._grav_acc = (
                self._gravity(label) if self.cfg.self_gravity else np.zeros((len(ps), 3))
            )
        finally:
            engine.drain_gravity()
        self._first_forces_done = True

    def kick(self, dt: float) -> None:
        """Velocity + internal-energy kick over ``dt`` (callers pass the
        half step; the primitives keep the historical float grouping)."""
        leapfrog_kick(self.ps.vel, self._acc, dt)
        energy_kick(self.ps.u, self._du_dt, dt)

    def drift(self, dt: float) -> None:
        """Advance positions; every spatial structure is now stale."""
        leapfrog_drift(self.ps.pos, self.ps.vel, dt)
        self.engine.notify_positions_changed()

    # -------------------------------------------------------------- operators
    def apply_cooling(self, dt: float) -> None:
        # Cooling only moves u: the spatial caches stay valid.
        if not self.cfg.enable_cooling:
            return
        ps = self.ps
        gas = np.flatnonzero(ps.where_type(ParticleType.GAS))
        if gas.size == 0:
            return
        with self.timers.measure("Feedback_and_Cooling"):
            ps.u[gas] = self.cooling.integrate(
                ps.u[gas], ps.dens[gas], dt, z=ps.zmet[gas].sum(axis=1)
            )

    def apply_star_formation(self, dt: float) -> None:
        if not self.cfg.enable_star_formation:
            return
        with self.timers.measure("Star Formation"):
            new_ps, events, self.next_pid = self.star_formation.form_stars(
                self.ps, self.time, dt, self.rng, self.next_pid
            )
        if events:
            self.n_sf_events += len(events)
            mass_formed = float(sum(e.star_masses.sum() for e in events))
            self.sf_history.append((self.time, mass_formed))
            self._replace_particle_set(new_ps)

    def refresh_hydro(self) -> None:
        """Step (7): recompute hydro after the internal-energy changes.

        The gravity computed in step (3) is at the current (post-drift)
        positions, so the next first kick can reuse it; only the hydro state
        is stale once cooling/feedback touched u.  When positions are
        untouched since (3) the engine re-evaluates on the cached pair lists
        (no h solve, no neighbor search); if SN replacements moved particles
        it falls back to a full pass — on the neighbor grid of (3), edited
        for the replaced rows, where that edit was exact, re-solving only
        the gas they touched — and if star
        formation changed the membership ``_replace_particle_set`` already
        flagged a full recompute for the next step.  Either way this was the
        step's last hydro evaluation: the candidate lists go.
        """
        if not self._first_forces_done:
            return
        refreshed = self.engine.refresh_hydro(self.ps, "2nd")
        if refreshed is None:
            refreshed = self._hydro("2nd")
        self._hydro_acc, self._du_dt, self._vsig = refreshed
        self.engine.release_candidates()

    def _replace_particle_set(self, new_ps: ParticleSet) -> None:
        """Swap in a set with different membership; force arrays re-size."""
        self.ps = new_ps
        self.engine.notify_membership_changed()
        self._grav_acc = np.zeros((len(new_ps), 3))
        self._hydro_acc = np.zeros((len(new_ps), 3))
        self._du_dt = np.zeros(len(new_ps))
        self._vsig = np.zeros(len(new_ps))
        self._first_forces_done = False

    # ------------------------------------------------------------- diagnostics
    def gas_cfl_timestep(self) -> float:
        ps = self.ps
        gas = ps.where_type(ParticleType.GAS)
        if not gas.any():
            return np.inf
        vsig = np.maximum(self._vsig[gas], ps.csnd[gas])
        dts = cfl_timestep(ps.h[gas], np.maximum(vsig, 1e-300), self.cfg.courant)
        return float(dts.min())

    def diagnostics(self) -> dict:
        ps = self.ps
        return {
            "time": self.time,
            "step": self.step_count,
            "n_particles": len(ps),
            "n_gas": int(ps.where_type(ParticleType.GAS).sum()),
            "n_stars": int(ps.where_type(ParticleType.STAR).sum()),
            "total_mass": ps.total_mass(),
            "kinetic_energy": ps.kinetic_energy(),
            "thermal_energy": ps.thermal_energy(),
            "momentum": ps.momentum().tolist(),
            "n_sf_events": self.n_sf_events,
            "n_sn_events": self.n_sn_events,
        }
