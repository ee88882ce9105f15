"""``GalaxySimulation`` — the public facade of the library.

Wires together initial conditions, the surrogate inference service (with
either a trained U-Net or the analytic Sedov oracle), and the one step host
(:class:`repro.core.runner.CoupledRunner`, for every ``n_ranks``); exposes
run control, diagnostics, snapshot hooks, and checkpoint/restore.

Example
-------
::

    from repro import GalaxySimulation, make_mw_mini
    ps = make_mw_mini(n_total=3000, seed=1)
    sim = GalaxySimulation(ps, dt=2e-3)
    sim.run(10)
    print(sim.diagnostics())
"""

from __future__ import annotations

from dataclasses import fields, replace
from pathlib import Path

from repro.core.integrator import IntegratorConfig
from repro.core.pool import PoolManager
from repro.core.runner import CoupledRunner
from repro.fdps.particles import ParticleSet
from repro.physics.cooling import CoolingModel
from repro.physics.star_formation import StarFormationModel
from repro.serve import (
    FaultMode,
    FaultPlan,
    OverflowPolicy,
    SupervisionConfig,
    SurrogateServer,
)
from repro.surrogate.model import SedovBlastOracle, SNSurrogate


class GalaxySimulation:
    """High-level driver for a surrogate-coupled galaxy run.

    Parameters
    ----------
    ps : initial particles (see :mod:`repro.ic`).
    dt : the fixed global timestep [Myr]; paper value 2e-3 (2,000 yr).
    surrogate : optional :class:`SNSurrogate`; defaults to the analytic
        Sedov oracle on a modest grid, so a simulation runs out of the box
        with physically sensible SN behaviour.  Pass a U-Net-backed
        surrogate (see ``examples/train_surrogate.py``) for the paper's
        trained-model path.
    surrogate_model_path : path to a trained U-Net export
        (:func:`repro.ml.serialize.save_model`); builds the trained-model
        surrogate on ``surrogate_grid`` directly, and — because the loaded
        engine remembers its path — serve workers and checkpoints carry a
        ``kind="model"`` :class:`~repro.serve.SurrogateSpec` instead of a
        pickled network.  Mutually exclusive with ``surrogate``.
    n_pool / latency_steps : the pool sizing rule of Sec. 3.2 — by default
        latency = n_pool so every SN region spends 0.1 Myr worth of global
        steps in flight.
    serve_transport : ``"sync"`` (in-process, the deterministic default) or
        ``"shm"`` (worker processes reading/writing a zero-copy
        shared-memory ring) — see the transport table in
        :mod:`repro.serve`.  Both produce bit-identical particle state for
        the same seeds.
    serve_workers / serve_max_batch / serve_max_wait_steps : service sizing
        (worker processes, batch coalescing, deadline-aware flush).
    serve_shm_slots / serve_shm_slot_particles : ``shm`` ring sizing; size
        ``serve_shm_slot_particles`` to at least the largest expected SN
        region, or bigger requests silently fall back to the pickled queue
        (counted in the service metrics' ``n_shm_fallback``).
    overflow_policy : what :class:`PoolManager` does when every pool node
        is busy — ``"queue"`` (legacy), ``"block"``, ``"spill"``, or
        ``"oracle"`` (:class:`repro.serve.OverflowPolicy`).
    serve_fault_mode / serve_supervision : worker fault tolerance —
        ``"recover"`` (default: restart dead workers, re-dispatch lost
        batches, degrade to inline inference as last resort) or ``"raise"``
        (surface the first worker fault); :class:`repro.serve
        .SupervisionConfig` tunes timeouts and backoff.
    serve_fault_plan : scripted fault injection for chaos testing
        (:class:`repro.serve.FaultPlan` or its string form); ``None``
        reads ``REPRO_SERVE_FAULTS`` from the environment.
    tracer : optional :class:`repro.obs.Tracer`.  Threads span tracing
        through the integrator's phase timers, the force-engine kernels,
        and the serve pipeline (dispatch/claim/batch/recovery); export
        with :meth:`write_trace` and render with ``python -m repro.obs
        report``.  The default :data:`~repro.obs.NULL_TRACER` keeps every
        bracket a no-op; tracing never changes particle state (asserted
        bit-identical in ``benchmarks/bench_obs_overhead.py``).
    n_ranks : number of simulated main ranks of the one step host
        (:class:`repro.core.runner.CoupledRunner`): genuine domain
        migration, cross-rank SN-region ghosts, and one shared inference
        service with per-rank pool clients.  The particle state does not
        depend on it (with the default ``coupled_force_mode="global"``).
    use_torus : route the driver collectives through the 3-phase 3D torus
        alltoallv.
    coupled_force_mode : ``"global"`` or ``"distributed"`` — see
        :class:`~repro.core.runner.CoupledRunner`.
    """

    def __init__(
        self,
        ps: ParticleSet,
        dt: float = 2.0e-3,
        surrogate: SNSurrogate | None = None,
        surrogate_model_path: str | Path | None = None,
        n_pool: int = 50,
        latency_steps: int | None = None,
        config: IntegratorConfig | None = None,
        cooling: CoolingModel | None = None,
        star_formation: StarFormationModel | None = None,
        surrogate_grid: int = 16,
        seed: int = 0,
        serve_transport: str = "sync",
        serve_workers: int = 2,
        serve_max_batch: int = 8,
        serve_max_wait_steps: int = 1,
        serve_shm_slots: int = 32,
        serve_shm_slot_particles: int = 4096,
        overflow_policy: OverflowPolicy | str = OverflowPolicy.QUEUE,
        serve_fault_mode: FaultMode | str = FaultMode.RECOVER,
        serve_fault_plan: "FaultPlan | str | None" = None,
        serve_supervision: "SupervisionConfig | None" = None,
        tracer=None,
        n_ranks: int = 1,
        use_torus: bool = False,
        coupled_force_mode: str = "global",
    ) -> None:
        from repro.obs.trace import NULL_TRACER

        self.tracer = tracer if tracer is not None else NULL_TRACER
        # A copy: the caller's config object is never written to.
        cfg = replace(
            config or IntegratorConfig(),
            dt=dt,
            n_pool=n_pool,
            latency_steps=latency_steps if latency_steps is not None else n_pool,
            seed=seed,
        )
        horizon = cfg.latency_steps * dt      # prediction horizon (0.1 Myr dflt)
        if surrogate_model_path is not None:
            if surrogate is not None:
                raise ValueError(
                    "pass either surrogate or surrogate_model_path, not both"
                )
            from repro.ml.serialize import InferenceEngine

            surrogate = SNSurrogate(
                predictor=InferenceEngine.load(surrogate_model_path),
                n_grid=surrogate_grid,
                side=cfg.region_side,
            )
        if surrogate is None:
            surrogate = SNSurrogate(
                oracle=SedovBlastOracle(t_after=horizon),
                n_grid=surrogate_grid,
                side=cfg.region_side,
            )
        server = SurrogateServer(
            surrogate=surrogate,
            transport=serve_transport,
            n_workers=serve_workers,
            max_batch=serve_max_batch,
            max_wait_steps=serve_max_wait_steps,
            shm_slots=serve_shm_slots,
            shm_slot_particles=serve_shm_slot_particles,
            fault_mode=serve_fault_mode,
            fault_plan=serve_fault_plan,
            supervision=serve_supervision,
            tracer=self.tracer,
        )
        self.server = server
        self.integrator = CoupledRunner(
            ps,
            server,
            n_ranks=n_ranks,
            config=cfg,
            cooling=cooling,
            star_formation=star_formation,
            tracer=self.tracer,
            use_torus=use_torus,
            force_mode=coupled_force_mode,
            overflow_policy=overflow_policy,
            horizon=horizon,
        )

    # ------------------------------------------------------------- delegation
    @property
    def pool(self) -> PoolManager | None:
        """The pool client of a 1-rank run (``integrator.pools[0]``); None
        when there are several — read-only either way."""
        pools = self.integrator.pools
        return pools[0] if len(pools) == 1 else None

    @property
    def ps(self) -> ParticleSet:
        return self.integrator.ps

    @property
    def time(self) -> float:
        return self.integrator.time

    @property
    def step_count(self) -> int:
        return self.integrator.step_count

    def run(self, n_steps: int) -> None:
        self.integrator.run(n_steps)

    def run_until(self, t_end: float, max_steps: int = 10_000_000) -> None:
        self.integrator.run_until(t_end, max_steps)

    def diagnostics(self) -> dict:
        out = self.integrator.diagnostics()
        out["pool"] = self.integrator.pool_summary()
        return out

    def timing_breakdown(self) -> dict[str, float]:
        """Accumulated per-part wall-clock seconds (Fig. 6 categories)."""
        return self.integrator.timers.totals()

    # ---------------------------------------------------------- observability
    def attach_service_metrics(self) -> None:
        """Attach the serve pipeline's versioned metrics export to the trace.

        Call once near the end of a traced run (before :meth:`write_trace`)
        so ``python -m repro.obs report`` can price hidden vs exposed
        inference from the same counters ``metrics_dict`` reports.  A no-op
        under the null tracer.
        """
        if not self.tracer.enabled:
            return
        self.tracer.attach_meta(
            "service_metrics",
            self.server.metrics.to_dict(
                max_batch=self.server.scheduler.max_batch,
                n_workers=self.server.n_workers,
            ),
        )

    def write_trace(self, run_dir: str | Path) -> Path:
        """Export the run's trace stream (see :mod:`repro.obs.export`).

        Attaches the service metrics first, so the written stream is
        self-contained for the run report.  Requires an enabled tracer.
        """
        from repro.obs.export import write_run

        if not self.tracer.enabled:
            raise RuntimeError(
                "write_trace needs an enabled tracer: construct the "
                "simulation with tracer=repro.obs.Tracer()"
            )
        self.attach_service_metrics()
        return write_run(self.tracer, run_dir)

    def star_formation_rate(self, window: float = 1.0) -> float:
        """SFR [M_sun/Myr] over the trailing ``window`` Myr."""
        hist = self.integrator.sf_history
        t0 = self.time - window
        formed = sum(m for (t, m) in hist if t >= t0)
        return formed / window if window > 0 else 0.0

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the inference service (the ``shm`` transport's worker
        processes) and release the step host's scratch memory."""
        self.integrator.close()

    def __enter__(self) -> "GalaxySimulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------ checkpoint/restore
    def save(self, path: str | Path) -> Path:
        """Checkpoint this run atomically; returns the final ``.npz`` path
        (see :func:`repro.fdps.io.save_simulation`)."""
        from repro.fdps.io import save_simulation

        return save_simulation(self, path)

    @classmethod
    def restore(cls, path: str | Path, **overrides) -> "GalaxySimulation":
        """Rebuild a live run from a :meth:`save` checkpoint.

        Restores the particle state, the integrator clock (``time`` /
        ``step_count``), ``next_pid``, the SN/SF event counters, the star
        -formation RNG state, and — when the checkpoint carries them — the
        stored force arrays, so the first step after a restore is
        bit-identical to the step an uninterrupted run would have taken.
        In-flight pool *predictions* are not part of a checkpoint (the
        paper restarts from the last global step); the save path instead
        resets those stars' ``tsn`` to their explosion times, so the
        restored integrator re-dispatches them — overdue SNe fire on the
        first step after a restore and no event is lost.

        The run mode (``n_ranks``, ``use_torus``, ``coupled_force_mode``)
        is rebuilt from the checkpoint; the owner map is not stored but
        re-derived by a fresh decomposition of the restored positions.  In
        ``"global"`` force mode the state does not depend on it, so the
        bit-identity above holds for every ``n_ranks``; in
        ``"distributed"`` mode the continuation is tree-accurate, not
        bitwise.  Checkpoints written before these keys existed load as
        one rank, ``integrator_config`` keys this version no longer knows
        are dropped with a warning, a saved serve transport of
        ``"process"`` (retired) restores onto ``"shm"`` with a warning, and
        a saved backend of ``"seed"`` or ``"numba"`` (retired) restores onto
        the default backend with a warning.

        ``overrides`` are passed through to the constructor (e.g. a
        different ``serve_transport`` or a freshly loaded ``surrogate``).
        """
        from repro.fdps.io import load_checkpoint

        from repro.serve import SurrogateSpec
        from repro.util.logging import get_logger

        log = get_logger("simulation")
        state = load_checkpoint(path)
        meta = state.header.get("extra", {})
        kwargs: dict = {
            "dt": meta.get("dt", 2.0e-3),
            "n_pool": meta.get("n_pool", 50),
            "latency_steps": meta.get("latency_steps"),
            "seed": meta.get("seed", 0),
        }
        for key in ("n_ranks", "use_torus", "coupled_force_mode"):
            if key in meta:                        # absent in older checkpoints
                kwargs[key] = meta[key]
        if "integrator_config" in meta:
            known = {f.name for f in fields(IntegratorConfig)}
            saved = meta["integrator_config"]
            unknown = sorted(set(saved) - known)
            if unknown:
                log.warning(
                    "checkpoint %s: dropping integrator_config keys this "
                    "version does not know: %s", path, ", ".join(unknown),
                )
            config = {k: v for k, v in saved.items() if k in known}
            if config.get("backend") in ("seed", "numba"):      # retired backends
                log.warning(
                    "checkpoint %s: backend %r is retired; restoring with the "
                    "default backend", path, config["backend"],
                )
                config["backend"] = None
            kwargs["config"] = IntegratorConfig(**config)
        if "overflow_policy" in meta:
            kwargs["overflow_policy"] = meta["overflow_policy"]
        serve_meta = meta.get("serve") or {}
        if serve_meta:
            kwargs["serve_transport"] = serve_meta["transport"]
            if serve_meta["transport"] == "process":    # retired, bit-identical
                log.warning(
                    "checkpoint %s: serve transport 'process' is retired; "
                    "restoring onto 'shm'", path,
                )
                kwargs["serve_transport"] = "shm"
            kwargs["serve_workers"] = serve_meta["n_workers"]
            kwargs["serve_max_batch"] = serve_meta["max_batch"]
            kwargs["serve_max_wait_steps"] = serve_meta["max_wait_steps"]
            if "shm_slots" in serve_meta:          # absent in older checkpoints
                kwargs["serve_shm_slots"] = serve_meta["shm_slots"]
                kwargs["serve_shm_slot_particles"] = serve_meta["shm_slot_particles"]
        if meta.get("surrogate_spec") is not None:
            kwargs["surrogate"] = SurrogateSpec(**meta["surrogate_spec"]).build()
        elif "surrogate_spec" in meta and "surrogate" not in overrides:
            log.warning(
                "checkpoint %s has no serializable surrogate spec (predictor"
                "-backed run); restoring with the default Sedov oracle — pass "
                "restore(surrogate=...) to resume the original model", path,
            )
        kwargs.update(overrides)
        sim = cls(state.ps, **kwargs)
        integ = sim.integrator
        integ.time = float(state.header.get("time", 0.0))
        integ.step_count = int(state.header.get("step", 0))
        if "next_pid" in meta:
            integ.next_pid = int(meta["next_pid"])
        integ.n_sn_events = int(meta.get("n_sn_events", 0))
        integ.n_sf_events = int(meta.get("n_sf_events", 0))
        if "rng_state" in meta:
            integ.rng.bit_generator.state = meta["rng_state"]
        force_keys = ("grav_acc", "hydro_acc", "du_dt", "vsig")
        if all(k in state.arrays for k in force_keys):
            integ._grav_acc = state.arrays["grav_acc"]
            integ._hydro_acc = state.arrays["hydro_acc"]
            integ._du_dt = state.arrays["du_dt"]
            integ._vsig = state.arrays["vsig"]
            integ._first_forces_done = True
        return sim
