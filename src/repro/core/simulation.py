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

from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from repro.core.integrator import IntegratorConfig
from repro.core.pool import PoolManager
from repro.core.runner import CoupledRunner
from repro.fdps.io import load_checkpoint, save_snapshot
from repro.fdps.particles import ParticleSet
from repro.obs.trace import Tracer
from repro.physics.cooling import CoolingModel
from repro.physics.star_formation import StarFormationModel
from repro.serve import SurrogateServer, SurrogateSpec
from repro.surrogate.model import SedovBlastOracle, SNSurrogate
from repro.util.logging import get_logger


class GalaxySimulation:
    """High-level driver for a surrogate-coupled galaxy run.

    Parameters
    ----------
    ps : initial particles (see :mod:`repro.ic`).
    dt : the fixed global timestep [Myr]; paper value 2e-3 (2,000 yr).
        ``dt``, ``n_pool`` and ``seed`` left at None take their value from
        ``config`` (whose defaults are 2e-3, 50 and 0); a keyword given
        wins over the config.
    surrogate : optional :class:`SNSurrogate`; defaults to the analytic
        Sedov oracle on a modest grid, so a simulation runs out of the box
        with physically sensible SN behaviour.  Pass a U-Net-backed
        surrogate (see ``examples/train_surrogate.py``) for the paper's
        trained-model path.
    surrogate_model_path : path to a trained U-Net export
        (:func:`repro.ml.serialize.save_model`); builds the trained-model
        surrogate on ``surrogate_grid`` directly, and — because the loaded
        engine remembers its path — checkpoints carry a ``kind="model"``
        :class:`~repro.serve.SurrogateSpec` instead of the network.  Mutually
        exclusive with ``surrogate``.
    n_pool / latency_steps : the pool sizing rule of Sec. 3.2 — by default
        latency = n_pool so every SN region spends 0.1 Myr worth of global
        steps in flight.  When every pool node is busy an SN queues on the
        next one (counted in the service metrics' ``n_overflow``).
    serve_transport : ``"sync"`` (in-process, the deterministic default) or
        ``"shm"`` (worker processes reading/writing zero-copy
        shared-memory blocks) — see the transport table in
        :mod:`repro.serve`.  Both produce bit-identical particle state for
        the same seeds.
    serve_workers / serve_max_batch : service sizing (worker processes,
        batch coalescing).  The rest of the service runs on the
        :class:`~repro.serve.SurrogateServer` defaults.  A worker that dies
        is lost for good, and the events of a lost, late or bad batch are
        predicted inline on the main rank with their own seeds, so faults
        never change the particle state; with no worker left every
        prediction is inline.  ``REPRO_SERVE_FAULTS`` injects scripted
        faults (:mod:`repro.serve.faults`).
    tracer : optional :class:`repro.obs.Tracer`, the clock of every phase
        bracket of the step host, the force-engine kernels, the multi-rank
        driver and the serve pipeline (dispatch/batch/recovery); export
        with :meth:`write_trace` and render with ``python -m repro.obs
        report``.  None gives ``Tracer(enabled=False)``, which keeps only
        the per-phase seconds (:meth:`timing_breakdown`); tracing never
        changes particle state (asserted bit-identical in
        ``tests/obs/test_trace.py::test_tracing_leaves_the_particle_state_unchanged``).
    n_ranks : number of simulated main ranks of the one step host
        (:class:`repro.core.runner.CoupledRunner`): genuine domain
        migration, cross-rank SN-region ghosts, and one pool client that
        every rank dispatches through.  The particle state does not
        depend on it (with the default ``coupled_force_mode="global"``).
    use_torus : route the driver collectives through the 3-phase 3D torus
        alltoallv.
    coupled_force_mode : ``"global"`` or ``"distributed"`` — see
        :class:`~repro.core.runner.CoupledRunner`.
    """

    def __init__(
        self,
        ps: ParticleSet,
        dt: float | None = None,
        surrogate: SNSurrogate | None = None,
        surrogate_model_path: str | Path | None = None,
        n_pool: int | None = None,
        latency_steps: int | None = None,
        config: IntegratorConfig | None = None,
        cooling: CoolingModel | None = None,
        star_formation: StarFormationModel | None = None,
        surrogate_grid: int = 16,
        seed: int | None = None,
        serve_transport: str = "sync",
        serve_workers: int = 2,
        serve_max_batch: int = 8,
        tracer: Tracer | None = None,
        n_ranks: int = 1,
        use_torus: bool = False,
        coupled_force_mode: str = "global",
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        # A copy: the caller's config object is never written to.
        base = config or IntegratorConfig()
        n_pool = base.n_pool if n_pool is None else n_pool
        cfg = replace(
            base,
            dt=base.dt if dt is None else dt,
            n_pool=n_pool,
            latency_steps=n_pool if latency_steps is None else latency_steps,
            seed=base.seed if seed is None else seed,
        )
        horizon = cfg.latency_steps * cfg.dt  # prediction horizon (0.1 Myr dflt)
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
        )

    # ------------------------------------------------------------- delegation
    @property
    def pool(self) -> PoolManager | None:
        """The run's one pool client (``integrator.pool``), for every
        ``n_ranks``."""
        return self.integrator.pool

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

    def run_until(self, t_end: float, max_steps: int = 10_000_000) -> int:
        """Step until ``t_end`` or ``max_steps`` steps of this call; returns
        the number of steps taken."""
        return self.integrator.run_until(t_end, max_steps)

    def diagnostics(self) -> dict:
        out = self.integrator.diagnostics()
        out["pool"] = self.integrator.pool_summary()
        return out

    def timing_breakdown(self) -> dict[str, float]:
        """Accumulated per-part wall-clock seconds (Fig. 6 categories)."""
        return self.integrator.timing_breakdown()

    # ---------------------------------------------------------- observability
    def attach_service_metrics(self) -> None:
        """Attach the serve pipeline's versioned metrics export to the trace.

        Call once near the end of a traced run (before :meth:`write_trace`)
        so ``python -m repro.obs report`` can price hidden vs exposed
        inference from the same counters ``metrics_dict`` reports.  A no-op
        on a disabled tracer.
        """
        if not self.tracer.enabled:
            return
        self.tracer.attach_meta("service_metrics", self.server.metrics_dict())

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
        """Checkpoint this run atomically; returns the final ``.npz`` path.

        The checkpoint format is defined here and read back by
        :meth:`restore`, its one reader: a :func:`repro.fdps.io.save_snapshot`
        file whose ``extra`` header keys carry the integrator clock and
        counters, the star-formation RNG state, the integrator config (``dt``
        and the pool sizing included), the run mode (``n_ranks``,
        ``use_torus``, ``coupled_force_mode``), the serve transport and
        sizing and the surrogate spec, and whose ``extra/`` arrays are
        the current force arrays, so :meth:`restore` resumes
        bit-identically.  The pool's in-flight *predictions* are
        intentionally not captured (the paper's checkpointing strategy is
        the same: restart from the last global step).  So that those SNe
        are not lost, the saved ``tsn`` of each in-flight event's star is
        reset to its explosion time — dispatch marked it fired with ``inf``
        — and the restored integrator re-dispatches overdue SNe on its
        first step.  The owner map is not stored (restore re-derives it).
        """
        integ = self.integrator
        server = self.server
        # Persist what is needed to rebuild the same service: the surrogate
        # itself only when a spec is derivable (the Sedov oracle itself, or a
        # trained export whose InferenceEngine records its model_path); any
        # other surrogate — an oracle subclass, an anonymous in-memory
        # predictor — must be re-supplied via restore(surrogate=), and
        # restore() warns in that case.
        try:
            surrogate_spec = asdict(SurrogateSpec.from_surrogate(server.local_surrogate))
        except ValueError:
            surrogate_spec = None
        serve_meta = {
            "transport": server.transport_name,
            "n_workers": max(1, server.n_workers),
            "max_batch": server.scheduler.max_batch,
        }
        ps_save = self.ps
        pending = [] if integ.pool is None else [
            e for e in integ.pool.events if not e.returned
        ]
        n_rescheduled = 0
        if pending:
            ps_save = self.ps.copy()
            for event in pending:
                idx = np.flatnonzero(ps_save.pid == event.star_pid)
                if idx.size:
                    ps_save.tsn[idx] = event.time
                    n_rescheduled += 1
        extra_arrays = None
        if integ._first_forces_done:
            extra_arrays = {
                "grav_acc": integ._grav_acc,
                "hydro_acc": integ._hydro_acc,
                "du_dt": integ._du_dt,
                "vsig": integ._vsig,
            }
        return save_snapshot(
            ps_save,
            path,
            time=self.time,
            step=self.step_count,
            extra_meta={
                # Re-scheduled in-flight SNe will be counted again on restore.
                "n_sn_events": integ.n_sn_events - n_rescheduled,
                "n_sf_events": integ.n_sf_events,
                "next_pid": integ.next_pid,
                "rng_state": integ.rng.bit_generator.state,
                "integrator_config": asdict(integ.cfg),
                "n_ranks": integ.n_ranks,
                "use_torus": integ.driver.use_torus,
                "coupled_force_mode": integ.force_mode,
                "serve": serve_meta,
                "surrogate_spec": surrogate_spec,
            },
            extra_arrays=extra_arrays,
        )

    @classmethod
    def restore(cls, path: str | Path, **overrides) -> "GalaxySimulation":
        """Rebuild a live run from a :meth:`save` checkpoint.

        This is the one reader of the checkpoint format :meth:`save`
        defines; the two stay side by side so that a key is added, renamed
        or retired in one module.  Restores the particle state, the
        integrator clock (``time`` / ``step_count``), ``next_pid``, the
        SN/SF event counters, the star-formation RNG state, and — when the
        checkpoint carries them — the stored force arrays, so the first step after a restore is
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
        one rank, and older checkpoints restore with what this version
        still knows — :func:`_upgrade_meta` brings the saved meta to the
        current shape in one step, with a warning for each retired value:

        * ``integrator_config`` keys this version no longer knows are
          dropped; a checkpoint with no ``integrator_config`` at all is read
          from its top-level ``dt`` / ``n_pool`` / ``latency_steps`` /
          ``seed``;
        * a saved backend of ``"seed"`` or ``"numba"`` (retired) restores
          onto the default backend;
        * a saved ``overflow_policy`` other than ``"queue"`` (retired: an SN
          that finds every pool node busy always queues) is dropped;
        * a saved serve transport of ``"process"`` (retired) restores onto
          ``"shm"``; retired serve keys (batch timing, shared-memory sizing)
          are dropped silently — they change no prediction byte, because
          each event is seeded on its own.

        ``overrides`` are passed through to the constructor (e.g. a
        different ``serve_transport``); a ``surrogate`` or
        ``surrogate_model_path`` override replaces the saved surrogate spec.
        """
        state = load_checkpoint(path)
        meta = _upgrade_meta(state.header.get("extra", {}), path)
        kwargs: dict = {}
        for key in ("n_ranks", "use_torus", "coupled_force_mode"):
            if key in meta:                        # absent in older checkpoints
                kwargs[key] = meta[key]
        kwargs["config"] = IntegratorConfig(**meta["integrator_config"])
        kwargs["latency_steps"] = kwargs["config"].latency_steps
        serve_meta = meta.get("serve")
        if serve_meta:
            kwargs["serve_transport"] = serve_meta["transport"]
            kwargs["serve_workers"] = serve_meta["n_workers"]
            kwargs["serve_max_batch"] = serve_meta["max_batch"]
        # Either surrogate override replaces the saved spec; the spec's grid
        # still sizes a surrogate_model_path one.
        spec = meta.get("surrogate_spec")
        overridden = any(
            overrides.get(k) is not None for k in ("surrogate", "surrogate_model_path")
        )
        if spec is not None:
            kwargs["surrogate_grid"] = spec["n_grid"]
            if not overridden:
                kwargs["surrogate"] = SurrogateSpec(**spec).build()
        elif "surrogate_spec" in meta and not overridden:
            get_logger("simulation").warning(
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


def _upgrade_meta(meta: dict, path: str | Path) -> dict:
    """The ``extra`` meta of a checkpoint, brought to the shape :meth:`save
    <GalaxySimulation.save>` writes today, with a warning for each retired
    value it carried (see :meth:`GalaxySimulation.restore`)."""
    log = get_logger("simulation")
    meta = dict(meta)
    config = meta.get("integrator_config")
    if config is None:              # written before the config was saved
        config = {
            k: meta[k] for k in ("dt", "n_pool", "latency_steps", "seed")
            if meta.get(k) is not None
        }
        config.setdefault("latency_steps", config.get("n_pool", IntegratorConfig.n_pool))
    known = {f.name for f in fields(IntegratorConfig)}
    unknown = sorted(set(config) - known)
    if unknown:
        log.warning(
            "checkpoint %s: dropping integrator_config keys this version "
            "does not know: %s", path, ", ".join(unknown),
        )
    config = {k: v for k, v in config.items() if k in known}
    if config.get("backend") in ("seed", "numba"):
        log.warning(
            "checkpoint %s: backend %r is retired; restoring with the default "
            "backend", path, config["backend"],
        )
        config["backend"] = None
    meta["integrator_config"] = config
    policy = meta.pop("overflow_policy", "queue")
    if policy != "queue":
        log.warning(
            "checkpoint %s: overflow policy %r is retired; an SN that finds "
            "every pool node busy queues on the next one", path, policy,
        )
    if meta.get("serve"):
        serve = {k: meta["serve"][k] for k in ("transport", "n_workers", "max_batch")}
        if serve["transport"] == "process":
            log.warning(
                "checkpoint %s: serve transport 'process' is retired; "
                "restoring onto 'shm'", path,
            )
            serve["transport"] = "shm"
        meta["serve"] = serve
    return meta
