"""Snapshot I/O: ParticleSet persistence and run checkpointing.

Snapshots are single ``.npz`` files holding every registered particle field
plus a small JSON header (time, step, format version).  The format is
self-describing: loading tolerates snapshots written by older field
registries (missing fields get defaults; unknown fields in the file are
ignored with a warning), so long-running campaigns survive library
upgrades.

Writes are **atomic**: the payload goes to a hidden temp file in the
target directory, is fsynced, and is ``os.replace``-d into place.  A
writer killed mid-save (the checkpointing counterpart of the serve
fault-tolerance story) leaves the previous checkpoint intact — there is
never a moment when ``path`` names a torn file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.fdps.particles import FIELDS, ParticleSet
from repro.util.logging import get_logger

_LOG = get_logger("io")
FORMAT_VERSION = 1


def save_snapshot(
    ps: ParticleSet,
    path: str | Path,
    time: float = 0.0,
    step: int = 0,
    extra_meta: dict | None = None,
    compressed: bool = True,
    extra_arrays: dict[str, np.ndarray] | None = None,
) -> Path:
    """Write a particle snapshot (fields + header) to ``path`` atomically.

    ``extra_arrays`` ride along under ``extra/<name>`` keys — the restore
    path uses them for the integrator's force arrays; plain
    :func:`load_snapshot` ignores them, so a checkpoint is also a valid
    snapshot for any older reader.

    Returns the final path (numpy's convention: ``.npz`` is appended when
    missing).  The bytes are staged in a temp file in the same directory
    and renamed over ``path`` only once fully written and fsynced, so a
    crash mid-save can never corrupt an existing checkpoint.
    """
    header = {
        "format_version": FORMAT_VERSION,
        "time": float(time),
        "step": int(step),
        "n_particles": len(ps),
        "fields": sorted(ps.data.keys()),
    }
    if extra_meta:
        header["extra"] = extra_meta
    payload = {f"field/{k}": v for k, v in ps.data.items()}
    if extra_arrays:
        payload.update(
            {f"extra/{k}": np.asarray(v) for k, v in extra_arrays.items()}
        )
    payload["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    writer = np.savez_compressed if compressed else np.savez
    final = Path(path)
    if not final.name.endswith(".npz"):      # numpy appends .npz to str paths
        final = final.with_name(final.name + ".npz")
    tmp = final.with_name(f".{final.name}.tmp-{os.getpid()}")
    try:
        # Write to an open file object: numpy never renames or suffixes
        # those, so the staged bytes land exactly at ``tmp``.
        with open(tmp, "wb") as fh:
            writer(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return final


def _read_snapshot(data, path) -> tuple[ParticleSet, dict]:
    """Parse (particles, header) from an open ``.npz`` file."""
    header = json.loads(bytes(data["header"]).decode("utf-8"))
    n = int(header["n_particles"])
    ps = ParticleSet.empty(n)
    for key in data.files:
        if not key.startswith("field/"):
            continue
        name = key[len("field/"):]
        if name not in FIELDS:
            _LOG.warning("snapshot %s: skipping unknown field %r", path, name)
            continue
        arr = data[key]
        if len(arr) != n:
            raise ValueError(
                f"snapshot {path}: field {name!r} has {len(arr)} rows, "
                f"header says {n}"
            )
        ps.data[name][...] = arr
    return ps, header


def load_snapshot(path: str | Path) -> tuple[ParticleSet, dict]:
    """Read a snapshot; returns (particles, header).

    Fields absent from the file are default-filled; fields in the file that
    the current registry does not know are skipped (logged at WARNING).
    """
    with np.load(path) as data:
        return _read_snapshot(data, path)


def save_simulation(sim, path: str | Path) -> Path:
    """Checkpoint a :class:`~repro.core.simulation.GalaxySimulation`.

    Captures the particle state, the integrator clock and counters, the
    star-formation RNG state, the pool sizing, the run mode (``n_ranks``,
    ``use_torus``, ``coupled_force_mode``), and the current force arrays, so
    :meth:`GalaxySimulation.restore` resumes bit-identically;
    the pool's in-flight *predictions* are intentionally not captured (the
    paper's checkpointing strategy is the same: restart from the last
    global step).  So that those SNe are not lost, the saved ``tsn`` of
    each in-flight event's star is reset to its explosion time — dispatch
    marked it fired with ``inf`` — and the restored integrator re-dispatches
    overdue SNe on its first step.  Pending events are gathered across every
    rank's pool client; the owner map is not stored (restore re-derives it).
    """
    from dataclasses import asdict

    from repro.serve import SurrogateSpec

    integ = sim.integrator
    server = sim.server
    # Persist what is needed to rebuild the same service: the surrogate
    # itself only when a spec is derivable (the Sedov oracle, or a trained
    # export whose InferenceEngine records its model_path); a surrogate
    # backed by an anonymous in-memory predictor must be re-supplied via
    # restore(surrogate=) — restore() warns in that case.
    try:
        surrogate_spec = asdict(SurrogateSpec.from_surrogate(server.local_surrogate))
    except ValueError:
        surrogate_spec = None
    serve_meta = {
        "transport": server.transport_name,
        "n_workers": max(1, server.n_workers),
        "max_batch": server.scheduler.max_batch,
        "max_wait_steps": server.scheduler.max_wait_steps,
        "shm_slots": server.shm_slots,
        "shm_slot_particles": server.shm_slot_particles,
    }
    ps_save = sim.ps
    pending = [e for pool in integ.pools for e in pool.events if not e.returned]
    n_rescheduled = 0
    if pending:
        ps_save = sim.ps.copy()
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
        time=sim.time,
        step=sim.step_count,
        extra_meta={
            # Re-scheduled in-flight SNe will be counted again on restore.
            "n_sn_events": integ.n_sn_events - n_rescheduled,
            "n_sf_events": integ.n_sf_events,
            "next_pid": integ.next_pid,
            "dt": integ.cfg.dt,
            "n_pool": integ.cfg.n_pool,
            "latency_steps": integ.cfg.latency_steps,
            "seed": integ.cfg.seed,
            "rng_state": integ.rng.bit_generator.state,
            "integrator_config": asdict(integ.cfg),
            "overflow_policy": str(integ.pools[0].overflow_policy.value),
            "n_ranks": integ.n_ranks,
            "use_torus": integ.driver.use_torus,
            "coupled_force_mode": integ.force_mode,
            "serve": serve_meta,
            "surrogate_spec": surrogate_spec,
        },
        extra_arrays=extra_arrays,
    )


def load_simulation_state(path: str | Path) -> tuple[ParticleSet, dict]:
    """Read back a checkpoint written by :func:`save_simulation`."""
    ps, header = load_snapshot(path)
    return ps, header


@dataclass
class CheckpointState:
    """Everything :meth:`GalaxySimulation.restore` needs from one file."""

    ps: ParticleSet
    header: dict
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


def load_checkpoint(path: str | Path) -> CheckpointState:
    """Read a checkpoint including the ``extra/`` integrator arrays."""
    arrays: dict[str, np.ndarray] = {}
    with np.load(path) as data:
        ps, header = _read_snapshot(data, path)
        for key in data.files:
            if key.startswith("extra/"):
                arrays[key[len("extra/"):]] = data[key]
    return CheckpointState(ps=ps, header=header, arrays=arrays)
