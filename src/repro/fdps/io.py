"""Snapshot I/O: ParticleSet persistence and the checkpoint container.

Snapshots are single ``.npz`` files holding every registered particle field
plus a small JSON header (time, step, format version).  A run checkpoint is
a snapshot with ``extra`` header keys and ``extra/`` arrays; what those
keys mean is defined by their writer and reader,
:meth:`GalaxySimulation.save <repro.core.simulation.GalaxySimulation.save>`
and :meth:`~repro.core.simulation.GalaxySimulation.restore`, not here.  The
format is
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
