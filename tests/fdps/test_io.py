"""Snapshot I/O round trips and forward compatibility."""

import numpy as np
import pytest

from repro.fdps.io import load_snapshot, save_snapshot
from repro.fdps.particles import ParticleSet


def test_roundtrip_preserves_all_fields(plummer_ps, tmp_path):
    p = tmp_path / "snap.npz"
    save_snapshot(plummer_ps, p, time=3.5, step=17)
    back, header = load_snapshot(p)
    assert header["time"] == 3.5
    assert header["step"] == 17
    assert len(back) == len(plummer_ps)
    for name, arr in plummer_ps.data.items():
        assert np.array_equal(back.data[name], arr), name


def test_uncompressed_roundtrip(plummer_ps, tmp_path):
    p = tmp_path / "snap_raw.npz"
    save_snapshot(plummer_ps, p, compressed=False)
    back, _ = load_snapshot(p)
    assert np.array_equal(back.pos, plummer_ps.pos)


def test_missing_field_gets_default(plummer_ps, tmp_path):
    # Simulate an old snapshot without the 'tsn' column.
    p = tmp_path / "old.npz"
    save_snapshot(plummer_ps, p)
    import numpy as np_mod

    with np_mod.load(p) as data:
        payload = {k: data[k] for k in data.files if k != "field/tsn"}
    np_mod.savez(tmp_path / "old2.npz", **payload)
    back, _ = load_snapshot(tmp_path / "old2.npz")
    assert np.all(np.isinf(back.tsn))  # the registry default


def test_unknown_field_is_skipped(plummer_ps, tmp_path):
    p = tmp_path / "future.npz"
    save_snapshot(plummer_ps, p)
    import numpy as np_mod

    with np_mod.load(p) as data:
        payload = {k: data[k] for k in data.files}
    payload["field/quantum_flux"] = np.ones(len(plummer_ps))
    np_mod.savez(tmp_path / "future2.npz", **payload)
    back, _ = load_snapshot(tmp_path / "future2.npz")
    assert len(back) == len(plummer_ps)


def test_corrupt_length_rejected(plummer_ps, tmp_path):
    p = tmp_path / "bad.npz"
    save_snapshot(plummer_ps, p)
    import numpy as np_mod

    with np_mod.load(p) as data:
        payload = {k: data[k] for k in data.files}
    payload["field/mass"] = np.ones(3)  # wrong row count
    np_mod.savez(tmp_path / "bad2.npz", **payload)
    with pytest.raises(ValueError):
        load_snapshot(tmp_path / "bad2.npz")


def test_empty_set_roundtrip(tmp_path):
    p = tmp_path / "empty.npz"
    save_snapshot(ParticleSet.empty(0), p)
    back, header = load_snapshot(p)
    assert len(back) == 0
    assert header["n_particles"] == 0


# ---------------------------------------------------------------- atomicity
def test_save_appends_npz_returns_path_and_leaves_no_temp(plummer_ps, tmp_path):
    out = save_snapshot(plummer_ps, tmp_path / "ckpt")
    assert out == tmp_path / "ckpt.npz"
    assert out.exists() and not (tmp_path / "ckpt").exists()
    assert [f for f in tmp_path.iterdir() if f.name.startswith(".")] == []


def _save_then_die(ps_arrays, path):
    """Child target: SIGKILL itself after writing the temp bytes but
    *before* the rename — the exact torn-writer window atomicity closes."""
    import os
    import signal

    from repro.fdps import io as io_mod

    real_fsync = os.fsync

    def fsync_then_die(fd):
        real_fsync(fd)
        os.kill(os.getpid(), signal.SIGKILL)

    os.fsync = fsync_then_die
    ps = ParticleSet.from_arrays(**ps_arrays)
    io_mod.save_snapshot(ps, path, time=9.9, step=99)


def test_writer_killed_mid_save_leaves_previous_checkpoint_intact(
    plummer_ps, tmp_path
):
    import multiprocessing as mp
    import signal

    final = save_snapshot(plummer_ps, tmp_path / "ckpt", time=1.0, step=5)
    arrays = {
        "pos": plummer_ps.pos, "mass": plummer_ps.mass,
        "pid": plummer_ps.pid, "ptype": plummer_ps.ptype,
    }
    ctx = mp.get_context("fork")
    proc = ctx.Process(target=_save_then_die, args=(arrays, str(final)))
    proc.start()
    proc.join(30)
    assert proc.exitcode == -signal.SIGKILL
    back, header = load_snapshot(final)       # old checkpoint, not a torn file
    assert header["step"] == 5 and header["time"] == 1.0
    for name, arr in plummer_ps.data.items():
        assert np.array_equal(back.data[name], arr), name


def test_failed_save_cleans_temp_and_keeps_previous(
    plummer_ps, tmp_path, monkeypatch
):
    final = save_snapshot(plummer_ps, tmp_path / "ckpt", step=1)

    def boom(fh, **payload):
        fh.write(b"partial garbage")
        raise RuntimeError("disk full")

    monkeypatch.setattr("repro.fdps.io.np.savez_compressed", boom)
    with pytest.raises(RuntimeError, match="disk full"):
        save_snapshot(plummer_ps, tmp_path / "ckpt", step=2)
    _, header = load_snapshot(final)
    assert header["step"] == 1
    assert [f for f in tmp_path.iterdir() if f.name.startswith(".")] == []
