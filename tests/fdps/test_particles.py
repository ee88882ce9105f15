"""ParticleSet container semantics."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.fdps.particles import FIELDS, ParticleSet, ParticleType
from tests.conftest import particle_sets, same_bytes


def test_empty_allocates_all_fields():
    ps = ParticleSet.empty(10)
    assert len(ps) == 10
    for name in FIELDS:
        assert name in ps.data
        assert len(ps.data[name]) == 10


def test_from_arrays_rejects_unknown_field():
    with pytest.raises(KeyError):
        ParticleSet.from_arrays(pos=np.zeros((3, 3)), bogus=np.zeros(3))


def test_from_arrays_requires_pos():
    with pytest.raises(KeyError):
        ParticleSet.from_arrays(mass=np.ones(3))


def test_select_copies(plummer_ps):
    sub = plummer_ps.select(np.arange(10))
    sub.mass[:] = -1.0
    assert np.all(plummer_ps.mass[:10] == 10.0)


@pytest.mark.parametrize("how", ["mask", "index", "slice"])
def test_select_never_shares_memory_with_the_source(plummer_ps, how):
    """A mask, an index array and a slice all give arrays of their own (the
    first two copied once, by the gather itself), with the selected rows."""
    n = len(plummer_ps)
    index = {"mask": np.arange(n) % 3 == 0, "index": np.arange(0, n, 3),
             "slice": slice(0, n, 3)}[how]
    sub = plummer_ps.select(index)
    assert len(sub) == len(range(0, n, 3))
    for name, column in sub.data.items():
        source = plummer_ps.data[name]
        assert not np.shares_memory(column, source), name
        assert np.array_equal(column, source[::3]), name


def test_type_masks(plummer_ps):
    assert plummer_ps.where_type(ParticleType.DARK_MATTER).all()
    assert len(plummer_ps.gas()) == 0
    assert len(plummer_ps.dark_matter()) == len(plummer_ps)


def test_append_concatenates(plummer_ps):
    both = plummer_ps.append(plummer_ps)
    assert len(both) == 2 * len(plummer_ps)
    assert both.total_mass() == pytest.approx(2 * plummer_ps.total_mass())


def test_remove(plummer_ps):
    mask = np.zeros(len(plummer_ps), dtype=bool)
    mask[:100] = True
    out = plummer_ps.remove(mask)
    assert len(out) == len(plummer_ps) - 100


def test_reorder_keeps_columns_aligned(plummer_ps):
    pid_of_first = plummer_ps.pid[0]
    pos_of_first = plummer_ps.pos[0].copy()
    order = np.random.default_rng(0).permutation(len(plummer_ps))
    plummer_ps.reorder(order)
    where = np.flatnonzero(plummer_ps.pid == pid_of_first)[0]
    assert np.array_equal(plummer_ps.pos[where], pos_of_first)


def test_replace_by_pid_overwrites_matching():
    ps = ParticleSet.from_arrays(pos=np.zeros((5, 3)), pid=np.arange(5))
    rep = ParticleSet.from_arrays(
        pos=np.ones((2, 3)) * 9.0, pid=np.array([1, 3])
    )
    rep.u[:] = 77.0
    n = ps.replace_by_pid(rep)
    assert n == 2
    assert np.all(ps.pos[1] == 9.0)
    assert np.all(ps.pos[3] == 9.0)
    assert ps.u[1] == 77.0
    assert np.all(ps.pos[0] == 0.0)


def test_replace_by_pid_ignores_missing_ids():
    ps = ParticleSet.from_arrays(pos=np.zeros((3, 3)), pid=np.array([10, 20, 30]))
    rep = ParticleSet.from_arrays(pos=np.ones((2, 3)), pid=np.array([20, 999]))
    assert ps.replace_by_pid(rep) == 1
    assert np.all(ps.pos[1] == 1.0)


def test_replace_by_pid_empty_replacement():
    ps = ParticleSet.empty(3)
    assert ps.replace_by_pid(ParticleSet.empty(0)) == 0


def test_replace_by_pid_survives_reordering():
    # The whole point of ID-based replacement: domain decomposition may have
    # shuffled particles while the pool node was predicting.
    ps = ParticleSet.from_arrays(pos=np.zeros((6, 3)), pid=np.arange(6))
    rep = ps.select(np.array([2, 4]))
    rep.pos[:] = 5.0
    ps.reorder(np.array([5, 3, 1, 0, 2, 4]))
    assert ps.replace_by_pid(rep) == 2
    assert np.all(ps.pos[np.flatnonzero(ps.pid == 2)] == 5.0)


def test_energies_and_momentum(plummer_ps):
    ke = plummer_ps.kinetic_energy()
    assert ke > 0
    p = plummer_ps.momentum()
    assert p.shape == (3,)
    manual = (plummer_ps.mass[:, None] * plummer_ps.vel).sum(axis=0)
    assert np.allclose(p, manual)


def test_bounding_box(plummer_ps):
    lo, hi = plummer_ps.bounding_box(pad=1.0)
    assert np.all(lo < plummer_ps.pos.min(axis=0))
    assert np.all(hi > plummer_ps.pos.max(axis=0))


def test_pack_unpack_roundtrip_all_fields():
    rng = np.random.default_rng(7)
    n = 25
    ps = ParticleSet.empty(n)
    for name, (shape, dtype, _fill) in FIELDS.items():
        if np.issubdtype(dtype, np.integer):
            ps.data[name][...] = rng.integers(0, 100, (n, *shape)).astype(dtype)
        else:
            ps.data[name][...] = rng.normal(0, 10, (n, *shape))
    back = ParticleSet.unpack(ps.pack())
    for name in FIELDS:
        assert back.data[name].dtype == ps.data[name].dtype, name
        assert np.array_equal(back.data[name], ps.data[name]), name


def test_packed_width_counts_every_column():
    from repro.fdps.particles import packed_width

    expected = sum(
        int(np.prod(shape, dtype=np.int64)) for shape, _, _ in FIELDS.values()
    )
    assert packed_width() == expected
    assert ParticleSet.empty(4).pack().shape == (4, expected)
    assert ParticleSet.empty(4).pack().nbytes == 4 * expected * 8


@settings(max_examples=100, deadline=None)
@given(particle_sets())
def test_pack_unpack_round_trips_every_bit(ps):
    """Any 0-64 particles, NaN, +-inf and -0.0 included: ``unpack(pack())``
    restores every field's bytes, and packs to the same buffer again."""
    buf = ps.pack()
    back = ParticleSet.unpack(buf)
    assert same_bytes(back, ps)
    assert back.pack().tobytes() == buf.tobytes()
