"""Wire format: round trips, validation, per-event seeding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdps.particles import ParticleSet, ParticleType, packed_width
from repro.serve.wire import (
    REQUEST_MAGIC,
    RESPONSE_MAGIC,
    WIRE_VERSION,
    ServeRequest,
    ServeResponse,
    event_rng,
    request_nfloats,
    response_nfloats,
)
from tests.conftest import particle_sets, same_bytes


def _region(n=20, seed=0):
    rng = np.random.default_rng(seed)
    ps = ParticleSet.from_arrays(
        pos=rng.uniform(-25, 25, (n, 3)),
        mass=rng.uniform(0.5, 2.0, n),
        pid=np.arange(n) + 7,
        ptype=np.full(n, int(ParticleType.GAS)),
    )
    ps.u[:] = rng.uniform(10, 50, n)
    ps.h[:] = 8.0
    ps.zmet[:] = rng.uniform(0, 1e-3, (n, 4))
    return ps


def _request(n=20, seed=0):
    return ServeRequest(
        event_id=42,
        base_seed=3,
        star_pid=123,
        dispatch_step=10,
        return_step=15,
        center=np.array([1.0, -2.0, 3.0]),
        region=_region(n, seed),
    )


def test_request_roundtrip_is_exact():
    req = _request()
    back = ServeRequest.from_buffer(req.to_buffer())
    assert back.event_id == 42
    assert back.base_seed == 3
    assert back.star_pid == 123
    assert back.dispatch_step == 10
    assert back.return_step == 15
    assert np.array_equal(back.center, req.center)
    for name, arr in req.region.data.items():
        assert np.array_equal(back.region.data[name], arr), name


def test_response_roundtrip_is_exact():
    res = ServeResponse(event_id=9, return_step=55, particles=_region(11, seed=4))
    back = ServeResponse.from_buffer(res.to_buffer())
    assert back.event_id == 9
    assert back.return_step == 55
    for name, arr in res.particles.data.items():
        assert np.array_equal(back.particles.data[name], arr), name


def test_buffer_nbytes_is_header_plus_packed_payload():
    req = _request(n=20)
    assert req.to_buffer().nbytes == (12 + 20 * packed_width()) * 8


def test_headers_sit_at_their_documented_offsets():
    # The module docstring's layout, slot by slot: a reordered header table
    # moves a field and fails here, whatever both sides agree on.
    req = _request(n=20)
    buf = req.to_buffer()
    assert buf[0] == REQUEST_MAGIC and buf[1] == WIRE_VERSION
    assert list(buf[2:7]) == [42, 3, 123, 10, 15]
    assert np.array_equal(buf[7:10], req.center)
    assert buf[10] == 20 and buf[11] == packed_width()
    assert np.array_equal(buf[12:], req.region.pack().ravel())
    res = ServeResponse(event_id=9, return_step=55, particles=_region(11, seed=4))
    buf = res.to_buffer()
    assert list(buf[:6]) == [RESPONSE_MAGIC, WIRE_VERSION, 9, 55, 11, packed_width()]
    assert np.array_equal(buf[6:], res.particles.pack().ravel())


def test_empty_region_roundtrip():
    req = _request(n=0)
    back = ServeRequest.from_buffer(req.to_buffer())
    assert len(back.region) == 0


def test_wrong_magic_rejected():
    buf = _request().to_buffer()
    buf[0] = RESPONSE_MAGIC
    with pytest.raises(ValueError, match="magic"):
        ServeRequest.from_buffer(buf)


def test_wrong_version_rejected():
    buf = _request().to_buffer()
    buf[1] = 99
    with pytest.raises(ValueError, match="version"):
        ServeRequest.from_buffer(buf)


def test_truncated_payload_rejected():
    buf = _request().to_buffer()
    with pytest.raises(ValueError, match="length"):
        ServeRequest.from_buffer(buf[:-5])


def test_wrong_width_rejected():
    buf = _request(n=20).to_buffer()
    buf[11] = packed_width() + 1
    with pytest.raises(ValueError, match="width"):
        ServeRequest.from_buffer(buf)


def test_event_rng_deterministic_and_distinct():
    a = event_rng(1, 100, 5).uniform(size=4)
    b = event_rng(1, 100, 5).uniform(size=4)
    assert np.array_equal(a, b)
    # Any coordinate change gives an independent stream.
    for other in (event_rng(2, 100, 5), event_rng(1, 101, 5), event_rng(1, 100, 6)):
        assert not np.array_equal(a, other.uniform(size=4))


def test_request_rng_matches_event_rng():
    req = _request()
    assert np.array_equal(
        req.rng().uniform(size=3), event_rng(3, 123, 10).uniform(size=3)
    )


# ------------------------------------------------------------ in-place encode
def test_request_encode_into_matches_to_buffer():
    from repro.serve.wire import request_nfloats

    req = _request(n=20)
    slot = np.full(request_nfloats(20) + 10, np.nan)
    used = req.encode_into(slot)
    assert used == request_nfloats(20)
    assert slot[0] == REQUEST_MAGIC
    assert np.array_equal(slot[:used], req.to_buffer())
    # encode_into never caches the external view
    assert req.to_buffer() is not slot


def test_response_encode_into_matches_to_buffer():
    from repro.serve.wire import response_nfloats

    res = ServeResponse(event_id=1, return_step=9, particles=_region(n=12))
    slot = np.zeros(response_nfloats(12))
    used = res.encode_into(slot)
    assert used == response_nfloats(12)
    assert np.array_equal(slot[:used], res.to_buffer())
    decoded = ServeResponse.from_buffer(slot[:used])
    assert decoded.event_id == 1
    assert len(decoded.particles) == 12


def test_encode_into_rejects_small_target():
    req = _request(n=20)
    with pytest.raises(ValueError):
        req.encode_into(np.zeros(8))
    res = ServeResponse(event_id=1, return_step=9, particles=_region(n=12))
    with pytest.raises(ValueError):
        res.encode_into(np.zeros(8))


def test_response_fits_in_request_slot():
    """The in-place overwrite contract: response(n) <= request(n) always."""
    from repro.serve.wire import request_nfloats, response_nfloats

    for n in (0, 1, 20, 4096):
        assert response_nfloats(n) <= request_nfloats(n)


def test_corrupt_header_counts_raise_wire_format_error():
    from repro.serve.wire import WireFormatError

    # A torn buffer can hold anything a float64 can; every invalid
    # (count, width) must surface as the typed error, not an IndexError
    # deep inside unpack.
    for bad in (np.nan, np.inf, -np.inf, -1.0, 2.5):
        buf = _request(n=20).to_buffer()
        buf[10] = bad
        with pytest.raises(WireFormatError):
            ServeRequest.from_buffer(buf)
    res = ServeResponse(event_id=9, return_step=55, particles=_region(11))
    buf = res.to_buffer()
    buf[4] = np.nan
    with pytest.raises(WireFormatError):
        ServeResponse.from_buffer(buf)


def test_wire_format_error_is_a_typed_value_error():
    from repro.serve.wire import WireFormatError

    # Fault recovery catches WireFormatError specifically; existing
    # callers matching ValueError keep working.
    assert issubclass(WireFormatError, ValueError)
    buf = _request().to_buffer()
    buf[0] = -7.0
    with pytest.raises(WireFormatError):
        ServeRequest.from_buffer(buf)


_WIRE_INT = st.integers(-(2**53), 2**53)


@settings(max_examples=50, deadline=None)
@given(
    particle_sets(),
    st.tuples(_WIRE_INT, _WIRE_INT, _WIRE_INT, _WIRE_INT, _WIRE_INT),
    st.lists(st.floats(), min_size=3, max_size=3),
    st.integers(0, 5),
)
def test_request_round_trips_through_both_encodings(region, ids, center, spare):
    """``to_buffer`` and ``encode_into`` (a larger slot, as a shm ring's)
    write the same floats, and decoding either restores every header
    field and every byte of the region."""
    event_id, base_seed, star_pid, dispatch_step, return_step = ids
    req = ServeRequest(event_id, base_seed, star_pid, dispatch_step, return_step,
                       np.array(center), region)
    slot = np.full(request_nfloats(len(region)) + spare, 7.0)
    used = req.encode_into(slot)
    buf = req.to_buffer()
    assert used == buf.size and slot[:used].tobytes() == buf.tobytes()
    for wire in (buf, slot[:used]):
        back = ServeRequest.from_buffer(wire.copy())
        assert (back.event_id, back.base_seed, back.star_pid,
                back.dispatch_step, back.return_step) == ids
        assert back.center.tobytes() == np.array(center).tobytes()
        assert same_bytes(back.region, region)


@settings(max_examples=50, deadline=None)
@given(particle_sets(), _WIRE_INT, _WIRE_INT, st.integers(0, 5))
def test_response_round_trips_through_both_encodings(particles, event_id, return_step, spare):
    resp = ServeResponse(event_id=event_id, return_step=return_step, particles=particles)
    slot = np.full(response_nfloats(len(particles)) + spare, 7.0)
    used = resp.encode_into(slot)
    buf = resp.to_buffer()
    assert used == buf.size and slot[:used].tobytes() == buf.tobytes()
    for wire in (buf, slot[:used]):
        back = ServeResponse.from_buffer(wire.copy())
        assert (back.event_id, back.return_step) == (event_id, return_step)
        assert same_bytes(back.particles, particles)
