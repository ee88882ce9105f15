"""RandomStreams determinism (phase timing is tested with the tracer,
``tests/obs/test_trace.py``)."""

import numpy as np

from repro.util.rng import RandomStreams, default_rng


def test_streams_are_reproducible():
    a = RandomStreams(7).get("imf").normal(size=10)
    b = RandomStreams(7).get("imf").normal(size=10)
    assert np.array_equal(a, b)


def test_streams_are_independent_of_creation_order():
    s1 = RandomStreams(7)
    s1.get("other")  # consume a different stream first
    a = s1.get("imf").normal(size=10)
    b = RandomStreams(7).get("imf").normal(size=10)
    assert np.array_equal(a, b)


def test_distinct_names_give_distinct_streams():
    s = RandomStreams(7)
    assert not np.array_equal(s.get("a").normal(size=8), s.get("b").normal(size=8))


def test_same_name_returns_same_generator():
    s = RandomStreams(0)
    assert s.get("x") is s.get("x")


def test_fork_gives_new_family():
    a = RandomStreams(7).fork(1).get("imf").normal(size=4)
    b = RandomStreams(7).fork(2).get("imf").normal(size=4)
    assert not np.array_equal(a, b)


def test_default_rng_seeded():
    assert default_rng(3).integers(1000) == default_rng(3).integers(1000)
