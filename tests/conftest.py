"""Shared fixtures: small reference particle distributions.

Everything here is sized for sub-second construction so the full suite stays
fast; the physically realistic (and slower) Model MW configurations live in
the benchmarks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.fdps.particles import FIELDS, ParticleSet, ParticleType
from repro.surrogate.model import SedovBlastOracle
from repro.surrogate.voxelize import VoxelGrid


def plummer_positions(n: int, a: float = 100.0, rng: np.random.Generator | None = None) -> np.ndarray:
    """Positions sampled from a Plummer sphere of scale radius ``a`` [pc]."""
    rng = rng or np.random.default_rng(42)
    # Inverse-CDF sampling of the Plummer cumulative mass profile.
    x = rng.uniform(0.0, 1.0, n)
    r = a / np.sqrt(x ** (-2.0 / 3.0) - 1.0)
    mu = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    s = np.sqrt(1.0 - mu**2)
    return np.column_stack([r * s * np.cos(phi), r * s * np.sin(phi), r * mu])


#: Every float64 bit pattern a payload may carry: NaN, +-inf, -0.0,
#: subnormals.  Integers stay exact through a float64 column (|x| < 2**53).
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_EXACT_INT = st.integers(-(2**53), 2**53)


@st.composite
def particle_sets(draw, max_n: int = 64) -> ParticleSet:
    """A set of 0..``max_n`` particles with every field drawn at random —
    float fields from any float64 value, ``ptype`` from the species."""
    n = draw(st.integers(0, max_n))
    ps = ParticleSet.empty(n)
    for name, (shape, dtype, _) in FIELDS.items():
        if name == "ptype":
            elements = st.sampled_from([int(t) for t in ParticleType])
        else:
            elements = _EXACT_INT if np.dtype(dtype).kind == "i" else _ANY_FLOAT
        ps.data[name][...] = draw(hnp.arrays(dtype, (n, *shape), elements=elements))
    return ps


def same_bytes(a: ParticleSet, b: ParticleSet) -> bool:
    """Whether every field of ``a`` and ``b`` holds the same bytes."""
    return len(a) == len(b) and all(
        a.data[name].dtype == b.data[name].dtype
        and a.data[name].tobytes() == b.data[name].tobytes()
        for name in FIELDS
    )


class HotSedovOracle(SedovBlastOracle):
    """The Sedov oracle with twice its predicted temperature field.

    A subclass: no :class:`~repro.serve.SurrogateSpec` describes it, so only
    a path that runs the object itself predicts what it does.
    """

    def __call__(self, grid: VoxelGrid) -> VoxelGrid:
        out = super().__call__(grid)
        out.fields[1] *= 2.0
        return out


def pairs_by_key(
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A pair list ``(i, j, r)`` sorted by ``(i, j)``: comparable as a set,
    each pair with its separation."""
    i, j, r = pairs
    order = np.lexsort((j, i))
    return i[order], j[order], r[order]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(123)


@pytest.fixture
def plummer_ps(rng) -> ParticleSet:
    """A 512-particle Plummer sphere of DM particles with equal masses."""
    n = 512
    pos = plummer_positions(n, a=50.0, rng=rng)
    ps = ParticleSet.from_arrays(
        pos=pos,
        mass=np.full(n, 10.0),
        eps=np.full(n, 1.0),
        pid=np.arange(n),
        ptype=np.full(n, int(ParticleType.DARK_MATTER)),
    )
    ps.vel[:] = rng.normal(0.0, 1.0, (n, 3))
    return ps


@pytest.fixture
def uniform_gas_ps(rng) -> ParticleSet:
    """A ~12^3 glass-ish uniform gas cube, 60 pc side, ~1 M_sun particles."""
    side = 60.0
    npts = 12
    g = (np.arange(npts) + 0.5) / npts * side - side / 2
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    pos = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    pos += rng.normal(0.0, 0.05 * side / npts, pos.shape)  # de-grid jitter
    n = len(pos)
    ps = ParticleSet.from_arrays(
        pos=pos,
        mass=np.full(n, 1.0),
        eps=np.full(n, 0.1),
        pid=np.arange(n),
        ptype=np.full(n, int(ParticleType.GAS)),
    )
    ps.h[:] = 2.0 * side / npts
    ps.u[:] = 25.0  # a few thousand K
    return ps
