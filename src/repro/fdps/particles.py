"""Structure-of-arrays particle container.

The paper's force kernels are generated by PIKG, which converts between
arrays-of-structures and structures-of-arrays at kernel boundaries; here the
canonical storage *is* SoA (one contiguous NumPy array per field), which is
also the cache-friendly layout for vectorized NumPy arithmetic.

A :class:`ParticleSet` holds dark matter, stars and gas in one container
distinguished by ``ptype``; gas-only and star-only fields are allocated for
everyone (NumPy has no ragged columns) but are only meaningful where the type
matches.  All mutating operations (append / remove / reorder) act on every
registered field so the columns can never fall out of sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class ParticleType(IntEnum):
    """Particle species: the three components of the Model MW galaxy."""

    DARK_MATTER = 0
    STAR = 1
    GAS = 2


#: Field registry: name -> (per-particle shape tail, dtype, fill value).
FIELDS: dict[str, tuple[tuple[int, ...], np.dtype, float]] = {
    "pos": ((3,), np.float64, 0.0),        # position [pc]
    "vel": ((3,), np.float64, 0.0),        # velocity [pc/Myr]
    "acc": ((3,), np.float64, 0.0),        # acceleration [pc/Myr^2]
    "mass": ((), np.float64, 0.0),         # mass [M_sun]
    "pot": ((), np.float64, 0.0),          # specific potential energy
    "pid": ((), np.int64, -1),             # globally unique particle ID
    "ptype": ((), np.int8, 0),             # ParticleType
    "eps": ((), np.float64, 1.0),          # gravitational softening [pc]
    # --- gas (SPH) fields ---------------------------------------------------
    "h": ((), np.float64, 1.0),            # smoothing length [pc]
    "dens": ((), np.float64, 0.0),         # SPH density [M_sun/pc^3]
    "u": ((), np.float64, 0.0),            # specific internal energy
    "du_dt": ((), np.float64, 0.0),        # du/dt from hydro + feedback
    "pres": ((), np.float64, 0.0),         # pressure
    "csnd": ((), np.float64, 0.0),         # sound speed
    "divv": ((), np.float64, 0.0),         # velocity divergence
    "curlv": ((), np.float64, 0.0),        # |curl v| (Balsara switch)
    "fgrad": ((), np.float64, 1.0),        # grad-h correction factor
    "zmet": ((4,), np.float64, 0.0),       # metal mass fractions: C, O, Mg, Fe
    # --- star fields ---------------------------------------------------------
    "tform": ((), np.float64, np.inf),     # formation time [Myr]
    "tsn": ((), np.float64, np.inf),       # scheduled SN time [Myr]; inf = none
}

#: Index labels for the ``zmet`` columns.
METAL_SPECIES = ("C", "O", "Mg", "Fe")


#: Flattened columns of each :data:`FIELDS` entry, in registry order.
_COLUMNS: dict[str, int] = {
    name: int(np.prod(shape, dtype=np.int64)) for name, (shape, _, _) in FIELDS.items()
}
_PACKED_WIDTH = sum(_COLUMNS.values())


def packed_width() -> int:
    """Flattened float64 columns of one particle in the migration payload.

    Every :data:`FIELDS` column rides along when a particle migrates between
    domains, so the wire format is the full registry, not a subset — the
    communication ledger must see exactly these bytes.  The registry is
    static: the width is computed once, at import.
    """
    return _PACKED_WIDTH


@dataclass
class ParticleSet:
    """SoA particle storage for an N-body/SPH simulation.

    Create with :meth:`empty` or :meth:`from_arrays`.  Fields are attributes
    (``ps.pos``, ``ps.mass`` ...); ``len(ps)`` is the particle count.
    """

    data: dict[str, np.ndarray]

    # -- construction ---------------------------------------------------------
    @classmethod
    def empty(cls, n: int) -> "ParticleSet":
        """Allocate ``n`` particles with default-filled fields."""
        data = {}
        for name, (shape, dtype, fill) in FIELDS.items():
            arr = np.full((n, *shape), fill, dtype=dtype)
            data[name] = arr
        return cls(data)

    @classmethod
    def from_arrays(cls, **arrays: np.ndarray) -> "ParticleSet":
        """Build from keyword arrays; 'pos' is required, others defaulted.

        Unknown keywords raise ``KeyError`` so typos cannot silently create
        orphan columns.
        """
        if "pos" not in arrays:
            raise KeyError("from_arrays requires at least 'pos'")
        n = len(np.atleast_2d(arrays["pos"]))
        ps = cls.empty(n)
        for name, arr in arrays.items():
            if name not in FIELDS:
                raise KeyError(f"unknown particle field {name!r}")
            shape, dtype, _ = FIELDS[name]
            ps.data[name][...] = np.asarray(arr, dtype=dtype).reshape((n, *shape))
        return ps

    # -- attribute access -----------------------------------------------------
    def __getattr__(self, name: str) -> np.ndarray:
        try:
            return self.__dict__["data"][name]
        except KeyError:
            raise AttributeError(name) from None

    def __len__(self) -> int:
        return len(self.data["pos"])

    # -- bulk operations ------------------------------------------------------
    def select(self, index: np.ndarray | slice) -> "ParticleSet":
        """A *copy* holding the particles selected by mask, index array or
        slice — copied once: a mask or an index array gathers into new
        arrays already, only a slice's view is copied."""
        if isinstance(index, slice):
            return ParticleSet({k: v[index].copy() for k, v in self.data.items()})
        index = np.asarray(index)
        return ParticleSet({k: v[index] for k, v in self.data.items()})

    def where_type(self, ptype: ParticleType) -> np.ndarray:
        """Boolean mask of particles of the given species."""
        return self.data["ptype"] == int(ptype)

    def gas(self) -> "ParticleSet":
        return self.select(self.where_type(ParticleType.GAS))

    def stars(self) -> "ParticleSet":
        return self.select(self.where_type(ParticleType.STAR))

    def dark_matter(self) -> "ParticleSet":
        return self.select(self.where_type(ParticleType.DARK_MATTER))

    def append(self, other: "ParticleSet") -> "ParticleSet":
        """Concatenate two sets (returns a new set; inputs untouched)."""
        return ParticleSet(
            {k: np.concatenate([self.data[k], other.data[k]]) for k in self.data}
        )

    def remove(self, mask: np.ndarray) -> "ParticleSet":
        """A new set without the masked particles."""
        keep = ~np.asarray(mask, dtype=bool)
        return self.select(keep)

    def reorder(self, order: np.ndarray) -> None:
        """Permute all fields in place (e.g. into Morton order)."""
        for k in self.data:
            self.data[k] = self.data[k][order]

    def copy(self) -> "ParticleSet":
        return ParticleSet({k: v.copy() for k, v in self.data.items()})

    # -- wire format (domain exchange) ----------------------------------------
    def pack(self) -> np.ndarray:
        """Serialize every field into one ``(n, packed_width())`` float64 buffer.

        This is the migration payload of the distributed particle exchange:
        the buffer's ``nbytes`` is exactly what crosses the communicator, so
        the byte ledger counts the true cost of moving a particle.  Integer
        columns (``pid``, ``ptype``) are stored as float64 — exact for any
        ``|pid| < 2**53``.
        """
        n = len(self)
        out = np.empty((n, packed_width()), dtype=np.float64)
        col = 0
        for name, w in _COLUMNS.items():
            out[:, col : col + w] = self.data[name].reshape(n, w)
            col += w
        return out

    @classmethod
    def unpack(cls, buf: np.ndarray) -> "ParticleSet":
        """Rebuild a set from a :meth:`pack` buffer (dtypes restored)."""
        buf = np.asarray(buf, dtype=np.float64).reshape(-1, packed_width())
        n = len(buf)
        ps = cls.empty(n)
        col = 0
        for name, (shape, dtype, _fill) in FIELDS.items():
            w = _COLUMNS[name]
            ps.data[name][...] = buf[:, col : col + w].reshape((n, *shape)).astype(dtype)
            col += w
        return ps

    # -- ID-based replacement (step 4 of the surrogate loop, Sec. 3.2) --------
    def replace_by_pid(self, replacement: "ParticleSet") -> int:
        """Overwrite particles whose ``pid`` appears in ``replacement``.

        This is the merge step of the surrogate scheme: predicted particles
        coming back from a pool node replace their originals *by particle ID*
        irrespective of where domain decomposition has moved them.  Returns
        the number of particles replaced.  IDs present in ``replacement`` but
        not found locally are ignored (they live on another rank).
        """
        if len(replacement) == 0:
            return 0
        order = np.argsort(self.pid, kind="stable")
        sorted_pid = self.pid[order]
        loc = np.searchsorted(sorted_pid, replacement.pid)
        loc = np.clip(loc, 0, len(sorted_pid) - 1)
        found = sorted_pid[loc] == replacement.pid
        target = order[loc[found]]
        source = np.flatnonzero(found)
        for k in self.data:
            self.data[k][target] = replacement.data[k][source]
        return int(found.sum())

    # -- diagnostics -----------------------------------------------------------
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def kinetic_energy(self) -> float:
        return float(0.5 * np.sum(self.mass * np.einsum("ij,ij->i", self.vel, self.vel)))

    def thermal_energy(self) -> float:
        gas = self.where_type(ParticleType.GAS)
        return float(np.sum(self.mass[gas] * self.u[gas]))

    def momentum(self) -> np.ndarray:
        return np.einsum("i,ij->j", self.mass, self.vel)

    def bounding_box(self, pad: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounds (lo, hi) of all positions, optionally padded."""
        lo = self.pos.min(axis=0) - pad
        hi = self.pos.max(axis=0) + pad
        return lo, hi
