"""The serve wire format: SN regions and predictions as flat float64 buffers.

One request or response is a single 1-D ``np.float64`` array — a fixed
header followed by the full packed-``FIELDS`` particle payload
(:meth:`repro.fdps.particles.ParticleSet.pack`).  A single dtype keeps the
buffer directly shippable over any byte transport (pipes, shared memory,
MPI) and makes its ``nbytes`` the exact figure the :class:`SimComm` ledger
charges.  Integer header entries (ids, steps, counts) are stored as
float64, exact for any value below 2**53 — the same convention the domain
exchange payload uses for ``pid``.

Layout (offsets in float64 slots)::

    request   [0] REQUEST_MAGIC   [1] WIRE_VERSION  [2] event_id
              [3] base_seed       [4] star_pid      [5] dispatch_step
              [6] return_step     [7:10] center xyz [10] n_particles
              [11] packed_width   [12:] particle payload (n * width)

    response  [0] RESPONSE_MAGIC  [1] WIRE_VERSION  [2] event_id
              [3] return_step     [4] n_particles   [5] packed_width
              [6:] particle payload (n * width)

Each header is written down once, as a table of slot names
(:data:`REQUEST_HEADER`, :data:`RESPONSE_HEADER`) whose order is the
layout above.  The encoder fills a header by slot name and must name every
slot of its table, no more; the decoder reads slots by name from the same
table.  An offset therefore lives in one place, and a field cannot be
written by one side only.

Decoding validates magic, version, and payload length, so a torn or
misrouted buffer fails loudly instead of producing corrupt particles.

Both messages can also be encoded *in place* into a caller-provided
float64 view (:meth:`ServeRequest.encode_into` /
:meth:`ServeResponse.encode_into`) — that is how the shared-memory
transport's workers write predictions directly into shared slots with no
intermediate allocation; :func:`request_nfloats` / :func:`response_nfloats`
give the sizes.  A response for ``n`` particles always fits in the slot
that carried the request for the same ``n`` (its header is smaller and the
payload identical in shape), so a worker can overwrite a request with its
prediction in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fdps.particles import ParticleSet, packed_width

WIRE_VERSION = 1
#: "SREQ" / "SRES" in ASCII — integer-valued magics survive the float64 trip.
REQUEST_MAGIC = float(0x53524551)
RESPONSE_MAGIC = float(0x53524553)

#: The header slots of each message, in wire order.
REQUEST_HEADER = (
    "magic", "version", "event_id", "base_seed", "star_pid", "dispatch_step",
    "return_step", "cx", "cy", "cz", "n", "width",
)
RESPONSE_HEADER = ("magic", "version", "event_id", "return_step", "n", "width")


class WireFormatError(ValueError):
    """A serve wire buffer failed validation before decoding.

    Raised on truncated buffers, wrong magic/version, non-integral or
    negative header counts, and payload-length mismatches — one typed
    error the fault-recovery paths can catch (a torn response is a
    recoverable transport fault, a numpy ``IndexError`` deep inside
    ``ParticleSet.unpack`` is not).
    """


def request_nfloats(n_particles: int) -> int:
    """Float64 slots one encoded request for ``n_particles`` occupies."""
    return len(REQUEST_HEADER) + int(n_particles) * packed_width()


def response_nfloats(n_particles: int) -> int:
    """Float64 slots one encoded response for ``n_particles`` occupies."""
    return len(RESPONSE_HEADER) + int(n_particles) * packed_width()


@dataclass
class ServeRequest:
    """One SN region on its way to an inference worker."""

    event_id: int
    base_seed: int
    star_pid: int
    dispatch_step: int
    return_step: int
    center: np.ndarray          # (3,) [pc]
    region: ParticleSet
    #: Cached wire encoding — requests are immutable once built, so encode
    #: once and let every consumer (transport, comm ledger) share the bytes.
    buffer: np.ndarray | None = field(default=None, repr=False, compare=False)

    def rng(self) -> np.random.Generator:
        """The per-event Gibbs generator — a pure function of the event.

        Seeding from (base seed, star pid, dispatch step) makes the
        prediction independent of dispatch/collect ordering, batching, and
        which worker runs it.  Note that an in-flight event re-dispatched
        after a checkpoint restore carries its *new* dispatch step, so it
        draws a fresh (still deterministic) sample.
        """
        return event_rng(self.base_seed, self.star_pid, self.dispatch_step)

    def to_buffer(self) -> np.ndarray:
        if self.buffer is not None:
            return self.buffer
        buf = np.empty(request_nfloats(len(self.region)), dtype=np.float64)
        self.encode_into(buf)
        self.buffer = buf
        return buf

    def encode_into(self, out: np.ndarray) -> int:
        """Write the wire encoding into ``out`` (e.g. a shared-memory slot).

        Returns the number of float64 entries used; raises when ``out`` is
        too small.  The cached :attr:`buffer` is *not* set — an external
        view must never be aliased past the caller's control.
        """
        cx, cy, cz = np.asarray(self.center, dtype=np.float64).tolist()
        return _encode(
            out, REQUEST_HEADER, self.region, "request", magic=REQUEST_MAGIC,
            event_id=self.event_id, base_seed=self.base_seed, star_pid=self.star_pid,
            dispatch_step=self.dispatch_step, return_step=self.return_step,
            cx=cx, cy=cy, cz=cz,
        )

    @classmethod
    def from_buffer(cls, buf: np.ndarray) -> "ServeRequest":
        buf = np.asarray(buf, dtype=np.float64).ravel()
        h, region = _decode(buf, REQUEST_HEADER, REQUEST_MAGIC, "request")
        return cls(
            event_id=int(h["event_id"]),
            base_seed=int(h["base_seed"]),
            star_pid=int(h["star_pid"]),
            dispatch_step=int(h["dispatch_step"]),
            return_step=int(h["return_step"]),
            center=np.array([h["cx"], h["cy"], h["cz"]]),
            region=region,
            buffer=buf,
        )


@dataclass
class ServeResponse:
    """One prediction on its way back to the main rank."""

    event_id: int
    return_step: int
    particles: ParticleSet
    #: Cached wire encoding (see :attr:`ServeRequest.buffer`).
    buffer: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_buffer(self) -> np.ndarray:
        if self.buffer is not None:
            return self.buffer
        buf = np.empty(response_nfloats(len(self.particles)), dtype=np.float64)
        self.encode_into(buf)
        self.buffer = buf
        return buf

    def encode_into(self, out: np.ndarray) -> int:
        """Write the wire encoding into ``out`` (see :meth:`ServeRequest
        .encode_into`); a shm worker overwrites the request slot with this."""
        return _encode(
            out, RESPONSE_HEADER, self.particles, "response", magic=RESPONSE_MAGIC,
            event_id=self.event_id, return_step=self.return_step,
        )

    @classmethod
    def from_buffer(cls, buf: np.ndarray) -> "ServeResponse":
        buf = np.asarray(buf, dtype=np.float64).ravel()
        h, particles = _decode(buf, RESPONSE_HEADER, RESPONSE_MAGIC, "response")
        return cls(event_id=int(h["event_id"]), return_step=int(h["return_step"]),
                   particles=particles, buffer=buf)


def event_rng(base_seed: int, star_pid: int, dispatch_step: int) -> np.random.Generator:
    """Deterministic per-event generator for the Gibbs re-sampling."""
    return np.random.default_rng(
        [abs(int(base_seed)), abs(int(star_pid)), abs(int(dispatch_step))]
    )


def _encode(out: np.ndarray, table: tuple[str, ...], particles: ParticleSet,
            kind: str, **slots: float) -> int:
    """Write ``slots`` (every slot of ``table`` but the version and the
    counts, which this fills) and the packed payload into ``out``; returns
    the float64 entries used."""
    payload = particles.pack()
    n, w = payload.shape
    header = len(table)
    total = header + n * w
    if out.size < total:
        raise ValueError(
            f"serve {kind} needs {total} float64 slots, target has {out.size}"
        )
    slots.update(version=WIRE_VERSION, n=n, width=w)
    if slots.keys() != set(table):
        raise ValueError(f"serve {kind} header slots {sorted(slots)} != {table}")
    out[:header] = [slots[name] for name in table]
    out[header:total] = payload.ravel()
    return total


def _decode(buf: np.ndarray, table: tuple[str, ...], magic: float,
            kind: str) -> tuple[dict[str, float], ParticleSet]:
    """The header of ``buf`` by slot name, and its particles, once magic,
    version, counts and payload length are validated."""
    header = len(table)
    if len(buf) < header:
        raise WireFormatError(f"serve {kind} buffer too short for its header")
    h = dict(zip(table, buf[:header].tolist(), strict=True))
    if h["magic"] != magic:
        raise WireFormatError(f"serve {kind} buffer has wrong magic {h['magic']!r}")
    if not np.isfinite(h["version"]) or int(h["version"]) != WIRE_VERSION:
        raise WireFormatError(
            f"serve {kind} wire version {h['version']!r} != {WIRE_VERSION}"
        )
    n, w = _header_counts(h["n"], h["width"], kind)
    if w != packed_width():
        raise WireFormatError(
            f"serve {kind} payload width {w} != registry width {packed_width()}"
        )
    if len(buf) != header + n * w:
        raise WireFormatError(
            f"serve {kind} buffer length {len(buf)} != header + {n}x{w} payload"
        )
    return h, ParticleSet.unpack(buf[header:].reshape(n, w))


def _header_counts(n_f: float, w_f: float, kind: str) -> tuple[int, int]:
    """Decode (n_particles, packed_width) from a validated header.

    A corrupt header can hold anything a float64 can (NaN, inf, negative,
    fractional); every such value must surface as :class:`WireFormatError`
    before the payload length is trusted.
    """
    if not (np.isfinite(n_f) and np.isfinite(w_f)):
        raise WireFormatError(f"serve {kind} header counts are not finite")
    n, w = int(n_f), int(w_f)
    if n != n_f or w != w_f or n < 0 or w < 1:
        raise WireFormatError(
            f"serve {kind} header counts ({n_f!r}, {w_f!r}) are not valid "
            "(count, width) integers"
        )
    return n, w
