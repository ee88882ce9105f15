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

_REQ_HEADER = 12
_RES_HEADER = 6


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
    return _REQ_HEADER + int(n_particles) * packed_width()


def response_nfloats(n_particles: int) -> int:
    """Float64 slots one encoded response for ``n_particles`` occupies."""
    return _RES_HEADER + int(n_particles) * packed_width()


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
        payload = self.region.pack()
        n, w = payload.shape
        total = _REQ_HEADER + n * w
        if out.size < total:
            raise ValueError(
                f"serve request needs {total} float64 slots, target has {out.size}"
            )
        out[0] = REQUEST_MAGIC
        out[1] = WIRE_VERSION
        out[2] = self.event_id
        out[3] = self.base_seed
        out[4] = self.star_pid
        out[5] = self.dispatch_step
        out[6] = self.return_step
        out[7:10] = np.asarray(self.center, dtype=np.float64)
        out[10] = n
        out[11] = w
        out[_REQ_HEADER:total] = payload.ravel()
        return total

    @classmethod
    def from_buffer(cls, buf: np.ndarray) -> "ServeRequest":
        buf = np.asarray(buf, dtype=np.float64).ravel()
        _check_header(buf, REQUEST_MAGIC, _REQ_HEADER, "request")
        n, w = _header_counts(buf, 10, 11, "request")
        _check_payload(buf, _REQ_HEADER, n, w, "request")
        region = ParticleSet.unpack(buf[_REQ_HEADER:].reshape(n, w))
        return cls(
            event_id=int(buf[2]),
            base_seed=int(buf[3]),
            star_pid=int(buf[4]),
            dispatch_step=int(buf[5]),
            return_step=int(buf[6]),
            center=buf[7:10].copy(),
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
        payload = self.particles.pack()
        n, w = payload.shape
        total = _RES_HEADER + n * w
        if out.size < total:
            raise ValueError(
                f"serve response needs {total} float64 slots, target has {out.size}"
            )
        out[0] = RESPONSE_MAGIC
        out[1] = WIRE_VERSION
        out[2] = self.event_id
        out[3] = self.return_step
        out[4] = n
        out[5] = w
        out[_RES_HEADER:total] = payload.ravel()
        return total

    @classmethod
    def from_buffer(cls, buf: np.ndarray) -> "ServeResponse":
        buf = np.asarray(buf, dtype=np.float64).ravel()
        _check_header(buf, RESPONSE_MAGIC, _RES_HEADER, "response")
        n, w = _header_counts(buf, 4, 5, "response")
        _check_payload(buf, _RES_HEADER, n, w, "response")
        particles = ParticleSet.unpack(buf[_RES_HEADER:].reshape(n, w))
        return cls(event_id=int(buf[2]), return_step=int(buf[3]),
                   particles=particles, buffer=buf)


def event_rng(base_seed: int, star_pid: int, dispatch_step: int) -> np.random.Generator:
    """Deterministic per-event generator for the Gibbs re-sampling."""
    return np.random.default_rng(
        [abs(int(base_seed)), abs(int(star_pid)), abs(int(dispatch_step))]
    )


def _check_header(buf: np.ndarray, magic: float, header: int, kind: str) -> None:
    if len(buf) < header:
        raise WireFormatError(f"serve {kind} buffer too short for its header")
    if buf[0] != magic:
        raise WireFormatError(f"serve {kind} buffer has wrong magic {buf[0]!r}")
    if not np.isfinite(buf[1]) or int(buf[1]) != WIRE_VERSION:
        raise WireFormatError(
            f"serve {kind} wire version {buf[1]!r} != {WIRE_VERSION}"
        )


def _header_counts(buf: np.ndarray, n_slot: int, w_slot: int, kind: str) -> tuple[int, int]:
    """Decode (n_particles, packed_width) from a validated header.

    A corrupt header can hold anything a float64 can (NaN, inf, negative,
    fractional); every such value must surface as :class:`WireFormatError`
    before the payload length is trusted.
    """
    n_f, w_f = float(buf[n_slot]), float(buf[w_slot])
    if not (np.isfinite(n_f) and np.isfinite(w_f)):
        raise WireFormatError(f"serve {kind} header counts are not finite")
    n, w = int(n_f), int(w_f)
    if n != n_f or w != w_f or n < 0 or w < 1:
        raise WireFormatError(
            f"serve {kind} header counts ({n_f!r}, {w_f!r}) are not valid "
            "(count, width) integers"
        )
    return n, w


def _check_payload(buf: np.ndarray, header: int, n: int, w: int, kind: str) -> None:
    if w != packed_width():
        raise WireFormatError(
            f"serve {kind} payload width {w} != registry width {packed_width()}"
        )
    if len(buf) != header + n * w:
        raise WireFormatError(
            f"serve {kind} buffer length {len(buf)} != header + {n}x{w} payload"
        )
