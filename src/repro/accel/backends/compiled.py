"""Compiled SPH pair loops: ``sph_loops.c``, built with the host's ``cc`` and
loaded through :mod:`ctypes`.

The production code runs every interaction kernel as a native loop PIKG
generates per ISA (Sec. 3.5, Table 4).  Here the four SPH pair passes of the
``numpy`` backend — the density gather's weight sweep and its finalize, the
velocity estimators and the half-pair hydro force — run as C loops whenever
a C compiler is there to build them; they repeat the numpy reference's
operations in its order and return the same bits (``sph_loops.c`` says how),
so the numpy code stays what the tests compare against and what runs
without a compiler.  Nothing selects them: :func:`sph_loops` returns the
loops when ``cc`` builds and loads the library, ``None`` (and one warning on
the ``repro.accel`` logger) when it cannot.

Built lazily, at the first SPH pass of a process, never at import: one
``cc -O2 -ffp-contract=off`` run (no ``-ffast-math``, no ``-march=native`` —
either would change bits) into the user cache directory
(``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``), the file named by a
sha256 of the source, the compiler's ``--version`` and the flags, written
under a temporary name and moved into place with :func:`os.replace`, so
processes building at once never see each other's half-written file.  A
later process loads it without compiling; a cached file that does not load
(truncated, say) is built again; where the cache cannot be written the
library is built in a private temporary directory, removed once loaded.

Every array argument is declared with ``np.ctypeslib.ndpointer`` (dtype and
C contiguity), so a wrong dtype or a strided view raises ``TypeError`` at
the call instead of reading garbage.  Only :class:`~repro.sph.kernels.CubicSpline`
is compiled: the loops inline its profile.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.sph.kernels import CubicSpline, SPHKernel
from repro.util.logging import get_logger

_log = get_logger("accel")

SOURCE = Path(__file__).with_name("sph_loops.c")
COMPILER = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")
#: What ``sph_loops_abi()`` of a library built from :data:`SOURCE` returns.
_ABI = 2


def _array(dtype: type) -> type:
    return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")


def _optional(dtype: type) -> type:
    """An ``ndpointer`` that also takes ``None`` (a NULL pointer)."""
    base = _array(dtype)

    def from_param(cls: type, obj: object) -> object:
        return None if obj is None else base.from_param(obj)

    return type(f"optional_{base.__name__}", (base,), {"from_param": classmethod(from_param)})


_I, _F = _array(np.int64), _array(np.float64)
_OPT_F, _OPT_B = _optional(np.float64), _optional(np.bool_)
_N, _D = ctypes.c_int64, ctypes.c_double

#: Each loop's argument types (``sph_loops.c`` documents them).
_SIGNATURES: dict[str, tuple[object, list[object]]] = {
    "sph_profile_sum": (None, [_N, _I, _F, _OPT_B, _OPT_B, _F, _F]),
    "sph_gather_count": (_N, [_N, _I, _F, _OPT_B, _F]),
    "sph_gather": (_N, [_N, _I, _I, _F, _OPT_B, _F, _F, _I, _I, _F, _F, _F, _I]),
    "sph_velocity_sums": (_N, [_N, _N, _I, _I, _F, _F, _F, _F, _F, _D, _F, _F, _F, _F]),
    "sph_hydro_force": (_N, [
        _N, _N, _I, _I, _F, _F, _F, _F, _F, _F, _F, _F, _F, _F, _OPT_F, _D, _D, _D,
        _F, _F, _F, _F, _F,
    ]),
}


def _typed(fn: Callable[..., object]) -> Callable[..., object]:
    """``fn`` raising ``TypeError`` for an argument its ``argtypes`` refuse
    (ctypes raises its own ``ArgumentError``)."""

    def call(*args: object) -> object:
        try:
            return fn(*args)
        except ctypes.ArgumentError as exc:
            raise TypeError(f"{fn.__name__}: {exc}") from None

    return call


class SphLoops:
    """The loaded library: its loops, argument types declared, as
    attributes of the same names."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        abi = lib.sph_loops_abi
        abi.restype = ctypes.c_int
        if abi() != _ABI:
            raise OSError(f"{lib._name}: not built from {SOURCE.name}")
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
            setattr(self, name, _typed(fn))
        self.path = lib._name


_UNTRIED = object()
_loaded: object = _UNTRIED


def sph_loops(kernel: SPHKernel | None = None) -> SphLoops | None:
    """The compiled loops, built and loaded on the first call of the
    process; ``None`` where they cannot be, or for a ``kernel`` they do not
    inline (anything but :class:`CubicSpline`)."""
    global _loaded
    if kernel is not None and type(kernel) is not CubicSpline:
        return None
    if _loaded is _UNTRIED:
        _loaded = load()
    return _loaded if isinstance(_loaded, SphLoops) else None


def cache_dir() -> Path:
    """The user cache directory the library is built into."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro"


def load() -> SphLoops | None:
    """Build (or find in the cache) and load the library; ``None``, with one
    warning, when there is no compiler or the build or load fails."""
    cc = shutil.which(COMPILER)
    if cc is None:
        _log.warning("no C compiler (%s) on PATH: the SPH pair loops run in numpy", COMPILER)
        return None
    try:
        name = library_name(cc)
        try:
            return _cached(cc, cache_dir() / name)
        except OSError:                          # the cache is not writable
            private = Path(tempfile.mkdtemp(prefix="repro-sph-loops-"))
            try:        # a loaded library outlives its file
                return _cached(cc, private / name)
            finally:
                shutil.rmtree(private, ignore_errors=True)
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        said = getattr(exc, "stderr", None)
        detail = (said.decode(errors="replace") if said else str(exc)).strip()
        _log.warning(
            "the SPH pair loops could not be built or loaded (%s): they run in numpy",
            detail.splitlines()[0] if detail else type(exc).__name__,
        )
        return None


def library_name(cc: str) -> str:
    """The library's file name: a sha256 of the source, ``cc --version``
    and the flags."""
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(subprocess.run([cc, "--version"], capture_output=True, check=True, timeout=60).stdout)
    key.update(" ".join(FLAGS).encode())
    return f"sph_loops-{key.hexdigest()[:20]}.so"


def _whole(path: Path) -> bool:
    """False for an ELF file cut short of its section header table (the
    last thing a linker writes): loading one can fault on a page past its
    end, where a failed ``dlopen`` would only raise."""
    with open(path, "rb") as f:
        head = f.read(64)
    if head[:6] != b"\x7fELF\x02\x01":       # a 64-bit little-endian ELF only
        return True
    if len(head) < 64:
        return False
    shoff = int.from_bytes(head[0x28:0x30], "little")
    shentsize = int.from_bytes(head[0x3A:0x3C], "little")
    shnum = int.from_bytes(head[0x3C:0x3E], "little")
    return path.stat().st_size >= shoff + shentsize * shnum


def _cached(cc: str, path: Path) -> SphLoops:
    """The library at ``path``, built there first when it is missing, cut
    short or does not load."""
    if path.exists() and _whole(path):
        try:
            return SphLoops(ctypes.CDLL(str(path)))
        except (OSError, AttributeError):
            pass                                 # foreign or damaged: build it again
    build(cc, path)
    return SphLoops(ctypes.CDLL(str(path)))


def build(cc: str, path: Path) -> None:
    """Compile :data:`SOURCE` to ``path``: under a temporary name in its
    directory, then :func:`os.replace`, so a reader sees the old file or
    the whole new one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem + "-", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True, check=True, timeout=300,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
