"""The five rules: each check walks one module and yields ``(node, message)``.

:data:`RULES` lists them as ``(name, scope, check)``; a rule runs on the
modules whose dotted name equals or starts with one of its scope prefixes.
The catalog, with what motivates each rule, is the :mod:`repro.lint`
package docstring.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Callable, Iterator

from repro.lint import ModuleContext, dotted_name, under

Hits = Iterator[tuple[ast.AST, str]]

#: numpy.random entry points that are seeded-stream safe.
_SEEDED_OK = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
}
#: Calls that read the absolute clock; perf_counter/monotonic/process_time
#: are relative and fine for metrics.
_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}
_SEEDY_PARAM = re.compile(r"(^|_)(rng|seed|random_state)(_|$)|(^|_)seed$|^seed")
_SEEDY_ATTR = re.compile(r"(rng|seed)")

#: Catching these swallows faults indiscriminately; a narrower tuple is a
#: deliberate enumeration of expected failures.
_BROAD_TYPES = {"Exception", "BaseException"}
#: A call to any of these inside a handler observes the failure (stdlib
#: logging, repro.util.logging, warnings.warn).
_LOG_METHODS = {
    "debug", "info", "warning", "warn", "error", "exception", "critical", "log",
}

#: One row per layer: importing packages -> packages none of them may
#: import (the layers above it), at module level or inside a function.
FORBIDDEN_IMPORTS: dict[tuple[str, ...], tuple[str, ...]] = {
    ("repro.accel", "repro.gravity", "repro.sph", "repro.fdps"): ("repro.core", "repro.serve"),
    ("repro.util",): ("repro.serve", "repro.accel"),
}

#: Modules that own vectorized per-particle kernels: the backends, the
#: SPH/gravity pipeline plus the two deposit kernels (voxelize feeds every
#: surrogate prediction; maps feeds the Fig. 5 observables).
KERNEL_MODULES = (
    "repro.accel.backends",
    "repro.sph",
    "repro.gravity",
    "repro.surrogate.voxelize",
    "repro.analysis.maps",
)


def _calls(tree: ast.AST) -> Iterator[ast.Call]:
    return (node for node in ast.walk(tree) if isinstance(node, ast.Call))


def determinism(ctx: ModuleContext) -> Hits:
    """No numpy global-state RNG, stdlib ``random`` or absolute clock."""
    for call in _calls(ctx.tree):
        name = ctx.resolve(call.func)
        if name is None:
            continue
        if name.startswith("numpy.random.") and name.rsplit(".", 1)[-1] not in _SEEDED_OK:
            yield call, (f"'{name}' draws from numpy's global RNG state; "
                         "thread a seeded np.random.Generator instead")
        elif name.startswith("random."):
            yield call, (f"stdlib '{name}' is process-global and unseeded here; "
                         "use a seeded np.random.Generator")
        elif name in _CLOCK_CALLS:
            yield call, (f"'{name}' reads the absolute wall clock; results must "
                         "not depend on it (perf_counter/monotonic are fine for "
                         "metrics)")


def _builds_generator(ctx: ModuleContext, call: ast.Call) -> bool:
    name = ctx.resolve(call.func) or dotted_name(call.func)
    if name is None:
        return False
    if name.startswith("numpy.random."):
        return name.rsplit(".", 1)[-1] in {"default_rng", "Generator"}
    # repro.util.rng.default_rng, serve.wire.event_rng and a local module
    # alias's default_rng count too.
    return name.endswith((".default_rng", ".event_rng"))


def _takes_seed(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A seed-like parameter, or a seed-carrying attribute of ``self``."""
    args = fn.args
    if any(_SEEDY_PARAM.search(a.arg)
           for a in args.posonlyargs + args.args + args.kwonlyargs):
        return True
    return any(
        isinstance(node, ast.Attribute) and _SEEDY_ATTR.search(node.attr)
        and (dotted_name(node) or "").startswith("self.")
        for node in ast.walk(fn)
    )


def rng_plumbing(ctx: ModuleContext) -> Hits:
    """Public functions that build a generator take the seed from the caller."""
    for fn in ast.walk(ctx.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("_"):
            continue
        builds = [call for call in _calls(fn) if _builds_generator(ctx, call)]
        if builds and not _takes_seed(fn):
            yield builds[0], (f"public '{fn.name}' builds its own generator with no "
                              "rng/seed parameter; callers cannot pin its randomness")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:                        # bare except
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any((dotted_name(t) or "").split(".")[-1] in _BROAD_TYPES for t in types)


def _observes_failure(handler: ast.ExceptHandler) -> bool:
    """The handler raises, logs, or uses the bound exception (e.g. ships it
    back over a pipe)."""
    for node in (n for stmt in handler.body for n in ast.walk(stmt)):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and (
            (dotted_name(node.func) or "").split(".")[-1] in _LOG_METHODS
        ):
            return True
        if handler.name and isinstance(node, ast.Name) and node.id == handler.name:
            return True
    return False


def silent_except(ctx: ModuleContext) -> Hits:
    """Broad exception handlers must raise, log, or use the exception."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler) and _is_broad(node) and not _observes_failure(node):
            caught = "bare except" if node.type is None else f"except {ast.unparse(node.type)}"
            yield node, (f"{caught} swallows the failure silently — re-raise, "
                         "log it, or narrow the handler to the expected types")


def layering(ctx: ModuleContext) -> Hits:
    """No module imports a layer above it (:data:`FORBIDDEN_IMPORTS`)."""
    above = next(targets for pkgs, targets in FORBIDDEN_IMPORTS.items()
                 if any(under(ctx.module, p) for p in pkgs))
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            imported = [node.module]
        else:
            continue
        for target in imported:
            if any(under(target, p) for p in above):
                yield node, (f"imports '{target}', a layer above this module; "
                             "the dependency arrow points the other way")


def _per_element_range(it: ast.AST) -> bool:
    """``range(len(x))`` or ``range(x.shape[0])``."""
    if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
            and it.func.id == "range" and len(it.args) == 1):
        return False
    arg = it.args[0]
    if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id == "len":
        return True
    return (isinstance(arg, ast.Subscript) and isinstance(arg.value, ast.Attribute)
            and arg.value.attr == "shape")


def hotpath_hygiene(ctx: ModuleContext) -> Hits:
    """No ``np.add.at`` or per-particle Python loops in kernel modules."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and ctx.resolve(node.func) == "numpy.add.at":
            yield node, ("np.add.at is a buffered per-element scatter; use a "
                         "np.bincount reduction (same accumulation order, "
                         "bit-identical)")
        elif isinstance(node, ast.For) and _per_element_range(node.iter):
            yield node, ("per-particle Python loop (for ... in range(len/shape)); "
                         "vectorize it or generate it from the PIKG DSL")


#: ``(name, scope prefixes, check)`` of every rule, in catalog order.
RULES: tuple[tuple[str, tuple[str, ...], Callable[[ModuleContext], Hits]], ...] = (
    ("determinism", ("repro",), determinism),
    ("rng-plumbing", ("repro",), rng_plumbing),
    ("silent-except", ("repro",), silent_except),
    ("layering", tuple(p for pkgs in FORBIDDEN_IMPORTS for p in pkgs), layering),
    ("hotpath-hygiene", KERNEL_MODULES, hotpath_hygiene),
)
