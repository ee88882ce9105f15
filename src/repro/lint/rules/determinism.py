"""Determinism rules: no ambient randomness or wall-clock in physics paths.

The repo's headline guarantee — bit-identical results across backends,
transports, batch compositions and worker counts (PR 3/4/5 parity suites) —
survives only because every random draw flows from an explicit seed
(``np.random.Generator`` streams, :func:`repro.serve.wire.event_rng`) and no
result depends on wall-clock time.  One ``np.random.normal()`` against the
global state, or one ``time.time()`` folded into physics, breaks the whole
class of parity tests *flakily* — the worst way to find out.

``determinism`` flags the call sites; ``rng-plumbing`` flags public
functions that build their own generator without taking the seed from the
caller (randomness a caller cannot pin is randomness the parity suite
cannot replay).

Wall-clock *metrics* are fine: ``time.perf_counter``/``monotonic`` price
latency and never feed results, so only ``time.time``-style absolute clocks
and ``datetime`` constructors are flagged.
"""

from __future__ import annotations

import ast
import re

from repro.lint.base import ModuleContext, Rule, dotted_name
from repro.lint.findings import Finding
from repro.lint.registry import register_rule

#: Subsystems whose outputs must be a pure function of (inputs, seeds).
DETERMINISTIC_MODULES = (
    # "repro.core" covers the step host (repro.core.runner): its dispatch
    # ordering and ghost exchange are exactly the code where ambient
    # randomness would break the cut-independence bit-identity contract.
    "repro.core",
    "repro.physics",
    "repro.sph",
    "repro.gravity",
    "repro.sn",
    "repro.surrogate",
    "repro.ml",
    "repro.serve",
    # Trace timestamps are monotonic-epoch by contract (repro.obs module
    # docs): an absolute clock here would make two runs' traces
    # incomparable and is flagged by the same R1 clock clause.
    "repro.obs",
)

#: numpy.random entry points that are seeded-stream safe.
_SEEDED_OK = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
}

#: time/datetime calls that read the absolute clock (results may depend on
#: them); perf_counter/monotonic/process_time are relative and metrics-only.
_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_SEEDY_PARAM = re.compile(r"(^|_)(rng|seed|random_state)(_|$)|(^|_)seed$|^seed")
_SEEDY_ATTR = re.compile(r"(rng|seed)")


def _resolved_call_chain(ctx: ModuleContext, node: ast.Call) -> str | None:
    chain = dotted_name(node.func)
    if chain is None:
        return None
    return ctx.resolve(chain)


@register_rule
class DeterminismRule(Rule):
    """R1: no global-state RNG or absolute-clock calls in physics paths."""

    name = "determinism"
    description = (
        "no np.random module-state calls, stdlib random, or absolute clocks "
        "in deterministic subsystems; use a seeded Generator / event_rng"
    )
    scope_prefixes = DETERMINISTIC_MODULES

    def check(self, ctx: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = _resolved_call_chain(ctx, node)
            if resolved is None or resolved.startswith("local:"):
                continue
            if resolved.startswith("numpy.random."):
                leaf = resolved.rsplit(".", 1)[-1]
                if leaf not in _SEEDED_OK:
                    out.append(ctx.finding(
                        node, self.name,
                        f"'{resolved}' draws from numpy's global RNG state; "
                        "thread a seeded np.random.Generator instead",
                    ))
            elif resolved.startswith("random."):
                out.append(ctx.finding(
                    node, self.name,
                    f"stdlib '{resolved}' is process-global and unseeded here; "
                    "use a seeded np.random.Generator",
                ))
            elif resolved in _CLOCK_CALLS:
                out.append(ctx.finding(
                    node, self.name,
                    f"'{resolved}' reads the absolute wall clock; results must "
                    "not depend on it (perf_counter/monotonic are fine for "
                    "metrics)",
                ))
        return out


@register_rule
class RngPlumbingRule(Rule):
    """R8: public randomness consumers take an explicit rng/seed argument."""

    name = "rng-plumbing"
    description = (
        "public functions that build a Generator must take rng/seed from the "
        "caller (a parameter or a seed-carrying attribute of self)"
    )
    scope_prefixes = DETERMINISTIC_MODULES + ("repro.ic", "repro.fdps")

    def check(self, ctx: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            builds = [
                call for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and self._builds_generator(ctx, call)
            ]
            if not builds:
                continue
            if self._has_seed_param(node) or self._uses_self_seed(node):
                continue
            out.append(ctx.finding(
                builds[0], self.name,
                f"public '{node.name}' builds its own generator with no "
                "rng/seed parameter; callers cannot pin its randomness",
            ))
        return out

    @staticmethod
    def _builds_generator(ctx: ModuleContext, call: ast.Call) -> bool:
        resolved = _resolved_call_chain(ctx, call)
        if resolved is None:
            return False
        if resolved.startswith("numpy.random."):
            return resolved.rsplit(".", 1)[-1] in {"default_rng", "Generator"}
        # repro.util.rng.default_rng and serve.wire.event_rng count too.
        return resolved.endswith((".default_rng", ".event_rng"))

    @staticmethod
    def _has_seed_param(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        return any(_SEEDY_PARAM.search(n) for n in names)

    @staticmethod
    def _uses_self_seed(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and _SEEDY_ATTR.search(sub.attr)
                and isinstance(sub.value, (ast.Name, ast.Attribute))
            ):
                chain = dotted_name(sub)
                if chain and chain.startswith("self."):
                    return True
        return False
