"""Silent exception swallowing: broad handlers must leave a trace.

A fault-tolerant service (ISSUE 8) lives and dies by its failure paths
being *observable*: a worker crash that is caught, counted, and recovered
is robustness; an ``except Exception: pass`` is a worker crash the metrics
never see and the chaos suite can never pin.  The rule flags every handler
that

* catches broadly — bare ``except``, ``Exception``, or ``BaseException``
  (narrow tuples like ``except (OSError, ValueError)`` are a deliberate
  enumeration and pass), and
* does nothing observable with the failure — no ``raise``, no logging call
  (``log.warning`` & friends, ``warnings.warn``), and no use of the bound
  exception name (a worker shipping ``exc`` back over its pipe *is*
  the observation).

Deliberate swallows — interpreter-teardown ``__del__`` guards, best-effort
cleanup — either narrow the tuple to what teardown can actually raise or
carry a ``# repro-lint: disable=silent-except -- reason`` with the reason
on record.
"""

from __future__ import annotations

import ast

from repro.lint.base import ModuleContext, Rule, dotted_name
from repro.lint.findings import Finding
from repro.lint.registry import register_rule

#: Catching these swallows faults indiscriminately; anything narrower is a
#: deliberate enumeration of expected failures.
_BROAD_TYPES = {"Exception", "BaseException"}
#: A call to any of these methods inside the handler counts as observing
#: the failure (stdlib logging, repro.util.logging, warnings.warn).
_LOG_METHODS = {
    "debug", "info", "warning", "warn", "error", "exception", "critical", "log",
}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    t = handler.type
    if t is None:                                   # bare except
        return True
    types = t.elts if isinstance(t, ast.Tuple) else [t]
    for node in types:
        name = dotted_name(node)
        if name is not None and name.split(".")[-1] in _BROAD_TYPES:
            return True
    return False


def _observes_failure(handler: ast.ExceptHandler) -> bool:
    bound = handler.name  # "exc" in ``except Exception as exc``
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee is not None and callee.split(".")[-1] in _LOG_METHODS:
                return True
        if bound and isinstance(node, ast.Name) and node.id == bound:
            if not isinstance(getattr(node, "parent", None), ast.ExceptHandler):
                return True  # exc is used: re-shipped, stored, formatted...
    return False


@register_rule
class SilentExceptRule(Rule):
    """R7: broad exception handlers must raise, log, or use the exception."""

    name = "silent-except"
    description = (
        "bare/Exception/BaseException handlers that neither re-raise, log, "
        "nor use the bound exception swallow faults invisibly"
    )
    scope_prefixes = ("repro",)

    def check(self, ctx: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _is_broad(node) and not _observes_failure(node):
                caught = "bare except" if node.type is None else (
                    f"except {ast.unparse(node.type)}"
                )
                out.append(ctx.finding(
                    node, self.name,
                    f"{caught} swallows the failure silently — re-raise, "
                    "log it, or narrow the handler to the expected types",
                ))
        return out
