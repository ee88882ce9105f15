"""Shm slot-lease pairing: leases release on success *and* exception edges.

The zero-copy transport (PR 5) hands shared-memory ring slots to in-flight
batches: ``dispatch`` pops indices off the free stack, ``_handle_row``
returns them when the batch lands.  A leaked slot is not a crash — it is a
ring that quietly shrinks until every request takes the pickled fallback path
and the "zero-copy" benchmark numbers stop being zero-copy (the exact
regression ``tests/serve/test_shm.py`` pins for the worker-exception path).

The rule is an intraprocedural walk over each function in
``repro.serve.shm``:

* a function that *acquires* (``<x>._free.pop()``) must either release in
  the same function or hand the lease off to a lease registry (assign into
  ``<x>._batch_slots[...]`` or, for timed-out batches whose worker may
  still touch the slot, ``<x>._zombies[...]``);
* a function that *releases* (``<x>._free.extend/append``) after acquiring
  or taking over leases (``<x>._batch_slots.pop(...)`` /
  ``<x>._zombies.pop(...)``) must make *every* such release on a
  ``finally`` edge, so the exception path releases too — one function may
  serve several lease sites (the row pump frees claim-row zombies and
  done-row leases), and a guarded site must not vouch for another;
* a takeover with neither a release nor a handoff to the other registry is
  a leak.

The ``try/finally`` requirement is the CFG bit: a release reached only on
the fall-through edge misses every raising path through the function.
"""

from __future__ import annotations

import ast

from repro.lint.base import ModuleContext, Rule, dotted_name, in_finally_block
from repro.lint.findings import Finding
from repro.lint.registry import register_rule

#: Attribute names that define the lease protocol in repro.serve.shm.
FREE_STACK_ATTR = "_free"
INFLIGHT_REGISTRY_ATTR = "_batch_slots"
#: Leases of timed-out batches park here until provably released (fault
#: recovery, ISSUE 8) — same pairing discipline as the in-flight registry.
ZOMBIE_REGISTRY_ATTR = "_zombies"

_REGISTRY_ATTRS = (INFLIGHT_REGISTRY_ATTR, ZOMBIE_REGISTRY_ATTR)


def _attr_chain_contains(node: ast.AST, attr: str) -> bool:
    chain = dotted_name(node)
    return chain is not None and attr in chain.split(".")


@register_rule
class LeasePairingRule(Rule):
    """R6: every acquired shm slot lease reaches a release or a handoff."""

    name = "lease-pairing"
    description = (
        "slot leases (_free.pop) must be released (_free.extend/append in a "
        "finally) or handed to _batch_slots/_zombies; takeovers must release "
        "in a finally or hand off"
    )
    scope_prefixes = ("repro.serve.shm",)

    def check(self, ctx: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.extend(self._check_function(ctx, node))
        return out

    def _check_function(
        self, ctx: ModuleContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[Finding]:
        acquires: list[ast.Call] = []
        releases: list[ast.Call] = []
        takeovers: list[ast.Call] = []
        handoffs: list[ast.AST] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if node.func.attr == "pop" and _attr_chain_contains(owner, FREE_STACK_ATTR):
                    acquires.append(node)
                elif node.func.attr in ("extend", "append") and _attr_chain_contains(
                    owner, FREE_STACK_ATTR
                ):
                    releases.append(node)
                elif node.func.attr == "pop" and any(
                    _attr_chain_contains(owner, attr) for attr in _REGISTRY_ATTRS
                ):
                    takeovers.append(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and any(
                        _attr_chain_contains(target.value, attr)
                        for attr in _REGISTRY_ATTRS
                    ):
                        handoffs.append(node)

        out: list[Finding] = []
        if acquires and not releases and not handoffs:
            out.append(ctx.finding(
                acquires[0], self.name,
                f"'{fn.name}' pops a slot lease but neither releases it nor "
                f"records it in {INFLIGHT_REGISTRY_ATTR}/"
                f"{ZOMBIE_REGISTRY_ATTR}; the slot leaks",
            ))
        if acquires or takeovers:
            outside = [r for r in releases if not in_finally_block(r)]
            if outside:
                out.append(ctx.finding(
                    outside[0], self.name,
                    f"'{fn.name}' releases slot leases outside any finally "
                    "block; an exception on the way leaks every leased slot",
                ))
        if takeovers and not releases and not handoffs:
            out.append(ctx.finding(
                takeovers[0], self.name,
                f"'{fn.name}' takes over leases from a lease registry but "
                "neither releases them nor hands them to the other registry",
            ))
        return out
