"""Shared-block pairing: a batch's block is unlinked on success *and*
exception edges.

The worker transport gives every dispatched batch its own shared-memory
block (a :class:`~repro.util.shm.SharedMemoryRing`): ``dispatch`` creates
it and stores it in the in-flight map ``_blocks``; the done row, a worker
death, an expiry or close pops it and unlinks it.  A block that is never
unlinked is not a crash — it is a segment that outlives the run in
``/dev/shm`` and the memory behind it, one batch at a time.

The rule is an intraprocedural walk over each function in
``repro.serve.shm``:

* a function that maps a block (``SharedMemoryRing(...)`` — the dispatch
  creating one, or a worker attaching one) must close it or store it in
  the in-flight map (assign into ``<x>._blocks[...]``);
* a function that takes a block out of that map (``<x>._blocks.pop(...)``)
  must close it;
* in either, *every* close of such a block must sit on a ``finally`` edge,
  so the exception path unlinks too — a guarded close must not vouch for
  another.

The ``try/finally`` requirement is the CFG bit: a close reached only on
the fall-through edge misses every raising path through the function.
"""

from __future__ import annotations

import ast

from repro.lint.base import ModuleContext, Rule, dotted_name, in_finally_block
from repro.lint.findings import Finding
from repro.lint.registry import register_rule

#: Names that define the block protocol in repro.serve.shm.
BLOCK_CLASS = "SharedMemoryRing"
INFLIGHT_MAP_ATTR = "_blocks"


def _attr_chain_contains(node: ast.AST, attr: str) -> bool:
    chain = dotted_name(node)
    return chain is not None and attr in chain.split(".")


def _maps_block(node: ast.AST) -> bool:
    chain = dotted_name(node.func) if isinstance(node, ast.Call) else None
    return chain is not None and chain.split(".")[-1] == BLOCK_CLASS


def _takes_block(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "pop"
        and _attr_chain_contains(node.func.value, INFLIGHT_MAP_ATTR)
    )


@register_rule
class LeasePairingRule(Rule):
    """R6: every shared block a function maps or takes over is unlinked on a
    ``finally`` edge or held in the in-flight map."""

    name = "lease-pairing"
    description = (
        "a shared block (SharedMemoryRing(...) or _blocks.pop) must be closed "
        "in a finally or stored in _blocks"
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
        takeovers: list[ast.Call] = []
        handoffs: list[ast.Assign] = []
        blocks: set[str] = set()        # local names bound to a block
        for node in ast.walk(fn):
            if _maps_block(node):
                acquires.append(node)
            elif _takes_block(node):
                takeovers.append(node)
            elif isinstance(node, ast.Assign):
                if _maps_block(node.value) or _takes_block(node.value):
                    blocks.update(t.id for t in node.targets if isinstance(t, ast.Name))
                if any(
                    isinstance(t, ast.Subscript)
                    and _attr_chain_contains(t.value, INFLIGHT_MAP_ATTR)
                    for t in node.targets
                ):
                    handoffs.append(node)
        closes = [
            node for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "close"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in blocks
        ]

        out: list[Finding] = []
        if acquires and not closes and not handoffs:
            out.append(ctx.finding(
                acquires[0], self.name,
                f"'{fn.name}' maps a shared block but neither closes it nor "
                f"stores it in {INFLIGHT_MAP_ATTR}; the segment leaks",
            ))
        outside = [c for c in closes if not in_finally_block(c)]
        if outside:
            out.append(ctx.finding(
                outside[0], self.name,
                f"'{fn.name}' closes a shared block outside any finally "
                "block; an exception on the way leaks the segment",
            ))
        if takeovers and not closes:
            out.append(ctx.finding(
                takeovers[0], self.name,
                f"'{fn.name}' takes a block out of {INFLIGHT_MAP_ATTR} but "
                "never closes it; the segment leaks",
            ))
        return out
