"""Hot-path hygiene: no slow scatter/loop idioms in kernel-owning modules.

PR 3 replaced every ``np.add.at`` in the force pipeline with single-pass
``np.bincount`` reductions (same accumulation order, bit-identical, ~10x
faster — ``benchmarks/bench_backend_kernels.py``) and moved per-particle
scalar loops behind the ``repro.accel.backends`` registry where numba can
JIT them.  This rule keeps those idioms from leaking back into the
vectorized kernel-owning modules: ``np.add.at`` is a buffered per-element
scatter with no fast path, and a Python ``for`` over ``range(len(arr))`` /
``range(arr.shape[0])`` is a per-particle loop the interpreter executes.

``repro.accel.backends`` is in scope too: its two backends are vectorized
(``numpy``) or generated from the PIKG DSL (``pikg``, whose loop nests live
in :mod:`repro.pikg.codegen`), so neither idiom belongs there.
"""

from __future__ import annotations

import ast

from repro.lint.base import ModuleContext, Rule, dotted_name
from repro.lint.findings import Finding
from repro.lint.registry import register_rule

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


@register_rule
class HotPathRule(Rule):
    """R5: no np.add.at / per-particle Python loops in kernel modules."""

    name = "hotpath-hygiene"
    description = (
        "kernel-owning modules use bincount-style reductions, not np.add.at "
        "or per-particle range(len(...)) loops"
    )
    scope_prefixes = KERNEL_MODULES

    def check(self, ctx: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                chain = dotted_name(node.func)
                if chain is None:
                    continue
                resolved = ctx.resolve(chain)
                if resolved == "numpy.add.at":
                    out.append(ctx.finding(
                        node, self.name,
                        "np.add.at is a buffered per-element scatter; use a "
                        "np.bincount reduction (same accumulation order, "
                        "bit-identical)",
                    ))
            elif isinstance(node, ast.For):
                if self._per_element_range(node.iter):
                    out.append(ctx.finding(
                        node, self.name,
                        "per-particle Python loop (for ... in range(len/shape)); "
                        "vectorize it or generate it from the PIKG DSL",
                    ))
        return out

    @staticmethod
    def _per_element_range(iter_node: ast.AST) -> bool:
        if not (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id == "range"
            and len(iter_node.args) == 1
        ):
            return False
        arg = iter_node.args[0]
        if (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Name)
            and arg.func.id == "len"
        ):
            return True
        # arr.shape[0]
        return (
            isinstance(arg, ast.Subscript)
            and isinstance(arg.value, ast.Attribute)
            and arg.value.attr == "shape"
        )
