"""Import rules: optional-dependency gating and backend purity.

``import-gating`` (R3): CPU-only CI and bare user environments must import
every module of the tree — the CI leg with numba is *additive*, never required.
Optional toolchains (numba today; cupy/triton when the GPU backend of
ROADMAP.md lands) may therefore only be imported inside try/except
ImportError scopes, and only in the modules whose whole job is wrapping
them: ``repro.accel.backends.*`` and ``repro.pikg.codegen``.  Anywhere else
even a gated import is flagged — optional-dep handling concentrated in the
backend seam is what keeps the other 90 modules trivially importable.

``backend-purity`` (R4): a compute backend is a leaf.  It may import the
contract (``base``), the numeric/toolchain world, and the kernel-parameter
modules — but not its sibling backends and never the orchestration layers
(``repro.core``, ``repro.serve``).  Sibling imports couple availability
(the GPU backend must not die because numba is missing); orchestration
imports invert the dependency arrow the registry exists to enforce.  The
one sanctioned exception — inheriting the ``numpy`` reference backend as
the always-available fallback implementation — is suppressed inline where
it happens, with the reason on the line.  The orchestration half is one row
of :data:`FORBIDDEN_IMPORTS`, the table of layering contracts this rule
enforces.  Another row keeps ``repro.fdps`` (the framework layer the step
host in ``repro.core`` drives) from importing ``repro.core``: one upward
import there forces lazy re-exports on every package above it.
"""

from __future__ import annotations

import ast

from repro.lint.base import ModuleContext, Rule, in_import_guard
from repro.lint.findings import Finding
from repro.lint.registry import register_rule

#: Toolchains the container may lack; gate or stay out.
OPTIONAL_DEPS = ("numba", "cupy", "triton")

#: Modules allowed to (gated-)import optional toolchains.
GATED_IMPORT_MODULES = ("repro.accel.backends", "repro.pikg.codegen")

BACKEND_PACKAGE = "repro.accel.backends"
#: Importing package -> packages it must never import (layers above it).
FORBIDDEN_IMPORTS = {
    BACKEND_PACKAGE: ("repro.core", "repro.serve"),
    "repro.fdps": ("repro.core",),
}


def _under(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def _imported_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.module and node.level == 0:
        return [node.module]
    return []


@register_rule
class ImportGatingRule(Rule):
    """R3: optional deps only behind try/except, only in the backend seam."""

    name = "import-gating"
    description = (
        "numba/cupy/triton imports must sit in try/except ImportError inside "
        "repro.accel.backends.* or repro.pikg.codegen only"
    )
    scope_prefixes = ("repro",)

    def check(self, ctx: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        allowed_here = any(_under(ctx.module, p) for p in GATED_IMPORT_MODULES)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in _imported_modules(node):
                root = target.split(".")[0]
                if root not in OPTIONAL_DEPS:
                    continue
                if not allowed_here:
                    out.append(ctx.finding(
                        node, self.name,
                        f"optional dependency '{root}' imported outside the "
                        "backend seam; route it through repro.accel.backends",
                    ))
                elif not in_import_guard(node):
                    out.append(ctx.finding(
                        node, self.name,
                        f"optional dependency '{root}' imported without a "
                        "try/except ImportError gate; bare environments must "
                        "still import this module",
                    ))
        return out


@register_rule
class BackendPurityRule(Rule):
    """R4: no sibling-backend imports, no imports of a layer above."""

    name = "backend-purity"
    description = (
        "a backend module must not import sibling backends (base excepted); "
        "no module imports a layer above it (backends -/-> repro.core, "
        "repro.serve; repro.fdps -/-> repro.core)"
    )
    scope_prefixes = tuple(FORBIDDEN_IMPORTS)

    def applies_to(self, module: str) -> bool:
        # Of the backend package, submodules only: its __init__ is the
        # registry and has to import every backend to register it.
        if _under(module, BACKEND_PACKAGE):
            return module not in (BACKEND_PACKAGE, BACKEND_PACKAGE + ".base")
        return super().applies_to(module)

    def check(self, ctx: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        forbidden = next(
            above for pkg, above in FORBIDDEN_IMPORTS.items() if _under(ctx.module, pkg)
        )
        is_backend = _under(ctx.module, BACKEND_PACKAGE)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in _imported_modules(node):
                if is_backend and target.startswith(BACKEND_PACKAGE + "."):
                    sibling = target[len(BACKEND_PACKAGE) + 1:].split(".")[0]
                    if sibling != "base" and f"{BACKEND_PACKAGE}.{sibling}" != ctx.module:
                        out.append(ctx.finding(
                            node, self.name,
                            f"backend imports sibling backend '{sibling}'; "
                            "backends must stay independently loadable",
                        ))
                elif any(_under(target, p) for p in forbidden):
                    out.append(ctx.finding(
                        node, self.name,
                        f"imports '{target}', a layer above this module; "
                        "the dependency arrow points the other way",
                    ))
        return out
