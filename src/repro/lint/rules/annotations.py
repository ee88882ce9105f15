"""``strict-annotations``: the strictly typed modules annotate every def.

``pyproject.toml`` lists the modules mypy checks with
``disallow_untyped_defs`` (the strict ``[[tool.mypy.overrides]]``): the
wire format, the serve layer, the backend ABC, the spatial layer, the
gravity helper and the force engine, among others.  mypy is not installed
everywhere the tier-1 loop runs, so this rule enforces the part of that
contract an AST can see: in those modules every ``def`` — methods, nested
functions and generators included — annotates each parameter (``*args``
and ``**kwargs`` too; a method's ``self``/``cls`` excepted) and its return.
The module list is read from ``pyproject.toml``, the one place it is kept.
"""

from __future__ import annotations

import ast
import functools
import sys
from pathlib import Path

from repro.lint.base import ModuleContext, Rule
from repro.lint.findings import Finding
from repro.lint.registry import register_rule

if sys.version_info >= (3, 11):
    import tomllib

#: The repository's ``pyproject.toml`` (``src/repro/lint/rules/`` -> root).
PYPROJECT = Path(__file__).resolve().parents[4] / "pyproject.toml"


@functools.cache
def strict_modules(pyproject: Path = PYPROJECT) -> frozenset[str]:
    """The modules of every mypy override with ``disallow_untyped_defs``."""
    if sys.version_info < (3, 11) or not pyproject.is_file():
        return frozenset()        # Python 3.10 has no TOML parser: no module list
    with pyproject.open("rb") as fh:
        overrides = tomllib.load(fh).get("tool", {}).get("mypy", {}).get("overrides", [])
    return frozenset(
        module
        for row in overrides if row.get("disallow_untyped_defs")
        for module in ([row["module"]] if isinstance(row["module"], str) else row["module"])
    )


def _unannotated(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = node.args
    params = [*args.posonlyargs, *args.args]
    in_class = isinstance(getattr(node, "parent", None), ast.ClassDef)
    if in_class and params and params[0].arg in ("self", "cls"):
        params = params[1:]
    params += args.kwonlyargs
    missing = [a.arg for a in params if a.annotation is None]
    missing += [f"*{a.arg}" for a in (args.vararg,) if a is not None and a.annotation is None]
    missing += [f"**{a.arg}" for a in (args.kwarg,) if a is not None and a.annotation is None]
    if node.returns is None:
        missing.append("return")
    return missing


@register_rule
class StrictAnnotationsRule(Rule):
    name = "strict-annotations"
    description = (
        "every def in a module of the strict mypy override in pyproject.toml "
        "annotates each parameter and its return"
    )

    def applies_to(self, module: str) -> bool:
        return module in strict_modules()

    def check(self, ctx: ModuleContext) -> list[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                missing = _unannotated(node)
                if missing:
                    findings.append(ctx.finding(
                        node, self.name,
                        f"{node.name}() is in a strictly typed module but does not "
                        f"annotate {', '.join(missing)}",
                    ))
        return findings
