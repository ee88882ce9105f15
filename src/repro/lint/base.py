"""Rule base class and the per-module analysis context.

A rule is an AST pass over one module.  The :class:`ModuleContext` hands it
everything repo rules keep needing: the parsed tree with parent links, the
dotted module name (scoping), the raw source lines (suppression comments
live there), and an import-alias map so a rule can ask "does ``np.random``
here really mean :mod:`numpy.random`?" instead of string-matching local
variable names.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.findings import Finding


def attach_parents(tree: ast.AST) -> None:
    """Give every node a ``.parent`` link (None at the module root)."""
    tree.parent = None  # type: ignore[attr-defined]
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, None for anything dynamic."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def enclosing_function(node: ast.AST) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    """Nearest enclosing def (via parent links), None at module scope."""
    cur = getattr(node, "parent", None)
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return cur
        cur = getattr(cur, "parent", None)
    return None


def in_import_guard(node: ast.AST) -> bool:
    """True when ``node`` sits in a try body whose handlers catch ImportError."""
    cur, parent = node, getattr(node, "parent", None)
    guard_names = {"ImportError", "ModuleNotFoundError", "Exception"}
    while parent is not None:
        if isinstance(parent, ast.Try) and any(
            cur is stmt or _contains(stmt, cur) for stmt in parent.body
        ):
            for handler in parent.handlers:
                for name in _handler_type_names(handler):
                    if name in guard_names:
                        return True
        cur, parent = parent, getattr(parent, "parent", None)
    return False


def _handler_type_names(handler: ast.ExceptHandler) -> list[str]:
    t = handler.type
    if t is None:
        return ["Exception"]  # bare except catches ImportError too
    types = t.elts if isinstance(t, ast.Tuple) else [t]
    out = []
    for node in types:
        name = dotted_name(node)
        if name:
            out.append(name.split(".")[-1])
    return out


def _contains(root: ast.AST, target: ast.AST) -> bool:
    return any(n is target for n in ast.walk(root))


@dataclass
class ModuleContext:
    """Everything rules need to analyze one module."""

    path: str                 # display path (relative where possible)
    module: str               # dotted name, e.g. "repro.serve.shm"
    source: str
    tree: ast.Module = field(repr=False)
    #: alias -> imported dotted module/object, e.g. {"np": "numpy",
    #: "default_rng": "numpy.random.default_rng"}.
    imports: dict[str, str] = field(default_factory=dict, repr=False)

    @classmethod
    def parse(cls, path: str, module: str, source: str) -> "ModuleContext":
        tree = ast.parse(source)
        attach_parents(tree)
        imports: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return cls(path=path, module=module, source=source, tree=tree, imports=imports)

    def resolve(self, chain: str) -> str:
        """Expand the first segment of ``chain`` through the import aliases.

        ``np.random.seed`` -> ``numpy.random.seed`` under ``import numpy as
        np``; an unimported root returns the chain unchanged with a leading
        ``local:`` marker so callers never confuse a variable for a module.
        """
        root, _, rest = chain.partition(".")
        target = self.imports.get(root)
        if target is None:
            return f"local:{chain}"
        return f"{target}.{rest}" if rest else target

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class Rule:
    """Base class: subclasses set ``name``/``description`` and ``check``.

    ``scope_prefixes`` restricts a rule to modules whose dotted name equals
    or starts with one of the prefixes; empty means every module.  Rules are
    stateless — one instance serves the whole run (mirroring the
    :mod:`repro.accel.backends` singleton convention).
    """

    name: str = "abstract"
    description: str = ""
    #: Module-name prefixes this rule applies to ("" matches everything).
    scope_prefixes: tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        if not self.scope_prefixes:
            return True
        return any(
            module == p or module.startswith(p + ".") for p in self.scope_prefixes
        )

    def check(self, ctx: ModuleContext) -> list[Finding]:
        raise NotImplementedError
