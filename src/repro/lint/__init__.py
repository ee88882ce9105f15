"""repro.lint — AST checks for this repo's contract invariants.

The codebase's headline guarantees are *cross-cutting*: bit-identical
physics across compute backends, transports, batch compositions and worker
counts, and a layering in which the compute layers never reach up into the
step host or the serve layer.  Runtime tests catch violations only when the
right configuration happens to run — a global RNG call surfaces as a
*flaky* parity failure weeks later.  These checks hold the line at lint
time instead: ``python -m repro.lint src`` runs in CI next to ruff and
fails on the whole violation class, deterministically.

An invariant the code or a test can hold is held there, not here:

* the serve wire headers are one table of slot names per message
  (:mod:`repro.serve.wire`), each shared block has one owner closed by a
  ``with`` (:mod:`repro.serve.shm`), and every
  :class:`~repro.fdps.comm.SimComm` ledger call names its row (``label`` is
  a required keyword);
* the strict modules' annotations are CI's mypy step
  (``disallow_untyped_defs`` in ``pyproject.toml``);
* optional toolchains never block an import: ``tests/lint/test_imports.py``
  imports every ``repro`` module with ``numba`` made unimportable;
* a tracer span records only between ``__enter__`` and ``__exit__``, which
  ``with`` pairs, and an unopened handle touches no tracer state
  (``tests/obs/test_trace.py::test_spans_nest_with_depth``).

The rules (:data:`repro.lint.rules.RULES`)
------------------------------------------

``determinism`` (all of ``repro``)
    No ``np.random`` module-state calls, stdlib ``random``, or absolute
    clocks (``time.time``, ``datetime.now``).  Every draw flows from a
    seeded ``np.random.Generator`` or :func:`repro.serve.wire.event_rng`;
    wall-clock metrics and trace timestamps use ``perf_counter`` /
    ``monotonic``.  Motivated by the cross-backend / cross-transport parity
    suites — the paper's surrogate-coupling correctness claim.

``rng-plumbing`` (all of ``repro``)
    Public functions that build a generator take the seed from their
    caller — an ``rng``/``seed``-like parameter or a seed-carrying
    attribute of ``self`` — so the parity suites can pin every draw.

``silent-except`` (all of ``repro``)
    No bare ``except`` / ``except Exception`` / ``BaseException`` handler
    may swallow the failure without a trace: it must re-raise, log, or use
    the bound exception (e.g. ship it back over a pipe).  Narrow tuples
    pass.  An invisible swallow is a fault the ``ServiceMetrics`` counters
    and the chaos suite can never pin.

``layering`` (the importing rows of ``FORBIDDEN_IMPORTS``)
    ``repro.accel``/``gravity``/``sph``/``fdps`` import neither
    ``repro.core`` nor ``repro.serve``, and ``repro.util`` imports neither
    ``repro.serve`` nor ``repro.accel`` — at module level or lazily.  One
    upward import forces lazy re-exports on every package above it.

``hotpath-hygiene`` (``KERNEL_MODULES``)
    No ``np.add.at`` or per-particle ``range(len(...))`` Python loops in
    kernel-owning modules: bincount reductions are order-identical and
    ~10x faster.

Running
-------

``python -m repro.lint [paths...]`` (default ``src``) prints one
``path:line:col: rule: message`` line per finding and exits 0 when clean,
1 on findings, and 2 when a path does not exist or holds no ``.py`` file.
``tools/static_analysis.sh`` bundles it with ruff and mypy.  A rule is a
function ``check(ctx)`` yielding ``(node, message)`` pairs, listed in
:data:`~repro.lint.rules.RULES` with its name and scope.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Finding", "ModuleContext", "dotted_name", "lint_paths", "lint_source",
    "module_name_for", "under",
]


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


def under(module: str, package: str) -> bool:
    """True when ``module`` is ``package`` or lies inside it."""
    return module == package or module.startswith(package + ".")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass
class ModuleContext:
    """One parsed module: its dotted name (for scoping) and import aliases."""

    module: str               # dotted name, e.g. "repro.serve.shm"
    tree: ast.Module = field(repr=False)
    #: alias -> imported dotted module/object, e.g. {"np": "numpy",
    #: "default_rng": "numpy.random.default_rng"}.
    imports: dict[str, str] = field(default_factory=dict, repr=False)

    @classmethod
    def parse(cls, source: str, module: str) -> ModuleContext:
        tree = ast.parse(source)
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
        return cls(module=module, tree=tree, imports=imports)

    def resolve(self, node: ast.AST) -> str | None:
        """The dotted name ``node`` refers to, its first segment expanded
        through the import aliases: ``np.random.seed`` -> ``numpy.random.seed``
        under ``import numpy as np``.  None for a dynamic expression or a
        chain rooted in a local variable."""
        chain = dotted_name(node)
        if chain is None:
            return None
        root, _, rest = chain.partition(".")
        target = self.imports.get(root)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target


def module_name_for(path: Path) -> str:
    """Dotted module name for a source file.

    ``.../src/repro/serve/shm.py`` -> ``repro.serve.shm``; a path with no
    ``repro`` package root falls back to the stem.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        return ".".join(parts[parts.index("repro"):])
    return parts[-1] if parts else ""


def lint_source(source: str, module: str, path: str = "<string>") -> list[Finding]:
    """Run every rule whose scope holds ``module`` over one module's source."""
    from repro.lint.rules import RULES

    ctx = ModuleContext.parse(source, module)
    findings = [
        Finding(name, path, getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1, message)
        for name, scope, check in RULES
        if any(under(module, prefix) for prefix in scope)
        for node, message in check(ctx)
    ]
    return sorted(findings, key=lambda f: (f.line, f.col, f.rule))


def lint_paths(paths: list[str]) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``.

    Raises :class:`FileNotFoundError` when a path does not exist or holds
    no ``.py`` file: a path that checks nothing must not read as clean.
    """
    files: list[Path] = []
    for p in paths:
        path = Path(p)
        found = sorted(path.rglob("*.py")) if path.is_dir() else (
            [path] if path.suffix == ".py" and path.is_file() else [])
        if not found:
            raise FileNotFoundError(
                f"{p}: no such file or directory" if not path.exists()
                else f"{p}: holds no .py file")
        files.extend(found)
    cwd = Path(os.getcwd())
    findings: list[Finding] = []
    for file in files:
        display = str(file.relative_to(cwd)) if file.is_relative_to(cwd) else str(file)
        try:
            findings.extend(lint_source(file.read_text(), module_name_for(file), display))
        except SyntaxError as exc:
            findings.append(Finding("parse-error", display, exc.lineno or 1,
                                    (exc.offset or 0) + 1, f"could not parse: {exc.msg}"))
    return findings
