"""Count code lines: lines that hold a token outside comments and docstrings.

Blank lines, comment-only lines and the lines of module, class and function
docstrings do not count; every line a multi-line expression or string spans
does.  Prints the total of each path and the count of each package (each
directory holding ``.py`` files) below it.  It reports and never fails on a
size.

    python tools/code_lines.py [PATH ...]      # default: src
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOC_OWNERS) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Code lines of one Python source file."""
    src = path.read_text(encoding="utf-8")
    docs = _docstring_lines(ast.parse(src))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    for root in map(Path, argv or ["src"]):
        per_package: Counter[str] = Counter()
        for path in sorted(root.rglob("*.py")):
            per_package[path.parent.relative_to(root).as_posix()] += code_lines(path)
        print(f"{root.as_posix()}: {sum(per_package.values()):,} code lines")
        for package, n in sorted(per_package.items()):
            print(f"  {package:<24} {n:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
