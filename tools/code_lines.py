"""Count code lines: lines that hold a token outside comments and docstrings.

In a ``.py`` file blank lines, comment-only lines and the lines of module,
class and function docstrings do not count; every line a multi-line
expression or string spans does.  In a ``.c`` file a line counts when it
holds a token outside ``/* */`` and ``//`` comments (a string or character
literal is a token, comment markers inside it are not comments).  Prints the
``.py`` and ``.c`` totals of each path and both counts of each package (each
directory holding such files) below it.  It reports and never fails on a
size.

    python tools/code_lines.py [PATH ...]      # default: src
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from collections import Counter
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
#: One C token or comment: a comment, a string or character literal, or any
#: other non-blank character (comments first, so their markers are theirs).
_C_TOKEN = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\])*\"|'(?:\\.|[^'\\])*'|\S", re.DOTALL
)


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


def c_code_lines(path: Path) -> int:
    """Code lines of one C source file."""
    src = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    line, at = 1, 0
    for tok in _C_TOKEN.finditer(src):
        line += src.count("\n", at, tok.start())
        at = tok.start()
        if not tok.group().startswith(("//", "/*")):
            lines.update(range(line, line + tok.group().count("\n") + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    for root in map(Path, argv or ["src"]):
        per_package: dict[str, Counter[str]] = {".py": Counter(), ".c": Counter()}
        for suffix, count in ((".py", code_lines), (".c", c_code_lines)):
            for path in sorted(root.rglob(f"*{suffix}")):
                per_package[suffix][path.parent.relative_to(root).as_posix()] += count(path)
        py, c = per_package[".py"], per_package[".c"]
        print(f"{root.as_posix()}: {sum(py.values()):,} code lines in .py, "
              f"{sum(c.values()):,} in .c")
        print(f"  {'package':<24} {'.py':>6} {'.c':>6}")
        for package in sorted(py.keys() | c.keys()):
            print(f"  {package:<24} {py[package]:>6,} {c[package]:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
