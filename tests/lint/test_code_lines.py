"""``tools/code_lines.py``: what counts as a code line in ``.py`` and ``.c``
sources, and the per-package report of both."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "code_lines.py"

PY = '''"""Module docstring:
two lines."""

# a comment
x = (1,
     2)


def f():
    """Docstring."""
    return "not # a comment"
'''

C = r'''/* A block comment
 * over three lines. */
#include <math.h>

// a line comment
static const char *s = "/* not a comment */";
int f(int a) /* trailing */ {
    /* inner */
    return a + '/';   // a character literal
}
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_py_and_c_lines_are_counted_per_package(tmp_path, capsys):
    tool = _tool()
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(PY)
    (pkg / "loops.c").write_text(C)
    # x = (1, / 2), def f(), return: the docstrings and the comment do not count.
    assert tool.code_lines(pkg / "mod.py") == 4
    # #include, the string line, int f, return, the closing brace.
    assert tool.c_code_lines(pkg / "loops.c") == 5
    assert tool.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{tmp_path.as_posix()}: 4 code lines in .py, 5 in .c"
    assert out[2].split() == ["pkg", "4", "5"]
