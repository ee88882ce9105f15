"""CLI contract (exit codes, text findings) and the tree-is-clean gate."""

import os
import subprocess
import sys
from pathlib import Path

from repro.lint import lint_paths, module_name_for

REPO = Path(__file__).resolve().parents[2]

VIOLATING = """import numpy as np


def deposit(grid: np.ndarray, idx: np.ndarray, w: np.ndarray) -> None:
    np.add.at(grid, idx, w)
"""

CLEAN = """import numpy as np


def deposit(idx: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
    return np.bincount(idx, weights=w, minlength=size)
"""


def _run(*args, cwd=REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


def _fixture(tmp_path, source):
    # Path it under a repro/ dir so module_name_for maps into rule scope.
    pkg = tmp_path / "repro" / "sph"
    pkg.mkdir(parents=True)
    f = pkg / "density.py"
    f.write_text(source)
    return f


def test_real_tree_is_clean():
    """The repo's own src/ holds every invariant (the CI gate)."""
    findings = lint_paths([str(REPO / "src")])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_exit_zero_on_clean_file(tmp_path):
    proc = _run(str(_fixture(tmp_path, CLEAN)))
    assert proc.returncode == 0
    assert "clean" in proc.stdout


def test_cli_exit_one_and_text_findings_on_violation(tmp_path):
    proc = _run(str(_fixture(tmp_path, VIOLATING)))
    assert proc.returncode == 1
    assert "hotpath-hygiene" in proc.stdout
    assert "density.py:5:" in proc.stdout


def test_cli_path_that_checks_nothing_is_usage_error(tmp_path):
    # A missing path, a directory without a .py file, and a would-be option
    # (the CLI has none) must not read as a clean tree.
    (tmp_path / "notes.txt").write_text("x = 1\n")
    for arg in (str(tmp_path / "no_such_dir"), str(tmp_path), "--list-rules"):
        proc = _run(arg)
        assert proc.returncode == 2, arg
        assert "clean" not in proc.stdout
        assert "usage" in proc.stderr
    # Also with a good path beside it: every path given must check something.
    proc = _run(str(_fixture(tmp_path, CLEAN)), str(tmp_path / "no_such_dir"))
    assert proc.returncode == 2


def test_module_name_for_anchors_at_repro():
    assert module_name_for(Path("src/repro/serve/shm.py")) == "repro.serve.shm"
    assert module_name_for(Path("src/repro/lint/__init__.py")) == "repro.lint"
    assert module_name_for(Path("scratch/foo.py")) == "foo"


def test_parse_error_is_reported_not_raised(tmp_path):
    f = _fixture(tmp_path, "def broken(:\n")
    findings = lint_paths([str(f)])
    assert [x.rule for x in findings] == ["parse-error"]
