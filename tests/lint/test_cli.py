"""CLI contract (exit codes, JSON shape) and the tree-is-clean gate."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint import lint_paths, module_name_for, registered_rules

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


def test_cli_json_output_shape(tmp_path):
    proc = _run(str(_fixture(tmp_path, VIOLATING)), "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert isinstance(payload, list) and len(payload) == 1
    entry = payload[0]
    assert entry["rule"] == "hotpath-hygiene"
    assert entry["line"] == 5
    assert set(entry) == {"rule", "path", "line", "col", "message"}


def test_cli_select_unknown_rule_is_usage_error(tmp_path):
    proc = _run(str(_fixture(tmp_path, CLEAN)), "--select", "no-such-rule")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


def test_cli_list_rules_names_the_catalog():
    proc = _run("--list-rules")
    assert proc.returncode == 0
    for name in registered_rules():
        assert name in proc.stdout
    assert len(registered_rules()) == 7


def test_module_name_for_anchors_at_repro():
    assert module_name_for(Path("src/repro/serve/shm.py")) == "repro.serve.shm"
    assert module_name_for(Path("src/repro/lint/__init__.py")) == "repro.lint"
    assert module_name_for(Path("scratch/foo.py")) == "foo"


def test_parse_error_is_reported_not_raised(tmp_path):
    f = _fixture(tmp_path, "def broken(:\n")
    findings = lint_paths([str(f)])
    assert [x.rule for x in findings] == ["parse-error"]
