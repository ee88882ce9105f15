"""Suppression semantics: silence, prose, unused-reporting, select scoping."""

import textwrap

from repro.lint import UNUSED_RULE, lint_source

VIOLATION = """
import numpy as np

def deposit(grid: np.ndarray, idx: np.ndarray, w: np.ndarray) -> None:
    np.add.at(grid, idx, w){comment}
"""


def _lint(source, select=None):
    return lint_source(
        textwrap.dedent(source), module="repro.sph.density", select=select
    )


def test_suppression_silences_named_rule():
    assert _lint(VIOLATION.format(comment="  # repro-lint: disable=hotpath-hygiene")) == []


def test_suppression_with_prose_reason():
    src = VIOLATION.format(
        comment="  # repro-lint: disable=hotpath-hygiene -- seed-idiom on purpose"
    )
    assert _lint(src) == []


def test_suppression_all_silences_everything():
    assert _lint(VIOLATION.format(comment="  # repro-lint: disable=all")) == []


def test_suppression_on_wrong_line_does_not_silence():
    src = """
    import numpy as np
    # repro-lint: disable=hotpath-hygiene

    def deposit(grid: np.ndarray, idx: np.ndarray, w: np.ndarray) -> None:
        np.add.at(grid, idx, w)
    """
    rules = {f.rule for f in _lint(src)}
    assert "hotpath-hygiene" in rules
    assert UNUSED_RULE in rules  # and the stray comment is itself reported


def test_unused_suppression_reported():
    src = """
    import numpy as np

    def deposit(idx: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
        return np.bincount(idx, weights=w, minlength=size)  # repro-lint: disable=hotpath-hygiene
    """
    findings = _lint(src)
    assert [f.rule for f in findings] == [UNUSED_RULE]
    assert "silences nothing" in findings[0].message


def test_unused_suppression_not_reported_for_unselected_rule():
    src = """
    import numpy as np

    def deposit(idx: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
        return np.bincount(idx, weights=w, minlength=size)  # repro-lint: disable=hotpath-hygiene
    """
    # Under --select determinism the hotpath rule never ran; the suppression
    # had no chance to match and must not be called stale.
    assert _lint(src, select=["determinism"]) == []


def test_docstring_mention_is_not_a_suppression():
    src = '''
    import numpy as np

    def deposit(idx: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
        """Silence the checker with ``# repro-lint: disable=hotpath-hygiene``."""
        return np.bincount(idx, weights=w, minlength=size)
    '''
    assert _lint(src) == []
