#!/usr/bin/env bash
# Static-analysis entry point — the same three gates the CI static-analysis
# job runs, for local pre-commit use:
#
#   1. ruff        style + bugbear/numpy/ruff correctness rules (pyproject)
#   2. repro.lint  repo-invariant checker (determinism, ledger labels,
#                  import gating, backend purity, hot-path hygiene, shm
#                  lease pairing, wire symmetry, rng plumbing,
#                  silent-except, span pairing, strict-annotations); see
#                  the repro.lint package docstring for the rule catalog
#   3. mypy        strictly-typed subset: the modules of the strict
#                  [[tool.mypy.overrides]] in pyproject.toml (printed below)
#
# It then prints the code-line count of src/ (tools/code_lines.py), which
# reports and never gates.
#
# ruff/mypy are optional locally (skipped with a note when not installed);
# the invariant checker has no dependencies beyond the repo itself and
# always runs.  Its strict-annotations rule is the part of gate 3 that
# needs no mypy: every def in the strict modules annotates each parameter
# and its return, so an unannotated signature fails here too.
set -u
cd "$(dirname "$0")/.."

status=0

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff"
    ruff check src tests benchmarks examples || status=1
else
    echo "== ruff: not installed, skipping (CI runs it)"
fi

echo "== repro.lint"
PYTHONPATH=src python -m repro.lint src || status=1

if command -v mypy >/dev/null 2>&1; then
    strict=$(python -c 'import tomllib
with open("pyproject.toml", "rb") as fh:
    rows = tomllib.load(fh)["tool"]["mypy"]["overrides"]
print(" ".join(m.removeprefix("repro.") for row in rows
               if row.get("disallow_untyped_defs") for m in row["module"]))' \
        2>/dev/null || echo "see pyproject.toml")
    echo "== mypy (strict: $strict)"
    mypy || status=1
else
    echo "== mypy: not installed, skipping (CI runs it)"
fi

echo "== code lines (report only)"
python tools/code_lines.py src

exit $status
