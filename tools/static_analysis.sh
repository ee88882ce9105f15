#!/usr/bin/env bash
# Static-analysis entry point — the same three gates the CI static-analysis
# job runs, for local pre-commit use:
#
#   1. ruff        style + bugbear/numpy/ruff correctness rules (pyproject)
#   2. repro.lint  repo-invariant checker (determinism, ledger labels,
#                  import gating, backend purity, hot-path hygiene, shm
#                  lease pairing, wire symmetry, rng plumbing,
#                  silent-except); see the repro.lint package docstring
#                  for the rule catalog
#   3. mypy        strictly-typed subset (serve.wire, serve.shm,
#                  serve.server, accel.backends.base, accel.index,
#                  sph.neighbors, sph.density, core.runner, core.pool,
#                  gravity.kernels, fdps.tree; config in pyproject)
#
# ruff/mypy are optional locally (skipped with a note when not installed);
# the invariant checker has no dependencies beyond the repo itself and
# always runs.
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
    echo "== mypy (strict: serve.wire serve.shm serve.server accel.backends.base accel.index sph.neighbors sph.density core.runner core.pool gravity.kernels fdps.tree)"
    mypy || status=1
else
    echo "== mypy: not installed, skipping (CI runs it)"
fi

exit $status
