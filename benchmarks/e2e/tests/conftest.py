"""Make ``repro`` and ``benchmarks.e2e`` importable from a bare
``python -m pytest benchmarks/e2e/tests`` (the package is not installed)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
