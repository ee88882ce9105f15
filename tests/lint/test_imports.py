"""CPU-only environments import the whole tree: no module needs an optional
toolchain to import.

The subprocess makes ``numba`` unimportable (``sys.modules["numba"] =
None``) and imports every ``repro`` module but the ``__main__`` entry
points, so the check holds also where numba is installed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

IMPORT_ALL = """
import importlib, pkgutil, sys
sys.modules["numba"] = None
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
         if not m.name.endswith(".__main__")]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_without_numba():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) > 50
