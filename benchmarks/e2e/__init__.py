"""The end-to-end benchmark: four named workloads, measured from outside.

``run.py`` measures one workload in one process (the ``BENCHMARK.json``
command); ``python -m benchmarks.e2e`` runs all of them in fresh child
processes and writes ``results/e2e.json``.  See ``README.md``.
"""

#: Version of the ``e2e.json`` / trace-file layout; ``--compare`` refuses
#: to compare files written under different versions.
SCHEMA_VERSION = 1
