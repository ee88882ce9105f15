"""Fixture tests: every rule fires on a violating snippet and stays quiet
on the idiomatic version of the same code."""

import textwrap
from pathlib import Path

from repro.lint import lint_source
from repro.lint.rules import FORBIDDEN_IMPORTS, KERNEL_MODULES, RULES

SRC = Path(__file__).resolve().parents[2] / "src"


def _lint(source, module, rule):
    """The findings of ``rule`` alone on ``source`` linted as ``module``."""
    findings = lint_source(textwrap.dedent(source), module=module)
    return [f for f in findings if f.rule == rule]


def _rules(findings):
    return [f.rule for f in findings]


# ------------------------------------------------------------- determinism
def test_determinism_flags_global_rng():
    findings = _lint(
        """
        import numpy as np

        def kick(x: np.ndarray) -> np.ndarray:
            return x + np.random.normal(size=x.shape)
        """,
        module="repro.sph.density",
        rule="determinism",
    )
    assert _rules(findings) == ["determinism"]
    assert "global RNG state" in findings[0].message


def test_determinism_flags_stdlib_random_and_wall_clock():
    findings = _lint(
        """
        import random
        import time

        def jitter():
            return random.random() + time.time()
        """,
        module="repro.core.sim",
        rule="determinism",
    )
    assert len(findings) == 2


def test_determinism_allows_seeded_generator_and_perf_counter():
    findings = _lint(
        """
        import time
        import numpy as np

        def kick(x, seed):
            t0 = time.perf_counter()
            rng = np.random.default_rng(seed)
            return x + rng.normal(size=x.shape), time.perf_counter() - t0
        """,
        module="repro.sph.density",
        rule="determinism",
    )
    assert findings == []


def test_determinism_scans_all_of_repro():
    # No hand-kept module list: the gravity helper, the cut code and the
    # observables are in scope like the physics packages.
    source = """
    import numpy as np

    def noise():
        return np.random.normal()
    """
    for module in ("repro.analysis.maps", "repro.accel.gravity_helper",
                   "repro.fdps.distributed", "repro.util.rng"):
        assert _rules(_lint(source, module=module, rule="determinism")) == ["determinism"]


# ------------------------------------------------------------ rng-plumbing
def test_rng_plumbing_flags_unpinnable_generator():
    findings = _lint(
        """
        import numpy as np

        def sample(n):
            rng = np.random.default_rng()
            return rng.uniform(size=n)
        """,
        module="repro.ic.disk",
        rule="rng-plumbing",
    )
    assert _rules(findings) == ["rng-plumbing"]


def test_rng_plumbing_accepts_seed_param_self_attr_and_private():
    findings = _lint(
        """
        import numpy as np

        def sample(n, seed=0):
            return np.random.default_rng(seed).uniform(size=n)

        def _helper(n):
            return np.random.default_rng(0).uniform(size=n)

        class Sampler:
            def draw(self, n):
                return np.random.default_rng(self.seed).uniform(size=n)
        """,
        module="repro.ic.disk",
        rule="rng-plumbing",
    )
    assert findings == []


# ---------------------------------------------------------------- layering
def test_layering_flags_orchestration_imports_not_siblings():
    findings = _lint(
        """
        from repro.accel.backends.pikg_backend import PikgBackend
        from repro.core.sim import Simulation
        """,
        module="repro.accel.backends.gpu_backend",
        rule="layering",
    )
    assert _rules(findings) == ["layering"]
    assert "repro.core.sim" in findings[0].message


def test_backend_purity_accepts_base_and_kernel_params():
    findings = _lint(
        """
        from repro.accel.backends.base import KernelBackend
        from repro.sph.kernels import CubicSpline
        """,
        module="repro.accel.backends.gpu_backend",
        rule="layering",
    )
    assert findings == []


def test_backend_purity_exempts_registry_init_and_base():
    source = """
    from repro.accel.backends.numpy_backend import NumpyBackend
    """
    # The registry package __init__ must import backends to register them.
    assert _lint(source, module="repro.accel.backends", rule="layering") == []
    assert _lint(source, module="repro.accel.backends.base", rule="layering") == []


def test_forbidden_import_table_keeps_fdps_below_core():
    source = """
    from repro.core.runner import CoupledRunner

    def lazy():
        import repro.core.pool
    """
    findings = _lint(source, module="repro.fdps.distributed", rule="layering")
    assert _rules(findings) == ["layering", "layering"]
    # fdps may use the layers beside and below it, not the service;
    # core may import fdps.
    allowed = """
    from repro.util.leapfrog import leapfrog_kick
    """
    assert _lint(allowed, module="repro.fdps.io", rule="layering") == []
    serve = """
    from repro.serve import SurrogateSpec
    """
    findings = _lint(serve, module="repro.fdps.io", rule="layering")
    assert _rules(findings) == ["layering"]
    assert _lint(source, module="repro.core.simulation", rule="layering") == []


def test_forbidden_import_table_keeps_compute_below_core_and_serve():
    source = """
    from repro.serve.shm import SharedMemoryRing

    def lazy():
        import repro.core.runner
    """
    for module in ("repro.accel.gravity_helper", "repro.accel.engine",
                   "repro.gravity.treegrav", "repro.sph.density"):
        findings = _lint(source, module=module, rule="layering")
        assert _rules(findings) == ["layering", "layering"], module
    allowed = """
    from repro.util.shm import SharedMemoryRing
    from repro.fdps.tree import Octree
    from repro.obs.trace import Tracer
    """
    assert _lint(allowed, module="repro.accel.gravity_helper", rule="layering") == []
    # The layers above may import the compute layer.
    assert _lint(allowed, module="repro.serve.shm", rule="layering") == []


def test_forbidden_import_table_keeps_util_below_serve_and_accel():
    source = """
    from repro.serve.wire import WireFormatError

    def lazy():
        from repro.accel import ForceEngine
    """
    findings = _lint(source, module="repro.util.shm", rule="layering")
    assert _rules(findings) == ["layering", "layering"]
    allowed = """
    import numpy as np
    from repro.util.logging import get_logger
    """
    assert _lint(allowed, module="repro.util.shm", rule="layering") == []


# --------------------------------------------------------- hotpath-hygiene
def test_hotpath_flags_add_at_and_per_particle_loops():
    findings = _lint(
        """
        import numpy as np

        def deposit(grid, idx, w, pos):
            np.add.at(grid, idx, w)
            for i in range(len(pos)):
                grid[i] += 1
            for i in range(pos.shape[0]):
                grid[i] += 1
        """,
        module="repro.sph.density",
        rule="hotpath-hygiene",
    )
    assert _rules(findings) == ["hotpath-hygiene"] * 3


def test_hotpath_accepts_bincount_and_covers_backends():
    clean = """
    import numpy as np

    def deposit(idx, w, size):
        return np.bincount(idx, weights=w, minlength=size)
    """
    assert _lint(clean, module="repro.sph.density", rule="hotpath-hygiene") == []
    scalar = """
    import numpy as np

    def kernel(grid, idx, w, pos):
        np.add.at(grid, idx, w)
    """
    # The backends are kernel modules too: no exemption.
    assert _rules(_lint(
        scalar, module="repro.accel.backends.numpy_backend", rule="hotpath-hygiene"
    )) == ["hotpath-hygiene"]


# ------------------------------------------------------------ silent-except
def test_silent_except_flags_bare_and_broad_pass():
    findings = _lint(
        """
        def close(q):
            try:
                q.close()
            except Exception:
                pass

        def close2(q):
            try:
                q.close()
            except:
                pass
        """,
        module="repro.serve.server",
        rule="silent-except",
    )
    assert _rules(findings) == ["silent-except", "silent-except"]
    assert "swallows" in findings[0].message


def test_silent_except_accepts_narrow_tuple():
    findings = _lint(
        """
        def __del__(self):
            try:
                self.close()
            except (OSError, ValueError, AttributeError, RuntimeError):
                pass
        """,
        module="repro.serve.server",
        rule="silent-except",
    )
    assert findings == []


def test_silent_except_accepts_log_raise_and_exc_use():
    findings = _lint(
        """
        def a(fn, log):
            try:
                fn()
            except Exception:
                log.warning("fn failed")

        def b(fn):
            try:
                fn()
            except Exception:
                raise RuntimeError("fn failed")

        def c(fn, res_q, wid, bid):
            try:
                fn()
            except Exception as exc:
                res_q.put(("done", wid, bid, exc, 0.0))
        """,
        module="repro.serve.server",
        rule="silent-except",
    )
    assert findings == []


def test_silent_except_flags_unused_bound_exception():
    findings = _lint(
        """
        def a(fn):
            try:
                fn()
            except Exception as exc:
                pass
        """,
        module="repro.core.sim",
        rule="silent-except",
    )
    assert _rules(findings) == ["silent-except"]


def test_determinism_covers_obs_clocks():
    # repro.obs rides the determinism scope: absolute clocks are banned
    # there so traces from two runs stay comparable.
    findings = _lint(
        """
        import time

        def stamp():
            return time.time()
        """,
        module="repro.obs.trace",
        rule="determinism",
    )
    assert _rules(findings) == ["determinism"]


# ------------------------------------------------------------------ scopes
def test_every_scope_prefix_names_a_module():
    """A renamed package must not quietly empty a rule's scope or a
    layering row: every prefix names a module or package under src/repro."""
    prefixes = {p for _, scope, _ in RULES for p in scope}
    prefixes |= {p for row in FORBIDDEN_IMPORTS.values() for p in row}
    assert set(KERNEL_MODULES) <= prefixes
    for prefix in sorted(prefixes):
        path = SRC.joinpath(*prefix.split("."))
        assert path.with_suffix(".py").is_file() or (path / "__init__.py").is_file(), prefix


def test_determinism_fires_in_runner_modules():
    findings = _lint(
        """
        import numpy as np

        def jitter():
            return np.random.normal()
        """,
        module="repro.core.runner",
        rule="determinism",
    )
    assert _rules(findings) == ["determinism"]
