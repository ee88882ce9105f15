"""Fixture tests: every rule fires on a violating snippet and stays quiet
on the idiomatic version of the same code."""

import textwrap

from repro.lint import lint_source


def _lint(source, module, select=None):
    return lint_source(textwrap.dedent(source), module=module, select=select)


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
    )
    assert "determinism" in _rules(findings)
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
        select=["determinism"],
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
        select=["determinism"],
    )
    assert findings == []


def test_determinism_scoped_to_deterministic_modules():
    findings = _lint(
        """
        import numpy as np

        def noise():
            return np.random.normal()
        """,
        module="repro.analysis.maps",  # observables, not a physics path
        select=["determinism"],
    )
    assert findings == []


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
        select=["rng-plumbing"],
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
        select=["rng-plumbing"],
    )
    assert findings == []


# ----------------------------------------------------------- import-gating
def test_import_gating_flags_optional_dep_outside_seam():
    findings = _lint(
        """
        import numba
        """,
        module="repro.sph.density",
        select=["import-gating"],
    )
    assert _rules(findings) == ["import-gating"]
    assert "outside the backend seam" in findings[0].message


def test_import_gating_flags_unguarded_import_in_seam():
    findings = _lint(
        """
        import numba
        """,
        module="repro.accel.backends.gpu_backend",
        select=["import-gating"],
    )
    assert _rules(findings) == ["import-gating"]
    assert "try/except ImportError" in findings[0].message


def test_import_gating_accepts_guarded_import_in_seam():
    findings = _lint(
        """
        try:
            import numba
            HAVE_NUMBA = True
        except ImportError:
            numba = None
            HAVE_NUMBA = False
        """,
        module="repro.accel.backends.gpu_backend",
        select=["import-gating"],
    )
    assert findings == []


# ---------------------------------------------------------- backend-purity
def test_backend_purity_flags_sibling_and_orchestration_imports():
    findings = _lint(
        """
        from repro.accel.backends.pikg_backend import PikgBackend
        from repro.core.sim import Simulation
        """,
        module="repro.accel.backends.gpu_backend",
        select=["backend-purity"],
    )
    assert _rules(findings) == ["backend-purity", "backend-purity"]


def test_backend_purity_accepts_base_and_kernel_params():
    findings = _lint(
        """
        from repro.accel.backends.base import KernelBackend
        from repro.sph.kernels import CubicSpline
        """,
        module="repro.accel.backends.gpu_backend",
        select=["backend-purity"],
    )
    assert findings == []


def test_backend_purity_exempts_registry_init_and_base():
    source = """
    from repro.accel.backends.numpy_backend import NumpyBackend
    """
    # The registry package __init__ must import backends to register them.
    assert _lint(source, module="repro.accel.backends", select=["backend-purity"]) == []
    assert _lint(source, module="repro.accel.backends.base", select=["backend-purity"]) == []


def test_forbidden_import_table_keeps_fdps_below_core():
    source = """
    from repro.core.runner import CoupledRunner

    def lazy():
        import repro.core.pool
    """
    findings = _lint(source, module="repro.fdps.distributed", select=["backend-purity"])
    assert _rules(findings) == ["backend-purity", "backend-purity"]
    # fdps may use the layers beside and below it, not the service;
    # core may import fdps.
    allowed = """
    from repro.util.leapfrog import leapfrog_kick
    """
    assert _lint(allowed, module="repro.fdps.io", select=["backend-purity"]) == []
    serve = """
    from repro.serve import SurrogateSpec
    """
    findings = _lint(serve, module="repro.fdps.io", select=["backend-purity"])
    assert _rules(findings) == ["backend-purity"]
    assert _lint(source, module="repro.core.simulation", select=["backend-purity"]) == []


def test_forbidden_import_table_keeps_compute_below_core_and_serve():
    source = """
    from repro.serve.shm import SharedMemoryRing

    def lazy():
        import repro.core.runner
    """
    for module in ("repro.accel.gravity_helper", "repro.accel.engine",
                   "repro.gravity.treegrav", "repro.sph.density"):
        findings = _lint(source, module=module, select=["backend-purity"])
        assert _rules(findings) == ["backend-purity", "backend-purity"], module
    allowed = """
    from repro.util.shm import SharedMemoryRing
    from repro.fdps.tree import Octree
    from repro.obs.trace import Tracer
    """
    assert _lint(allowed, module="repro.accel.gravity_helper", select=["backend-purity"]) == []
    # The layers above may import the compute layer.
    assert _lint(allowed, module="repro.serve.shm", select=["backend-purity"]) == []


def test_forbidden_import_table_keeps_util_below_serve_and_accel():
    source = """
    from repro.serve.wire import WireFormatError

    def lazy():
        from repro.accel import ForceEngine
    """
    findings = _lint(source, module="repro.util.shm", select=["backend-purity"])
    assert _rules(findings) == ["backend-purity", "backend-purity"]
    allowed = """
    import numpy as np
    from repro.util.logging import get_logger
    """
    assert _lint(allowed, module="repro.util.shm", select=["backend-purity"]) == []


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
        select=["hotpath-hygiene"],
    )
    assert _rules(findings) == ["hotpath-hygiene"] * 3


def test_hotpath_accepts_bincount_and_covers_backends():
    clean = """
    import numpy as np

    def deposit(idx, w, size):
        return np.bincount(idx, weights=w, minlength=size)
    """
    assert _lint(clean, module="repro.sph.density", select=["hotpath-hygiene"]) == []
    scalar = """
    import numpy as np

    def kernel(grid, idx, w, pos):
        np.add.at(grid, idx, w)
    """
    # The backends are kernel modules too: no exemption.
    assert _rules(_lint(
        scalar, module="repro.accel.backends.numpy_backend", select=["hotpath-hygiene"]
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
        select=["silent-except"],
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
        select=["silent-except"],
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
        select=["silent-except"],
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
        select=["silent-except"],
    )
    assert _rules(findings) == ["silent-except"]


# ------------------------------------------------------------ span-pairing
def test_span_pairing_flags_bare_span_call():
    findings = _lint(
        """
        def phase(tracer):
            tracer.span("gravity", cat="sim")
            do_work()
        """,
        module="repro.core.sim",
        select=["span-pairing"],
    )
    assert _rules(findings) == ["span-pairing"]
    assert "never closed" in findings[0].message


def test_span_pairing_flags_leaked_handle():
    findings = _lint(
        """
        class Engine:
            def phase(self):
                sp = self._tracer.span("gravity")
                do_work()
        """,
        module="repro.accel.engine",
        select=["span-pairing"],
    )
    assert _rules(findings) == ["span-pairing"]


def test_span_pairing_accepts_with_statement():
    findings = _lint(
        """
        class Engine:
            def phase(self):
                with self.tracer.span("gravity", backend="numpy"):
                    do_work()
        """,
        module="repro.accel.engine",
        select=["span-pairing"],
    )
    assert findings == []


def test_span_pairing_accepts_finally_closed_handle():
    findings = _lint(
        """
        def phase(tracer):
            sp = tracer.span("gravity")
            sp.__enter__()
            try:
                do_work()
            finally:
                sp.__exit__(None, None, None)
        """,
        module="repro.core.sim",
        select=["span-pairing"],
    )
    assert findings == []


def test_span_pairing_ignores_unrelated_span_methods():
    findings = _lint(
        """
        def fn(array):
            return array.span("x")  # not a tracer-named receiver
        """,
        module="repro.core.sim",
        select=["span-pairing"],
    )
    assert findings == []


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
        select=["determinism"],
    )
    assert _rules(findings) == ["determinism"]


# ------------------------------------------------------- runner-layer scope
def test_scopes_cover_the_runner_layer():
    """``repro.core.runner`` rides the existing prefixes.

    The step host owns seeded randomness, so the determinism and
    rng-plumbing rules must both apply to it — by prefix, not by a
    hand-maintained list that a rename would silently miss.
    """
    from repro.lint.registry import get_rule

    for rule_name in ("determinism", "rng-plumbing"):
        assert get_rule(rule_name).applies_to("repro.core.runner"), rule_name


def test_determinism_fires_in_runner_modules():
    findings = _lint(
        """
        import numpy as np

        def jitter():
            return np.random.normal()
        """,
        module="repro.core.runner",
        select=["determinism"],
    )
    assert _rules(findings) == ["determinism"]
