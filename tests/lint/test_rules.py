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

        def kick(x):
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


# ------------------------------------------------------------ ledger-label
def test_ledger_label_flags_unlabeled_send():
    findings = _lint(
        """
        def exchange(comm, arr):
            comm.send(0, 1, arr)
        """,
        module="repro.fdps.distributed",
        select=["ledger-label"],
    )
    assert _rules(findings) == ["ledger-label"]


def test_ledger_label_accepts_explicit_label():
    findings = _lint(
        """
        def exchange(comm, parts, arr):
            comm.send(0, 1, arr, label="exchange_particles")
            comm.alltoallv(parts, label="exchange_let")
        """,
        module="repro.fdps.distributed",
        select=["ledger-label"],
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
    # fdps may use the layers beside and below it; core may import fdps.
    allowed = """
    from repro.serve import SurrogateSpec
    from repro.util.leapfrog import leapfrog_kick
    """
    assert _lint(allowed, module="repro.fdps.io", select=["backend-purity"]) == []
    assert _lint(source, module="repro.core.simulation", select=["backend-purity"]) == []


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


# ----------------------------------------------------------- lease-pairing
def test_lease_pairing_flags_leak():
    findings = _lint(
        """
        class T:
            def dispatch(self):
                index = self._free.pop()
                return index
        """,
        module="repro.serve.shm",
        select=["lease-pairing"],
    )
    assert _rules(findings) == ["lease-pairing"]
    assert "leaks" in findings[0].message


def test_lease_pairing_flags_release_outside_finally():
    findings = _lint(
        """
        class T:
            def convert(self, batch_id):
                leased = self._batch_slots.pop(batch_id, [])
                buffers = self.read(leased)
                self._free.extend(leased)
                return buffers
        """,
        module="repro.serve.shm",
        select=["lease-pairing"],
    )
    assert _rules(findings) == ["lease-pairing"]
    assert "finally" in findings[0].message


def test_lease_pairing_flags_each_release_outside_finally():
    # One guarded release must not vouch for a second, unguarded one.
    findings = _lint(
        """
        class T:
            def handle(self, tag, batch_id):
                if tag == "claim":
                    freed = []
                    try:
                        freed.extend(self._zombies.pop(batch_id, []))
                    finally:
                        self._free.extend(freed)
                    return None
                leased = self._batch_slots.pop(batch_id, [])
                buffers = self.read(leased)
                self._free.extend(leased)
                return buffers
        """,
        module="repro.serve.shm",
        select=["lease-pairing"],
    )
    assert _rules(findings) == ["lease-pairing"]
    assert "finally" in findings[0].message
    assert findings[0].line == 13      # the unguarded done-path release


def test_lease_pairing_flags_takeover_without_release():
    findings = _lint(
        """
        class T:
            def convert(self, batch_id):
                leased = self._batch_slots.pop(batch_id, [])
                return self.read(leased)
        """,
        module="repro.serve.shm",
        select=["lease-pairing"],
    )
    assert _rules(findings) == ["lease-pairing"]


def test_lease_pairing_accepts_handoff_and_finally_release():
    findings = _lint(
        """
        class T:
            def dispatch(self, batch_id):
                leased = [self._free.pop()]
                self._batch_slots[batch_id] = leased

            def convert(self, batch_id):
                leased = self._batch_slots.pop(batch_id, [])
                try:
                    return self.read(leased)
                finally:
                    self._free.extend(leased)
        """,
        module="repro.serve.shm",
        select=["lease-pairing"],
    )
    assert findings == []


# ----------------------------------------------------------- wire-symmetry
def test_wire_symmetry_flags_missing_decoder():
    findings = _lint(
        """
        class Packet:
            def encode_into(self, out):
                out[0] = 1.0
                return 1
        """,
        module="repro.serve.mywire",
        select=["wire-symmetry"],
    )
    assert _rules(findings) == ["wire-symmetry"]
    assert "write-only" in findings[0].message


def test_wire_symmetry_flags_header_slot_drift():
    findings = _lint(
        """
        class Packet:
            def encode_into(self, out):
                out[0] = 1.0
                out[1] = 2.0
                out[2] = 3.0
                return 3

            @classmethod
            def from_buffer(cls, buf):
                return cls(buf[0], buf[1])
        """,
        module="repro.serve.mywire",
        select=["wire-symmetry"],
    )
    assert _rules(findings) == ["wire-symmetry"]
    assert "written but never decoded: [2]" in findings[0].message


def test_wire_symmetry_accepts_symmetric_header_and_check_helper():
    findings = _lint(
        """
        def _check_header(buf):
            assert buf[0] == 7.0 and buf[1] == 1.0

        class Packet:
            def encode_into(self, out):
                out[0] = 7.0
                out[1] = 1.0
                out[2] = 3.0
                out[3:5] = (1.0, 2.0)
                return 5

            @classmethod
            def from_buffer(cls, buf):
                _check_header(buf)
                return cls(buf[2], buf[3:5])
        """,
        module="repro.serve.mywire",
        select=["wire-symmetry"],
    )
    assert findings == []


def test_wire_symmetry_credits_header_counts_helper_slots():
    findings = _lint(
        """
        def _check_header(buf):
            assert buf[0] == 7.0 and buf[1] == 1.0

        def _header_counts(buf, n_slot, w_slot):
            return int(buf[n_slot]), int(buf[w_slot])

        class Packet:
            def encode_into(self, out):
                out[0] = 7.0
                out[1] = 1.0
                out[2] = 5.0
                out[3] = 4.0
                return 4

            @classmethod
            def from_buffer(cls, buf):
                _check_header(buf)
                n, w = _header_counts(buf, 2, 3)
                return cls(n, w)
        """,
        module="repro.serve.mywire",
        select=["wire-symmetry"],
    )
    assert findings == []


# ------------------------------------------------- lease-pairing: zombies
def test_lease_pairing_accepts_zombie_handoff_and_takeover():
    findings = _lint(
        """
        class T:
            def expire_batch(self, batch_id):
                leased = self._batch_slots.pop(batch_id, [])
                if leased:
                    self._zombies[batch_id] = leased

            def on_done_late(self, batch_id):
                leased = self._zombies.pop(batch_id, [])
                try:
                    return self.read(leased)
                finally:
                    self._free.extend(leased)
        """,
        module="repro.serve.shm",
        select=["lease-pairing"],
    )
    assert findings == []


def test_lease_pairing_flags_zombie_takeover_without_release():
    findings = _lint(
        """
        class T:
            def reap(self, batch_id):
                leased = self._zombies.pop(batch_id, [])
                return len(leased)
        """,
        module="repro.serve.shm",
        select=["lease-pairing"],
    )
    assert _rules(findings) == ["lease-pairing"]


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

    The step host owns comm-crossing calls (region ghosts, pool dispatch)
    and seeded randomness, so the ledger-label, determinism and
    rng-plumbing rules must all apply to it — by prefix, not by a
    hand-maintained list that a rename would silently miss.
    """
    from repro.lint.registry import get_rule

    for rule_name in ("determinism", "rng-plumbing", "ledger-label"):
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


def test_ledger_label_fires_in_runner_modules():
    findings = _lint(
        """
        def ship(comm, arr):
            comm.send(0, 1, arr)
        """,
        module="repro.core.runner",
        select=["ledger-label"],
    )
    assert _rules(findings) == ["ledger-label"]
