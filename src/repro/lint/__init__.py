"""repro.lint — AST-based checker for this repo's contract invariants.

The codebase's headline guarantees are *cross-cutting*: bit-identical
physics across compute backends, transports, batch compositions and worker
counts; exact :class:`~repro.fdps.comm.SimComm` byte ledgers; a zero-copy
shm slot-lease protocol that never leaks.  Runtime tests catch violations
only when the right configuration happens to run — a global RNG call
surfaces as a *flaky* parity failure weeks later.  This package holds the
line at lint time instead: ``python -m repro.lint src`` runs in CI next to
ruff and fails on the whole violation class, deterministically.

Repo invariants (the rule catalog)
----------------------------------

``determinism``
    No ``np.random`` module-state calls, stdlib ``random``, or absolute
    clocks (``time.time``, ``datetime.now``) in
    ``repro.{core,physics,sph,gravity,sn,surrogate,ml,serve,obs}``.  Every draw
    flows from a seeded ``np.random.Generator`` or
    :func:`repro.serve.wire.event_rng`; wall-clock metrics use
    ``perf_counter``/``monotonic``.  Motivated by the cross-backend /
    cross-transport parity suites (``tests/accel/test_backends.py``,
    ``tests/serve``) — the paper's surrogate-coupling correctness claim.

``ledger-label``
    Every comm-crossing call site (``send``, ``alltoallv``/``_3d``,
    ``allgather``, ``allreduce_sum``) passes an explicit ``label=`` so its
    bytes land in a deliberately chosen :class:`CommStats` row.  Motivated
    by the PR 2 exchange-ledger exactness tests and the ``pool_p2p``
    accounting of PR 4/5.

``import-gating``
    Optional toolchains (``numba``, and ``cupy``/``triton`` when the GPU
    backend lands) are imported only inside try/except ImportError scopes,
    and only in ``repro.accel.backends.*`` / ``repro.pikg.codegen``.
    CPU-only CI must import every module.

``backend-purity``
    Backend modules import neither sibling backends (``base`` excepted)
    nor ``repro.core``/``repro.serve``.  Backends stay independently
    loadable leaves of the registry; the sanctioned exception (inheriting
    the always-available ``numpy`` reference implementation) carries an
    inline suppression with its reason.  The same forbidden-import table
    keeps ``repro.fdps`` from importing ``repro.core``.

``hotpath-hygiene``
    No ``np.add.at`` or per-particle ``range(len(...))`` Python loops in
    kernel-owning modules (``repro.accel.backends``, ``repro.sph``,
    ``repro.gravity``, ``repro.surrogate.voxelize``,
    ``repro.analysis.maps``).  Motivated by the kernel benchmarks: bincount
    reductions are order-identical and ~10x faster.

``lease-pairing``
    In ``repro.serve.shm`` every slot lease (``_free.pop()``) reaches a
    release (``_free.extend``/``append`` on a ``finally`` edge) or a
    handoff into a lease registry (``_batch_slots``, or ``_zombies`` for
    timed-out batches whose worker may still touch the slot); takeovers
    from either registry release or hand off the same way.  Motivated by
    the worker-exception slot-reclaim test in ``tests/serve/test_shm.py``
    and the fault-recovery zombie protocol of ISSUE 8.

``silent-except``
    No bare ``except`` / ``except Exception`` / ``BaseException`` handler
    in ``repro`` may swallow the failure without a trace: it must
    re-raise, log, or use the bound exception (e.g. ship it back over a
    result queue).  Narrow tuples pass.  Motivated by the fault-tolerance
    work: an invisible swallow is a fault the ``ServiceMetrics`` counters
    and the chaos suite can never pin.

``wire-symmetry``
    Every wire encoder class defines ``from_buffer``, and the constant
    header slots written by ``encode_into`` equal those read by
    ``from_buffer`` (slots validated by a shared ``*check_header*`` helper
    count as read).  Motivated by the PR 5 in-place shm encoding, where a
    header drift corrupts silently.

``rng-plumbing``
    Public functions that build a generator take the seed from their
    caller — an ``rng``/``seed``-like parameter or a seed-carrying
    attribute of ``self`` — so the parity suites can pin every draw.

``span-pairing``
    Every ``tracer.span(...)`` handle is a ``with`` context expression (or
    an assigned handle closed in a ``finally`` block), so a span record
    can never leak and the tracer's nesting stack cannot corrupt.  The
    companion clock invariant — ``repro.obs`` timestamps are
    monotonic-epoch only — rides the ``determinism`` rule, whose scope
    includes ``repro.obs``.  Motivated by the ISSUE 9 observability
    subsystem: traces must stay comparable across runs and complete under
    exceptions.

Suppressions
------------

Silence one finding with a comment on the flagged line — the syntax is
``repro-lint: disable=<rule>[,<rule>...]`` with optional prose after
``--``, e.g. on a sanctioned sibling-backend import::

    from ... import NumpyBackend  # repro-lint: disable=<rule> -- reason

Multiple rules separate with commas; the literal rule name ``all``
silences the line entirely.
A suppression that silences nothing is itself an error
(``unused-suppression``), so annotations cannot go stale.

Running
-------

``python -m repro.lint src`` (exit 0 clean / 1 findings), ``--format json``
for tooling, ``--list-rules`` for the catalog, ``--select rule1,rule2`` to
narrow.  ``tools/static_analysis.sh`` bundles it with ruff and the mypy
subset as the pre-commit / CI entry point.  New rules follow the
``repro.accel.backends`` pattern: subclass :class:`~repro.lint.base.Rule`,
decorate with :func:`~repro.lint.registry.register_rule`, import the module
from :mod:`repro.lint.rules`.
"""

from repro.lint.base import ModuleContext, Rule
from repro.lint.checker import lint_paths, lint_source, module_name_for
from repro.lint.findings import Finding
from repro.lint.registry import all_rules, get_rule, register_rule, registered_rules
from repro.lint.suppressions import UNUSED_RULE

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "UNUSED_RULE",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "register_rule",
    "registered_rules",
]
