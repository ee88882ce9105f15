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
    Backend modules import no sibling backends (``base`` excepted), so
    they stay independently loadable leaves of the registry; the
    sanctioned exception (inheriting the always-available ``numpy``
    reference implementation) carries an inline suppression with its
    reason.  The rule also enforces the layering table
    ``FORBIDDEN_IMPORTS``: ``repro.accel``/``gravity``/``sph``/``fdps``
    import neither ``repro.core`` nor ``repro.serve``, and ``repro.util``
    imports neither ``repro.serve`` nor ``repro.accel`` — lazily or not.

``hotpath-hygiene``
    No ``np.add.at`` or per-particle ``range(len(...))`` Python loops in
    kernel-owning modules (``repro.accel.backends``, ``repro.sph``,
    ``repro.gravity``, ``repro.surrogate.voxelize``,
    ``repro.analysis.maps``).  Motivated by the kernel benchmarks: bincount
    reductions are order-identical and ~10x faster.

``lease-pairing``
    In ``repro.serve.shm`` every shared block a function maps
    (``SharedMemoryRing(...)``: a batch's block created at dispatch, or a
    worker's attachment) is closed on a ``finally`` edge or stored in the
    in-flight map ``_blocks``, and every block popped from that map is
    closed on a ``finally`` edge.  Motivated by the worker-exception test
    in ``tests/serve/test_shm.py``: a block missed on an exception path
    stays linked in ``/dev/shm`` after the run.

``silent-except``
    No bare ``except`` / ``except Exception`` / ``BaseException`` handler
    in ``repro`` may swallow the failure without a trace: it must
    re-raise, log, or use the bound exception (e.g. ship it back over a
    pipe).  Narrow tuples pass.  Motivated by the fault-tolerance
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

``strict-annotations``
    Every ``def`` in a module of the strict ``[[tool.mypy.overrides]]`` in
    ``pyproject.toml`` (the one list, read from there) annotates each
    parameter — ``*args``/``**kwargs`` included, a method's ``self``/``cls``
    excepted — and its return.  mypy checks the types in CI; this rule
    keeps the signatures it needs complete wherever the tier-1 loop runs,
    mypy installed or not.

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
