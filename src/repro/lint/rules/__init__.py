"""Builtin rule modules — importing this package registers every rule."""

from repro.lint.rules import (  # noqa: F401
    annotations,
    determinism,
    exceptions,
    hotpath,
    imports,
    ledger,
    leases,
    spans,
    wire,
)
