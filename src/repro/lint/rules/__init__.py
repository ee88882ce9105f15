"""Builtin rule modules — importing this package registers every rule."""

from repro.lint.rules import (  # noqa: F401
    determinism,
    exceptions,
    hotpath,
    imports,
    spans,
)
