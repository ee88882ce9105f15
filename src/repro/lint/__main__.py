"""``python -m repro.lint [paths...]`` (default ``src``).

Prints one ``path:line:col: rule: message`` line per finding, then a
summary.  Exit status: 0 clean, 1 on findings, 2 when a path does not exist
or holds no ``.py`` file.
"""

from __future__ import annotations

import sys

from repro.lint import lint_paths


def main(argv: list[str]) -> int:
    try:
        findings = lint_paths(argv or ["src"])
    except FileNotFoundError as exc:
        print(f"usage: python -m repro.lint [paths...]\nrepro.lint: {exc}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    n = len(findings)
    print(f"repro.lint: {n} finding{'s' if n != 1 else ''}" if n else "repro.lint: clean")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
