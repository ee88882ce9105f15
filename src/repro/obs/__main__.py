"""``python -m repro.obs`` — run-report, trace conversion, smoke runs.

Subcommands
-----------

``report RUN [--json] [--diff OTHER]``
    Render the Table-3-style breakdown of a traced run (a run directory of
    ``trace-rank*.jsonl`` streams, or one stream file).  ``--diff`` lines
    two runs up row by row for regression triage.

``chrome RUN -o trace.json``
    Convert a run to Chrome Trace Event JSON; open in Perfetto
    (https://ui.perfetto.dev) or ``chrome://tracing``.

``smoke --out DIR``
    Run a small traced galaxy simulation end to end and write the full
    artifact set (JSONL streams, ``chrome-trace.json``, ``report.txt``,
    ``report.json``) — the CI serve job uploads this directory so every
    build carries an openable trace.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import diff_reports, report_json, report_run

    report = report_run(args.run)
    if args.diff is not None:
        other = report_run(args.diff)
        sys.stdout.write(diff_reports(report, other))
        return 0
    sys.stdout.write(report_json(report) + "\n" if args.json else report.to_text())
    return 0


def _cmd_chrome(args: argparse.Namespace) -> int:
    from repro.obs.export import load_run, write_chrome_trace

    out = write_chrome_trace(load_run(args.run), args.out)
    print(f"wrote {out}")
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    from repro import GalaxySimulation, make_mw_mini
    from repro.obs.export import write_chrome_trace, write_run
    from repro.obs.report import report_json, report_traces
    from repro.obs.trace import Tracer

    out_dir = Path(args.out)
    tracer = Tracer(run_id="obs-smoke")
    ps = make_mw_mini(n_total=args.n, seed=1)
    with GalaxySimulation(
        ps, dt=2e-3, seed=1, n_pool=4, latency_steps=2,
        serve_transport=args.transport, tracer=tracer,
    ) as sim:
        sim.run(args.steps)
        sim.attach_service_metrics()
    stream = write_run(tracer, out_dir)
    from repro.obs.export import load_run

    traces = load_run(out_dir)
    write_chrome_trace(traces, out_dir / "chrome-trace.json")
    report = report_traces(traces)
    (out_dir / "report.txt").write_text(report.to_text())
    (out_dir / "report.json").write_text(report_json(report) + "\n")
    sys.stdout.write(report.to_text())
    print(f"artifacts: {stream.parent}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="span-trace reports and conversions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="Table-3-style run report")
    p_report.add_argument("run", help="run directory or trace .jsonl file")
    p_report.add_argument("--json", action="store_true", help="emit JSON")
    p_report.add_argument("--diff", default=None, metavar="OTHER",
                          help="diff against a second run")
    p_report.set_defaults(func=_cmd_report)

    p_chrome = sub.add_parser("chrome", help="convert to Chrome trace JSON")
    p_chrome.add_argument("run", help="run directory or trace .jsonl file")
    p_chrome.add_argument("-o", "--out", required=True, help="output .json path")
    p_chrome.set_defaults(func=_cmd_chrome)

    p_smoke = sub.add_parser("smoke", help="traced demo run + full artifacts")
    p_smoke.add_argument("--out", required=True, help="artifact directory")
    p_smoke.add_argument("--n", type=int, default=400, help="particle count")
    p_smoke.add_argument("--steps", type=int, default=4, help="steps to run")
    p_smoke.add_argument("--transport", default="sync",
                         choices=("sync", "shm"))
    p_smoke.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
