"""Run every workload in fresh child processes and write ``results/e2e.json``.

    PYTHONPATH=src python -m benchmarks.e2e [--workload NAME]... [--smoke]
    python -m benchmarks.e2e --compare A.json B.json

Each workload runs twice through ``run.py`` — untraced for the end-to-end
metrics, then traced for the per-layer metrics, probes and equivalence
checks — one child at a time, so at most the child and its one serve worker
are runnable on the 2-core box.  A child that crashes, hangs, or leaves a
worker process or shared-memory segment behind counts as every operation of
that workload failed; the remaining workloads still run and the exit code
is non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.e2e import SCHEMA_VERSION
from benchmarks.e2e.compare import compare, load_contract

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SEED = 3
SHM = Path("/dev/shm")


def _our_segments() -> set[str]:
    """Shared-memory segments the serve ring could have made: Python's
    ``shared_memory`` prefix, owned by this user.  Anything else in
    ``/dev/shm`` belongs to some other program on the host."""
    out = set()
    for entry in SHM.glob("psm_*"):
        try:
            if entry.stat().st_uid == os.getuid():
                out.add(entry.name)
        except OSError:
            continue        # unlinked while we looked
    return out


def _session_members(sid: int) -> list[int]:
    """Live processes still in the child's session (a leaked serve worker)."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue        # exited while we looked
        if int(fields[3]) == sid and fields[0] != "Z":
            out.append(int(entry.name))
    return out


def run_child(name: str, trace: int, seconds: int, smoke: bool) -> dict:
    """One ``run.py`` process; its detail record, or why it has none."""
    expected_wall = 20 if smoke else 2 * seconds + 20
    shm_before = _our_segments()
    with tempfile.TemporaryDirectory() as tmp:
        detail = Path(tmp) / "detail.json"
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", str(trace), "--detail", str(detail),
            *(["--smoke"] if smoke else []),
        ]
        child = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        problem = None
        try:
            _, stderr = child.communicate(timeout=3 * expected_wall)
        except subprocess.TimeoutExpired:
            problem = f"hung past {3 * expected_wall} s"
            os.killpg(child.pid, signal.SIGKILL)
            _, stderr = child.communicate()
        # run.py stops and reaps all it started, the resource tracker too.
        leaked = _session_members(child.pid)
        if leaked:
            problem = problem or f"leaked processes {leaked}"
            os.killpg(child.pid, signal.SIGKILL)
        segments = _our_segments() - shm_before
        if segments:
            problem = problem or f"leaked shared memory {sorted(segments)}"
        if problem is None and child.returncode != 0:
            problem = f"exit code {child.returncode}"
        if problem is None and not detail.exists():
            problem = "no result written"
        if problem is not None:
            return {"problem": problem, "stderr_tail": stderr[-2000:]}
        return json.loads(detail.read_text())


def run_workload(name: str, seconds: int, smoke: bool) -> dict:
    untraced = run_child(name, 0, seconds, smoke)
    traced = run_child(name, 1, seconds, smoke)
    broken = [r for r in (untraced, traced) if "problem" in r]
    if broken:
        return {
            "fail_share": 1.0,
            "problem": "; ".join(r["problem"] for r in broken),
            "stderr_tail": broken[0]["stderr_tail"],
            "end_to_end": untraced.get("metrics", {}),
            "per_layer": traced.get("metrics", {}),
            "digest": None,
            "ledger": {},
        }
    same_state = untraced["digest"] == traced["digest"] and untraced["ledger"] == traced["ledger"]
    checks = [
        *untraced["checks"],
        *traced["checks"],
        {
            "name": "untraced == traced digest and ledger",
            "passed": same_state,
            "detail": f"{untraced['digest'][:12]} {traced['digest'][:12]}",
        },
    ]
    attempted = untraced["attempted"] + traced["attempted"] + 1
    failed = untraced["failed"] + traced["failed"] + (not same_state)
    return {
        "fail_share": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "n_particles": untraced["n_particles"],
        "warmup_steps": untraced["warmup_steps"],
        "timed_steps": untraced["timed_steps"],
        "tail_percentile": untraced["tail_percentile"],
        "end_to_end": untraced["metrics"],
        "per_layer": traced["metrics"],
        "digest": untraced["digest"],
        "ledger": untraced["ledger"],
        "sn_events": untraced["sn_events"],
        "checks": checks,
        "provenance": untraced["provenance"],
    }


def report(name: str, row: dict) -> None:
    print(f"\n== {name}: fail_share {row['fail_share']:.4g}", end="")
    if "problem" in row:
        print(f"  ({row['problem']})\n{row['stderr_tail']}")
        return
    print(
        f"  ({row['failed']}/{row['attempted']} operations; N={row['n_particles']}, "
        f"{row['warmup_steps']}+{row['timed_steps']} steps, "
        f"tail = p{row['tail_percentile'] or 0:.0f})"
    )
    for section in ("end_to_end", "per_layer"):
        for metric, cell in row[section].items():
            print(f"  {metric:<40}{cell['value']:>14.6g} {cell['unit']}")
    for check in row["checks"]:
        if not check["passed"]:
            print(f"  FAILED {check['name']}: {check['detail']}")


def main() -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)

    rows = {}
    for name in args.workload or names:
        rows[name] = run_workload(name, contract["run_seconds"], args.smoke)
        report(name, rows[name])
    provenance = next((r["provenance"] for r in rows.values() if "provenance" in r), None)
    for row in rows.values():
        row.pop("provenance", None)
    doc = {
        "schema": SCHEMA_VERSION,
        "smoke": args.smoke,
        "run_seconds": contract["run_seconds"],
        "provenance": provenance,
        "workloads": rows,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "e2e.json").write_text(json.dumps(doc, indent=1) + "\n")
    if not args.smoke and list(rows) == names:
        line = {
            "provenance": provenance,
            "workloads": {
                name: {
                    "fail_share": row["fail_share"],
                    "digest": row["digest"],
                    **{m: cell["value"] for m, cell in row["end_to_end"].items()},
                }
                for name, row in rows.items()
            },
        }
        with open(RESULTS / "trajectory.jsonl", "a") as out:
            out.write(json.dumps(line) + "\n")
    worst = max(row["fail_share"] for row in rows.values())
    print(f"\nwrote {RESULTS / 'e2e.json'}; worst fail_share {worst:.4g}")
    return 1 if worst > 0 else 0


if __name__ == "__main__":
    sys.exit(main())
