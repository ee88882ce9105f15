"""``python -m benchmarks.e2e --compare A.json B.json``: do two runs agree?

Per workload and end-to-end metric: both values, the relative difference
and the bound ``BENCHMARK.json`` fixes.  Exit 1 if any difference is
outside its bound or any final-state digest or ledger count differs; exit 2
(without comparing) if the files are smoke runs or their provenance says
they are not comparable.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from benchmarks.e2e.provenance import ROOT

#: Provenance fields that must match for two result files to be comparable.
COMPARABLE = ("schema", "nproc", "backend", "seed")


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for label, doc in (("A", a), ("B", b)):
        if doc.get("smoke"):
            print(f"refusing: {label} is a smoke run")
            return 2
    stamps = {k: (a["provenance"].get(k), b["provenance"].get(k)) for k in COMPARABLE}
    if any(va != vb for va, vb in stamps.values()):
        for k, (va, vb) in stamps.items():
            if va != vb:
                print(f"refusing: {k} differs: {va!r} vs {vb!r}")
        return 2
    if sorted(a["workloads"]) != sorted(b["workloads"]):
        print(f"refusing: workloads differ: {sorted(a['workloads'])} vs {sorted(b['workloads'])}")
        return 2

    bounds = {m["name"]: m["bound"] for m in load_contract()["end_to_end"]}
    bad = 0
    print(f"{'workload':<15}{'metric':<24}{'A':>12}{'B':>12}{'diff':>9}{'bound':>8}")
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        broken = [f"{label}: {row['problem']}" for label, row in (("A", wa), ("B", wb))
                  if "problem" in row]
        if broken:      # a crashed, hung or leaking workload has no metrics to compare
            bad += 1
            print(f"{name:<15}DID NOT FINISH in {'; '.join(broken)}")
            continue
        for metric, bound in bounds.items():
            va, vb = wa["end_to_end"][metric]["value"], wb["end_to_end"][metric]["value"]
            if va:
                rel = (vb - va) / va
            else:
                rel = 0.0 if vb == va else math.inf
            outside = abs(rel) > bound
            bad += outside
            print(
                f"{name:<15}{metric:<24}{va:>12.5g}{vb:>12.5g}{rel:>+9.1%}{bound:>8.0%}"
                + ("  OUTSIDE" if outside else "")
            )
        for label, va, vb in (
            ("fail_share", wa["fail_share"], wb["fail_share"]),
            ("digest", wa["digest"], wb["digest"]),
            *((f"ledger.{k}", v, wb["ledger"].get(k)) for k, v in wa["ledger"].items()),
        ):
            if va != vb:
                bad += 1
                print(f"{name:<15}{label:<24} DIFFERS: {va} vs {vb}")
    print("agree" if not bad else f"{bad} outside bound or differing")
    return 1 if bad else 0
