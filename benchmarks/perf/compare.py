"""Compare two result files written by ``run.py --out``.

``python3 benchmarks/perf/compare.py A.json B.json`` prints one row per
(workload, end-to-end metric): both medians, both spreads, the bound from
``BENCHMARK.json`` and a verdict for B against A —

``same``        B's median is within the bound of A's
``better``      B is better than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  either side's run-to-run spread is wider than the bound,
                so the rows cannot tell ``same`` from a change

and exits 1 when any row is ``worse``.  This is the tool for the
two-sets-of-runs check on one commit and for before/after tables.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict, b: dict, *, better: str, bound: float) -> "tuple[float, str]":
    """``(how much worse B is than A as a share of A, verdict)``."""
    change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    worse_by = change if better == "lower" else -change
    if max(a["spread"], b["spread"]) > bound:
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "better"
    return worse_by, "same"


def compare(a: dict, b: dict, spec: dict) -> "list[dict]":
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            left = a["workloads"][workload]["end_to_end"][name]
            right = b["workloads"][workload]["end_to_end"][name]
            worse_by, word = verdict(
                left, right, better=metric["better"], bound=metric["bound"]
            )
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": left["median"], "b": right["median"],
                "spread_a": left["spread"], "spread_b": right["spread"],
                "bound": metric["bound"], "worse_by": worse_by, "verdict": word,
            })
    return rows


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)
    print(f"A: {argv[0]}  (commit {a['commit'][:12]}, host.calib_s {a['host.calib_s']:.4f})")
    print(f"B: {argv[1]}  (commit {b['commit'][:12]}, host.calib_s {b['host.calib_s']:.4f})")
    print(f"{'workload':<18}{'metric':<22}{'A':>14}{'B':>14} {'unit':<9}"
          f"{'spread A':>9}{'spread B':>9}{'bound':>7}{'worse by':>10}  verdict")
    for r in rows:
        print(f"{r['workload']:<18}{r['metric']:<22}{r['a']:>14.5f}{r['b']:>14.5f} {r['unit']:<9}"
              f"{r['spread_a']:>9.4f}{r['spread_b']:>9.4f}{r['bound']:>7.3f}{r['worse_by']:>+10.4f}  {r['verdict']}")
    tally = {word: sum(r["verdict"] == word for r in rows)
             for word in ("same", "better", "worse", "unresolved")}
    print(", ".join(f"{count} {word}" for word, count in tally.items()))
    return 1 if tally["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
