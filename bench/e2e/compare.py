#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

  python3 bench/e2e/compare.py A/ B/

A and B hold the run records `run.py --out DIR` writes (untraced runs
are compared; traced ones are ignored). For every (workload, end-to-end
metric) it prints each side's median and quartiles and a verdict under
the bounds in BENCHMARK.json, with B read as the change and A as the
base:

  regressed   B's median is worse than A's by more than the bound
  improved    B's median is better than A's by more than the bound
  unchanged   the medians differ by no more than the bound
  unresolved  a side's quartile spread (as a share of its median) is
              wider than the bound, and B's runs do not all beat A's

Exit status: 0, or 1 when anything regressed; 2 when the two sets come
from different hosts or benchmark versions, or a set is empty.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
FINGERPRINT = ("nproc", "cpu", "compiler", "build")


def load(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        r = json.loads(path.read_text())
        if r.get("trace") == 0 and r.get("metrics"):
            runs.append(r)
    return runs


def identity(runs):
    """The set of (version, host fingerprint) the runs were taken on."""
    return {(r.get("version"),
             tuple(r.get("host", {}).get(k) for k in FINGERPRINT))
            for r in runs}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (bm - am) / am  # > 0 means B is worse
    if max((a3 - a1) / am, (b3 - b1) / bm) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "improved", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a_runs, b_runs = load(sys.argv[1]), load(sys.argv[2])
    if not a_runs or not b_runs:
        print("compare.py: no untraced run records in a set", file=sys.stderr)
        return 2
    ids = identity(a_runs) | identity(b_runs)
    if len(ids) != 1:
        print("compare.py: runs come from different benchmark versions or "
              f"hosts: {sorted(ids, key=str)}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{'workload':<11} {'metric':<13} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'B worse':>8}  verdict")
    regressed = False
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a = [x["value"] for r in a_runs if r["workload"] == w["name"]
                 for x in r["metrics"] if x["name"] == m["name"]]
            b = [x["value"] for r in b_runs if r["workload"] == w["name"]
                 for x in r["metrics"] if x["name"] == m["name"]]
            if not a or not b:
                continue
            v, worse = verdict(a, b, m["better"], m["bound"])
            regressed |= v == "regressed"
            cells = []
            for vals in (a, b):
                q1, q2, q3 = quartiles(vals)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(vals)}")
            print(f"{w['name']:<11} {m['name']:<13} {cells[0]:<30} "
                  f"{cells[1]:<30} {worse:>+8.1%}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
