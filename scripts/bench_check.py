#!/usr/bin/env python3
"""Perf-regression ratchet for the simulation-kernel benchmarks.

Compares a fresh benchmark run against the committed BENCH_kernel.json
baseline on items_per_second for every benchmark name present in both,
and fails (exit 1) when any matching benchmark regressed by more than
the threshold (default 25%). Benchmarks that only exist on one side are
reported but never fail the check, so adding or retiring benchmarks
does not require lockstep baseline updates.

Both inputs accept either the merged BENCH_kernel.json format (micro
results under the "micro" key) or raw google-benchmark JSON output.

Usage:
  scripts/bench_check.py --baseline BENCH_kernel.json --fresh fresh.json
  scripts/bench_check.py --fresh fresh.json          # baseline from repo
"""

import argparse
import json
import sys

def load_rates(path):
    """Map benchmark name -> items_per_second from either JSON shape."""
    with open(path) as f:
        doc = json.load(f)
    if "micro" in doc:
        doc = doc["micro"]
    rates = {}
    for bench in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions).
        if bench.get("run_type", "iteration") != "iteration":
            continue
        rate = bench.get("items_per_second")
        if rate is None:
            continue
        rates[bench["name"]] = float(rate)
    return rates


def fmt_rate(rate):
    if rate >= 1e6:
        return f"{rate / 1e6:8.2f}M/s"
    if rate >= 1e3:
        return f"{rate / 1e3:8.2f}k/s"
    return f"{rate:8.2f}/s "


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default="BENCH_kernel.json",
                    help="committed baseline (default: BENCH_kernel.json)")
    ap.add_argument("--fresh", required=True,
                    help="fresh benchmark run to check")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max tolerated items_per_second regression "
                         "(fraction, default 0.25)")
    ap.add_argument("--normalize", metavar="BENCH", default=None,
                    help="divide every rate by this benchmark's rate "
                         "on its own side first; cancels host speed so "
                         "a baseline recorded on one machine can gate "
                         "runs on another (CI uses BM_LogHistogramAdd)")
    args = ap.parse_args()

    base = load_rates(args.baseline)
    fresh = load_rates(args.fresh)
    refs = []
    if args.normalize is not None:
        for rates in (base, fresh):
            ref = rates.pop(args.normalize, None)
            if not ref:
                print(f"error: normalization benchmark "
                      f"{args.normalize} missing or zero",
                      file=sys.stderr)
                return 2
            refs.append(ref)
            for name in rates:
                rates[name] /= ref
    if not base:
        print(f"error: no benchmark rates in baseline {args.baseline}",
              file=sys.stderr)
        return 2
    if not fresh:
        print(f"error: no benchmark rates in fresh run {args.fresh}",
              file=sys.stderr)
        return 2

    common = sorted(set(base) & set(fresh))
    regressions = []
    width = max((len(n) for n in common), default=10)
    # The normaliser's own raw ratio: every normalised ratio below is
    # divided by it, so a host that ran it unusually fast or slow
    # shifts the whole run together.
    shift = ""
    if refs:
        shift = (f"{args.normalize} raw: baseline "
                 f"{fmt_rate(refs[0]).strip()}, fresh "
                 f"{fmt_rate(refs[1]).strip()}, fresh/baseline "
                 f"{refs[1] / refs[0]:.2f}x")
        print(f"(rates shown as multiples of {args.normalize}; {shift})")
    print(f"{'benchmark':<{width}}  {'baseline':>11}  {'fresh':>11}"
          f"  {'ratio':>7}")
    for name in common:
        ratio = fresh[name] / base[name] if base[name] > 0 else float("inf")
        flag = ""
        if ratio < 1.0 - args.threshold:
            flag = "  << REGRESSION"
            regressions.append((name, ratio))
        print(f"{name:<{width}}  {fmt_rate(base[name])}  "
              f"{fmt_rate(fresh[name])}  {ratio:6.2f}x{flag}")

    for name in sorted(set(fresh) - set(base)):
        print(f"{name:<{width}}  {'(new)':>11}  {fmt_rate(fresh[name])}")
    for name in sorted(set(base) - set(fresh)):
        print(f"{name:<{width}}  {fmt_rate(base[name])}  {'(gone)':>11}")

    if not common:
        print("error: no benchmark names in common between baseline "
              "and fresh run", file=sys.stderr)
        return 2
    if regressions:
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more "
              f"than {args.threshold:.0%} on items_per_second:",
              file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x of baseline", file=sys.stderr)
        if shift:
            print(f"  (normaliser {shift})", file=sys.stderr)
        return 1
    print(f"\nOK: {len(common)} matching benchmarks within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
