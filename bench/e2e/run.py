#!/usr/bin/env python3
"""End-to-end host-speed benchmark of the jscale simulator.

Builds the driver (bench/e2e/driver.cc, linked against the jscale
libraries compiled from src/), runs each workload in its own fresh
process, checks every simulated point's output and prints every metric
by name and unit. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

  python3 bench/e2e/run.py --workload narrow --seed 42 --seconds 29 --trace 0
  python3 bench/e2e/run.py                    # every workload, untraced
  python3 bench/e2e/run.py --trace 1 --out runs/
  python3 bench/e2e/run.py --smoke            # smoke size, both modes
  python3 bench/e2e/run.py --record-expected  # rewrite expected/seed42.txt

Exit status: 0 when every point is correct, 1 when a point failed or a
workload died, 2 on a usage or build error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
EXPECTED = HERE / "expected" / "seed42.txt"
# A run must end within 180 s (its first build aside); the driver is
# stopped 170 s after it starts.
RUN_LIMIT_S = 170


def host_jobs():
    return max(1, min(4, os.cpu_count() or 1))


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(build_dir):
    """Configure (once) and build the driver; returns its path or None."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "e2e_driver", "-j", str(host_jobs())])
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            tail = (p.stdout + p.stderr).strip().splitlines()[-30:]
            print("\n".join(tail), file=sys.stderr)
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return build_dir / "e2e_driver"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(driver, name, seed, seconds, trace, size, tmp):
    """One workload in its own process; a death counts as a failure."""
    cmd = [str(driver), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size,
           "--tmp", str(tmp)]
    if seed == 42 and size == "full" and EXPECTED.exists():
        cmd += ["--expected", str(EXPECTED)]
    attempted = failed = 0
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_LIMIT_S)
        out, err, code = p.stdout, p.stderr, p.returncode
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout
        err, code = "timed out", None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = None
    for line in (out or "").splitlines():
        if line.startswith("progress "):
            attempted, failed = (int(x) for x in line.split()[1:3])
        elif line.startswith("{"):
            result = json.loads(line)
    if code == 0 and result is not None:
        return result
    # The point in flight when the process died (a jscale_fatal such as
    # an OutOfMemoryError, a crash or the time limit) is a failed point.
    reason = (err or "").strip().splitlines()[-1:] or [f"exit {code}"]
    return {"workload": name, "correct": False, "attempted": attempted + 1,
            "failed": failed + 1, "metrics": [], "host": {},
            "errors": [f"{name}: driver died: {reason[0]}"]}


def check_names(result, declared):
    """The printed metrics must be exactly the declared names and units."""
    got = {m["name"]: m["unit"] for m in result["metrics"]}
    want = {m["name"]: m["unit"] for m in declared}
    if result["metrics"] and got != want:
        result["correct"] = False
        result["errors"].append(
            f"{result['workload']}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, units "
            f"{sorted(k for k in got if k in want and got[k] != want[k])}")


def record_expected(driver, spec, build_dir):
    lines = ["# e2e digests of every (point, replica) at seed 42, full size;",
             "# regenerate with: python3 bench/e2e/run.py --record-expected"]
    for w in spec["workloads"]:
        tmp = build_dir / f"tmp-{w['name']}-{os.getpid()}"
        try:
            p = subprocess.run([str(driver), "--workload", w["name"],
                                "--seed", "42", "--record-expected",
                                "--tmp", str(tmp)],
                               capture_output=True, text=True)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if p.returncode != 0:
            print(p.stderr, file=sys.stderr)
            return 1
        lines += p.stdout.strip().splitlines()
        print(f"{w['name']}: {len(p.stdout.splitlines())} points", flush=True)
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text("\n".join(lines) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured host seconds (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    nargs="?", const=1,
                    help="1 = per-layer metrics from a traced run")
    ap.add_argument("--build", type=Path, default=ROOT / ".bench_build/e2e",
                    help="build directory (default: .bench_build/e2e)")
    ap.add_argument("--out", type=Path,
                    help="also save each run's full record here as JSON")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at smoke size (one replica, "
                         "shortest run), untraced and traced")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r} (one of {names})")
    if args.seconds is None:
        args.seconds = 0 if args.smoke else spec["run_seconds"]
    build_dir = args.build.resolve()
    driver = build(build_dir)
    if driver is None:
        return 2
    if args.record_expected:
        return record_expected(driver, spec, build_dir)

    size = "smoke" if args.smoke else "full"
    modes = [0, 1] if args.smoke else [args.trace]
    selected = [args.workload] if args.workload else names
    host = {"nproc": os.cpu_count(), "cpu": cpu_model()}
    results = []
    for trace in modes:
        for name in selected:
            tmp = build_dir / f"tmp-{name}-{os.getpid()}"
            r = run_workload(driver, name, args.seed, args.seconds, trace,
                             size, tmp)
            check_names(r, spec["per_layer" if trace else "end_to_end"])
            r.update(host={**host, **r["host"]}, seed=args.seed, trace=trace,
                     size=size, seconds=args.seconds)
            results.append(r)
            for m in r["metrics"]:
                print(f"{name:<11} {m['name']:<28} {m['value']:>14.6g} "
                      f"{m['unit']}")
            for e in r["errors"]:
                print(f"{name:<11} ERROR {e}")
            print(f"{name:<11} points {r['attempted']} failed {r['failed']}",
                  flush=True)
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
                path = args.out / (f"{name}-seed{args.seed}-trace{trace}-"
                                   f"{time.time_ns()}.json")
                path.write_text(json.dumps(r, indent=1) + "\n")
    print("host " + json.dumps(results[-1]["host"]))

    # One workload: the metrics under their own names. Several: each
    # prefixed by "<workload>/" (and "trace/" for per-layer ones).
    correct = all(r["correct"] for r in results)
    metrics = {}
    for r in results:
        prefix = ("" if len(results) == 1 else
                  f"{r['workload']}/{'trace/' if r['trace'] else ''}")
        for m in r["metrics"]:
            metrics[prefix + m["name"]] = {"value": m["value"],
                                           "unit": m["unit"]}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
