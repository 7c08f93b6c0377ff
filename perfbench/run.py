#!/usr/bin/env python3
"""HEAT ledger benchmark: build heat_ledger from source, run one workload,
print every metric by name with its unit, then one JSON result line.

    python3 perfbench/run.py --workload mult-paper --seed 1 --seconds 24

Run from the repository root. The build goes to .bench_build/ (Release).
With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones. The exit code is
non-zero when the build fails, a declared metric is missing, or any
result or self-check is wrong. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build heat_ledger (both no-ops when up to date);
    returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "heat_ledger",
         "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return BUILD / "heat_ledger"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    try:
        exe = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        log(f"build failed: {err}")
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--spans", str(traces / f"{args.workload}-{args.seed}.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_DEADLINE_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"heat_ledger did not finish within {RUN_DEADLINE_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"heat_ledger printed nothing (exit {proc.returncode})")
        return 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"heat_ledger exited {proc.returncode} without a result")
        return 3

    for line in lines[:-1]:
        print(line)
    print(f"{'run_wall_s':36s} {time.monotonic() - start:.3f} s")
    print(f"{'requests_attempted':36s} {result['attempted']} count")
    print(f"{'requests_failed':36s} {result['failed']} count")

    measured = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        log(f"declared metrics missing from the run: {', '.join(missing)}")
        return 3
    correct = bool(result["correct"]) and proc.returncode == 0
    out = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: measured[m["name"]] for m in declared},
    }
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
