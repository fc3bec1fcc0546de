#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot-sf4 --seed 1 --seconds 20 --trace 0

Configures and builds the C++ benchmark binary into .bench_build/ (a no-op when it is
up to date), runs it with the given arguments, checks that its last output
line is the result object and that its metrics are exactly the ones
BENCHMARK.json declares for the mode, and forwards its output. Build output
goes to stderr, so stdout ends with the result line. Exits non-zero, without
printing a result, when the build, the run or the check fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("hot-sf4", "serve-sf1", "serve-sf1-gpu-lost")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the binary; returns the binary's path."""
    BUILD_DIR.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))
    return BUILD_DIR / "perfbench"


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode, if it exists."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    # The benchmark measures the engines' defaults: OCELOT_* knobs from the
    # caller's environment (encodings, partitioning, fault schedules, data
    # scale) would silently change the program measured. OCELOT_THREADS is
    # kept and recorded in the metadata.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("OCELOT_") or k == "OCELOT_THREADS"}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps it
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"perfbench binary exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("the binary's last line is not a result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        fail("result object has the wrong keys")
    declared = declared_metrics(args.trace == 1)
    if declared is not None and set(result["metrics"]) != declared:
        sys.stderr.write(proc.stdout)
        missing = sorted(declared - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - declared)
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
