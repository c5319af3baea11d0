#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload point_ivf --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. The first run configures and builds the
library and the `perfbench` program with CMake into $CARGO_TARGET_DIR
(default `.bench_build`); later runs rebuild incrementally. The program's
stdout is passed through, so the last line is the JSON result. A copy of it,
with the host fingerprint, is kept under <build dir>/perfbench-results/, and
a traced run's spans under <build dir>/perfbench-traces/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point_ivf", "batch_flat", "fanout_remote")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def source_id():
    """Content hash of everything the measured program is built from: the
    checkout need not be a git repository."""
    h = hashlib.sha1()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".cc", ".h", ".txt"))]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()[:16]


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    return run_quiet(["cmake", "--build", out, "--target", "perfbench",
                      "-j", jobs], BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    traces = os.path.join(out, "perfbench-traces")
    results = os.path.join(out, "perfbench-results")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--source_id={source_id()}"]
    if args.trace:
        cmd.append(f"--trace_out={os.path.join(traces, tag + '.jsonl')}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    fingerprint = {}
    for line in lines:
        if line.startswith("perfbench fingerprint "):
            fingerprint = json.loads(line[len("perfbench fingerprint "):])
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        if lines:
            print(lines[-1])
        print("perfbench: no result line", file=sys.stderr)
        return 1
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "fingerprint": fingerprint, "result": result}, f, indent=1)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
