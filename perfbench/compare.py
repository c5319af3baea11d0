#!/usr/bin/env python3
"""Compares two sets of benchmark results (see perfbench/README.md).

    python3 perfbench/compare.py BASE CAND

BASE and CAND are result files written by perfbench/run.py, or directories
of them (<build dir>/perfbench-results). Results are grouped by workload and
traced/untraced run; each metric is shown as the median over the group's
seeds with the candidate's change against the base, and end-to-end metrics
that worsened by more than their BENCHMARK.json bound are flagged.

Results are only comparable when they come from the same host and build
setup. When the host fingerprints (CPU model, nproc, scan kernel, compiler,
build type) differ, a loud warning is printed and the exit code is 2.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_FIELDS = ("cpu", "nproc", "scan_kernel", "compiler", "build_type")


def load(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")] if os.path.isdir(path) else [path])
    records = []
    for f in files:
        with open(f) as fh:
            records.append(json.load(fh))
    if not records:
        sys.exit(f"compare: no results in {path}")
    return records


def fingerprints(records):
    return {json.dumps({k: r.get("fingerprint", {}).get(k) for k in
                        HOST_FIELDS}, sort_keys=True) for r in records}


def bounds():
    try:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def medians(records):
    groups = {}
    for r in records:
        key = (r["workload"], r["trace"])
        for name, m in r["result"]["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return {k: {n: statistics.median(v) for n, v in g.items()}
            for k, g in groups.items()}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, cand = load(sys.argv[1]), load(sys.argv[2])
    fb, fc = fingerprints(base), fingerprints(cand)
    mismatch = len(fb | fc) > 1
    if mismatch:
        banner = "!" * 72
        print(banner)
        print("!!! WARNING: HOST FINGERPRINTS DIFFER. These numbers are NOT")
        print("!!! comparable: a difference below may be the machine, not the")
        print("!!! code. Re-run both sides on one host.")
        for side, fps in (("base", fb), ("cand", fc)):
            for fp in sorted(fps):
                print(f"!!!   {side}: {fp}")
        print(banner)
    commits = ({r.get("fingerprint", {}).get("commit") for r in base},
               {r.get("fingerprint", {}).get("commit") for r in cand})
    print(f"base commit {sorted(commits[0])}, "
          f"cand commit {sorted(commits[1])}")

    limits = bounds()
    mb, mc = medians(base), medians(cand)
    for key in sorted(set(mb) & set(mc)):
        workload, trace = key
        print(f"\n{workload} ({'traced' if trace else 'untraced'})")
        for name in sorted(set(mb[key]) & set(mc[key])):
            b, c = mb[key][name], mc[key][name]
            delta = (c - b) / abs(b) if b else 0.0
            flag = ""
            spec = limits.get(name)
            if spec and not trace:
                worse = -delta if spec["better"] == "higher" else delta
                if worse > spec["bound"]:
                    flag = f"  REGRESSED (bound {spec['bound']:.0%})"
            print(f"  {name:40s} {b:14.6g} -> {c:14.6g}  {delta:+8.1%}{flag}")
    return 2 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
