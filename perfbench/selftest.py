#!/usr/bin/env python3
"""Exact-count self-test of the benchmark.

For every workload: two traced runs with one seed must report identical
exact counts (simulated cycles, outcome tallies, emitted and cached
bytes, journal bytes), and a run with a second seed must still pass every
reference check. Exits 0 when all hold.

Usage: python3 perfbench/selftest.py [workload ...]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("campaign_3des", "campaign_edge", "service_sharded", "first_run_cold")
SEEDS = (1, 2)
SECONDS = 3
EXACT = ("sim.site_cycles", "sim.hang_timeout_cycles", "codegen.emit_bytes",
         "codegen.cache_objects", "serve.journal_bytes")


def traced_run(workload, seed):
    p = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(SECONDS), "--trace", "1"],
                       capture_output=True, text=True, cwd=os.path.dirname(HERE))
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if p.returncode != 0 or result is None:
        sys.stderr.write(p.stderr[-4000:])
    return p.returncode, result


def exact_counts(result):
    m = result["metrics"]
    return {k: v["value"] for k, v in m.items()
            if k in EXACT or k.startswith("sim.outcome.")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    ok = True
    for w in args.workloads:
        a, b = SEEDS
        runs = [traced_run(w, a), traced_run(w, a), traced_run(w, b)]
        for seed, (rc, res) in zip((a, a, b), runs):
            if rc != 0 or res is None or not res["correct"] or res["failed"] != 0:
                print(f"FAIL {w} seed {seed}: reference checks did not pass")
                ok = False
        if all(res is not None for _, res in runs[:2]):
            first, second = exact_counts(runs[0][1]), exact_counts(runs[1][1])
            if not first or first != second:
                diff = {k: (first.get(k), second.get(k)) for k in set(first) | set(second)
                        if first.get(k) != second.get(k)}
                print(f"FAIL {w}: exact counts differ across runs of seed {a}: {diff}")
                ok = False
            else:
                print(f"ok   {w}: {len(first)} exact counts repeat; seed {b} passes")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
