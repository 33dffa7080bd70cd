#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--seconds S]

Runs every workload of BENCHMARK.json, and mem-coherence, untraced
and traced at a held-out seed (not one the benchmark is tuned or
reported on) and checks that each run exits 0, prints every metric
BENCHMARK.json declares with its unit (run.py checks names and
units), passes every correctness check, prints a counter digest,
and -- traced -- writes its Chrome trace. Exits non-zero on the first failure.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 7919
# Runnable by name, but not in BENCHMARK.json (see README.md).
EXTRA_WORKLOADS = ["mem-coherence"]


def run(workload, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(HELD_OUT_SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    where = "%s trace=%d" % (workload, trace)
    if p.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (where, p.returncode, p.stderr[-3000:]))
    lines = p.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("FAIL %s: %d of %d checks failed\n%s"
                 % (where, result["failed"], result["attempted"],
                    p.stderr[-3000:]))
    if not any(re.match(r"perfbench: digest \S+ seed=\d+ [0-9a-f]{16}$", l)
               for l in lines):
        sys.exit("FAIL %s: no counter digest" % where)
    if trace:
        traces = [l.split()[2] for l in lines if l.startswith("perfbench: trace ")]
        if not traces or not os.path.exists(traces[0]):
            sys.exit("FAIL %s: no Chrome trace written" % where)
        with open(traces[0]) as f:
            events = json.load(f)["traceEvents"]
        if not events:
            sys.exit("FAIL %s: empty trace" % where)
    print("ok   %-14s trace=%d  %d metrics, %d checks"
          % (workload, trace, len(result["metrics"]), result["attempted"]),
          flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for name in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        for trace in (0, 1):
            run(name, trace, args.seconds)
    print("selftest passed (seed %d)" % HELD_OUT_SEED)


if __name__ == "__main__":
    main()
