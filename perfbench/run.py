#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and
builds the simulator library, nosq_sweepd and the perfbench program
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later calls only re-check the build. The program's output is passed
through, and its last line -- the JSON result -- is checked against
the metric names and units BENCHMARK.json declares. Exits non-zero,
printing no result, when the build, the run or that check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark targets."""
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "nosq_sweepd",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)


def commit():
    """The source tree's git commit, or "unknown" outside a checkout."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            check=True, capture_output=True, text=True).stdout.split()
        if len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(ROOT):
            return top[1]
    except (OSError, subprocess.CalledProcessError):
        pass
    return "unknown"


def check_result(line, trace):
    """Validate the result line against BENCHMARK.json; return errors."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return ["last line is not JSON: %s" % e]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys are not %s" % sorted(RESULT_KEYS)]
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return []
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    errors = []
    if set(got) != set(want):
        errors.append("metric names differ from BENCHMARK.json: missing %s, "
                      "extra %s" % (sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want))))
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            errors.append("%s unit %r, BENCHMARK.json says %r"
                          % (name, m.get("unit"), want[name]))
        if not isinstance(m.get("value"), (int, float)):
            errors.append("%s has no numeric value" % name)
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    # Short relative names inside the run directory keep the daemon's
    # socket path far below the 108-byte sun_path limit.
    run_dir = os.path.join(build_dir, "run", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(build_dir, "nosq", "nosq_sweepd"),
           "--run-dir", run_dir, "--commit", commit()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        # perfbench drains its own daemons; this stops anything a
        # crash left behind in its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass

    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    if proc.returncode != 0:
        log("benchmark exited with %d" % proc.returncode)
        return 1
    errors = check_result(lines[-1], args.trace == 1)
    if errors:
        for e in errors:
            log(e)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
