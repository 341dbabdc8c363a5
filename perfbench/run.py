#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  The first call configures and builds
the tensordash library, td-sweepd and the td-perfbench harness under
.bench_build/ (Release); later calls rebuild incrementally.  Build
output and the harness's diagnostics go to stderr, so stdout holds only
the harness's JSON result line.  Exits non-zero without a result when
the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-train", "geometry-sweep", "warm-serve")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def jobs():
    return str(max(1, min(os.cpu_count() or 1, 4)))


def build():
    """Configure once, then build td-perfbench and td-sweepd."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.relpath(HERE), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "td-perfbench",
           "-j", jobs()]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        log("seed must be >= 0 and seconds in [1, 120]")
        return 2

    if not build():
        log("build failed")
        return 1

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    work_dir = os.path.join(".bench_build", "work-" + tag)
    cmd = [os.path.join(BUILD_DIR, "td-perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--sweepd", os.path.join(BUILD_DIR, "tensordash", "tools",
                                    "td-sweepd"),
           "--golden-dir", os.path.join("bench", "golden"),
           "--work-dir", work_dir,
           "--trace-out",
           os.path.join(".bench_build", "trace-%s.json" % args.workload)]
    # Own session, so a timeout can take down td-perfbench together with
    # any daemon and worker it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopping it" % RUN_TIMEOUT_S)
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1

    lines = out.rstrip("\n").split("\n")
    # Everything but the result line is diagnostics.
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        sys.stderr.write(lines[-1] + "\n")
        log("td-perfbench exited with code %d" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(lines[-1] + "\n")
        log("td-perfbench printed no result line")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
