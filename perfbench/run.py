#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]
    python3 perfbench/run.py --selftest-diverge

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and its output to stderr, so the last line of
standard output is the benchmark's JSON result. A failed build or run
exits non-zero without printing a result; so do arguments the benchmark
does not accept.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The run itself stays well inside the 180 s a run may take; this only
# guards against a wedged process.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    args = sys.argv[1:]
    binary = build()
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode:
        fail(f"benchmark exited with {proc.returncode}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
