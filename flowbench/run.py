#!/usr/bin/env python3
"""Build and run one workload of the flowsched benchmark.

    python3 flowbench/run.py --workload stream|adaptive|plan \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (a Release CMake project in flowbench/ that compiles ../src) into
.bench_build/flowbench; later calls only re-check the build. The binary's
output is passed through: provenance first, and as the last line one JSON
object with the run's correctness, op counts and metrics.
"""
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "flowbench")
BUILD = os.path.join(ROOT, ".bench_build", "flowbench")
BINARY = os.path.join(BUILD, "flowbench")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout; a second caller waits, then finds
    # the build up to date.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = any(os.path.exists(os.path.join(BUILD, f))
                         for f in ("build.ninja", "Makefile"))
        if not configured:
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                + generator,
                check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "flowbench", "-j", jobs],
            check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"flowbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("flowbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
