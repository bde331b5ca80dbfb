#!/usr/bin/env python3
"""Builds and runs the RASED dashboard benchmark (see README.md).

Run from the repository root:

    python3 dashbench/run.py --workload recent-paper --seed 1 --seconds 20 --trace 0

Builds the benchmark package (this directory's CMakeLists.txt, which
compiles ../src) into $CARGO_TARGET_DIR (default .bench_build), runs the
helper tests, builds or verifies the workload's cached fixture in a process
of its own, then runs the measurement. The measurement's last stdout line
is the result object; the exit code is non-zero if any check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
FIXTURE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout):
    """Runs a step, sending its output to stderr; raises on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=timeout)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(HERE, os.pardir, "src", "CMakeLists.txt")):
        print("dashbench: the RASED sources (src/) are missing next to "
              "dashbench/; run from a full checkout", file=sys.stderr)
        return 2

    out = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(out, "dashbench")
    data = os.path.join(out, "data")
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", build,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    binary = os.path.join(build, "dashbench")
    try:
        run_quiet(configure, BUILD_TIMEOUT_S)
        run_quiet(["cmake", "--build", build, "-j", jobs, "--target",
                   "dashbench", "dashbench_helpers_test"], BUILD_TIMEOUT_S)
        run_quiet([os.path.join(build, "dashbench_helpers_test")], 60)
        run_quiet([binary, "--workload", args.workload, "--fixture-only",
                   "--data", data], FIXTURE_TIMEOUT_S)
        result = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--data", data],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"dashbench: {e}", file=sys.stderr)
        return 1

    lines = result.stdout.strip().splitlines()
    if not lines:
        print(f"dashbench: no result (exit {result.returncode})",
              file=sys.stderr)
        return result.returncode or 1
    try:
        json.loads(lines[-1])
    except ValueError:
        print("dashbench: the last line is not a result object",
              file=sys.stderr)
        return 1
    print("\n".join(lines))
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
