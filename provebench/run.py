#!/usr/bin/env python3
"""Build and run the proving-service benchmark.

    python3 provebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds provebench/ (CMake, Release) under
.bench_build/provebench at the root of the checkout; later calls rebuild
only what changed. Build logs go to stderr. The benchmark's own output
is passed through, so the last line of stdout is its JSON result. With
--trace 1 the span log is written next to the build as
trace-<workload>-<seed>.json.

Exits non-zero without a result line when the build or the run fails,
for example in a directory that lacks the library sources.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "provebench")
WORKLOADS = ("brownout", "sapling")
BUILD_JOBS = 4
RUN_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def build():
    """Configure and build the benchmark target; returns its path."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "provebench",
         "-j", str(BUILD_JOBS)],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "provebench")


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"provebench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, f"trace-{args.workload}-{args.seed}.json")]
    # The program's GZKP_* switches (threads, ISA arm, faults, devices,
    # cache budget) are fixed by the benchmark, never by the caller's
    # environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GZKP_")}
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("provebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
