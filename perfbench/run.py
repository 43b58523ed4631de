#!/usr/bin/env python3
"""Builds the qperc benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The harness and the repository's src/
libraries are built with CMake under $CARGO_TARGET_DIR (default
.bench_build) on first use; stores, caches and span files go to
.bench_out/<workload>/. The last line of standard output is the JSON
result; everything before it is a human-readable report. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_grid", "population_study", "contended_grid")
BUILD_TIMEOUT_S = 840
# Time a run may take beyond --seconds: the last timed pass (a contended_grid
# pass takes about 10 s), or the traced run's repetitions and probes.
RUN_MARGIN_S = 145
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def default_jobs():
    # Closed-loop worker count: every core this process may use, at most 4.
    return max(1, min(4, len(os.sched_getaffinity(0))))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--jobs", type=int, default=default_jobs())
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.jobs < 1:
        parser.error("--seed must be >= 0, --seconds and --jobs >= 1")
    return args


def build(root, jobs):
    """Configures (once) and builds the harness; returns the binary path."""
    source = root / "perfbench"
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no qperc sources under {root / 'src'}")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(source), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", str(jobs)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "qperc_perfbench"


def main(argv):
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    try:
        binary = build(root, args.jobs)
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    out_dir = root / ".bench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--jobs", str(args.jobs), "--size", args.size, "--out", str(out_dir)]
    timeout_s = args.seconds + RUN_MARGIN_S
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=timeout_s, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {timeout_s} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0:
        sys.stdout.write("".join(line + "\n" for line in lines if line.startswith("# ")))
        print(f"perfbench: harness exited with {run.returncode}", file=sys.stderr)
        return run.returncode
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError(f"result keys {sorted(result)}")
    except (IndexError, ValueError) as error:
        print(f"perfbench: malformed result: {error}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
