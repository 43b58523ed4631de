#!/usr/bin/env python3
"""Smoke test of the benchmark at reduced size (a few seconds per workload).

    python3 perfbench/smoke_test.py

For every workload it asserts that:
  * every end-to-end metric of BENCHMARK.json is printed with its unit by
    the untraced run, and every per-layer metric by the traced run;
  * no metric outside BENCHMARK.json appears;
  * the result is correct with no failed operations;
  * the digest of the simulated results is equal for 1 job and for the
    default job count, across two runs with the same seed, and between the
    untraced and the traced run.
Exits 0 when all hold, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_grid", "population_study", "contended_grid")
SEED = 3


def run(workload, trace, jobs=None):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
               "--size", "smoke"]
    if jobs is not None:
        command += ["--jobs", str(jobs)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} jobs={jobs}: exit {done.returncode}")
    lines = done.stdout.splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("# digest "))
    return json.loads(lines[-1]), digest


def check_metrics(label, result, expected, problems):
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    for name, unit in expected.items():
        if name not in printed:
            problems.append(f"{label}: metric {name} not printed")
        elif printed[name] != unit:
            problems.append(f"{label}: {name} printed in {printed[name]}, expected {unit}")
    for name in printed.keys() - expected.keys():
        problems.append(f"{label}: unknown metric {name}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        first, digest_first = run(workload, 0)
        _, digest_again = run(workload, 0)
        _, digest_one_job = run(workload, 0, jobs=1)
        traced, digest_traced = run(workload, 1)
        check_metrics(f"{workload} untraced", first, end_to_end, problems)
        check_metrics(f"{workload} traced", traced, per_layer, problems)
        digests = {"first": digest_first, "same seed again": digest_again,
                   "1 job": digest_one_job, "traced": digest_traced}
        if len(set(digests.values())) != 1:
            problems.append(f"{workload}: digests differ {digests}")
        print(f"smoke: {workload} digest {digest_first}", flush=True)
    for problem in problems:
        print(f"smoke: FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
