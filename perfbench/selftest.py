#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes; takes well under a minute.

    python3 perfbench/selftest.py

1. Every workload, with ``--trace 0`` and ``--trace 1``, passes its gate and
   prints every metric that ``BENCHMARK.json`` names, with its unit.
2. Flipping one byte of any of the five report files makes the gate fail.
3. Without contina's sources next to it, ``run.py`` exits non-zero and prints
   no result.

Exits 0 when all of these hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEED = 5


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    from gate import REPORT_FILES, Checks, check_pass
    from run import WORK_DIR, cli
    from workloads import WORKLOADS

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []

    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, name, trace)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{name} trace {trace}: no result line; stderr: {proc.stderr}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if proc.returncode != 0 or not result["correct"] or got != want:
                problems.append(f"{name} trace {trace}: exit {proc.returncode}, "
                                f"correct {result['correct']}, metrics {sorted(got)}")
            print(f"{name} trace {trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")

    workload = WORKLOADS["kdep_wide"](SEED, "toy")
    shutil.rmtree(workload.dir, ignore_errors=True)
    os.makedirs(workload.dir)
    workload.materialise()
    for name in REPORT_FILES:
        checks = Checks()
        check_pass(workload, checks, cli, corrupt=name)
        print(f"one flipped byte in {name}: gate failures {checks.failed}")
        if checks.failed == 0:
            problems.append(f"a flipped byte in {name} passed the gate")

    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = run_bench(os.path.abspath(bare), "kdep_wide", 0)
    print(f"without sources: exit {proc.returncode}, stderr {proc.stderr.strip()!r}")
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("run.py ran without contina sources")
    shutil.rmtree(bare)

    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
