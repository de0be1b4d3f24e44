#!/usr/bin/env python3
"""Rewrite ``expected.json``: each workload's reference outputs at its default seed.

    python3 perfbench/record_expected.py

The gate compares a run at a workload's default seed with this file: the
sha256 digests of the five report files, the headline line ``contina run``
prints, and the output counters. contina's outputs are meant to stay byte
for byte the same, so rewrite the file only for a change that alters them on
purpose, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    from gate import EXPECTED_PATH, Checks, check_pass
    from run import cli
    from workloads import WORKLOADS

    expected = {}
    for name, cls in WORKLOADS.items():
        workload = cls(cls.default_seed)
        shutil.rmtree(workload.dir, ignore_errors=True)
        os.makedirs(workload.dir)
        workload.materialise()
        checks = Checks()
        ref = check_pass(workload, checks, cli)
        # The comparison with the file being rewritten is the one check allowed to fail.
        failed = [c for c in checks.results[:-1] if not c["ok"]]
        if failed:
            print(f"{name}: checks failed, not recording: {failed}", file=sys.stderr)
            return 1
        expected[name] = {k: ref[k] for k in ("digests", "line", "counters")}
        print(f"{name} (seed {workload.seed}): {ref['line']}")
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
