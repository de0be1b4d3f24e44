"""Fresh-process tasks of the benchmark, started by ``run.py``.

``setup``  import contina and write the workload's inputs; prints the time
           that took.
``rss``    run one repetition of the workload; prints the process's peak
           resident memory.

Usage: ``python3 perfbench/child.py {setup,rss} WORKLOAD SEED SIZE``, from the
root of the checkout. The last line of stdout is one JSON object.
"""

import json
import os
import sys
from time import perf_counter


def main():
    task, name, seed, size = sys.argv[1:5]
    t0 = perf_counter()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(bench_dir), "src"), bench_dir]
    import contina.cli  # noqa: F401  (the import is part of the set-up cost)
    from workloads import WORKLOADS

    workload = WORKLOADS[name](int(seed), size)
    if task == "setup":
        workload.materialise()
        print(json.dumps({"setup_s": perf_counter() - t0}))
    elif task == "rss":
        import resource

        from run import repetition

        repetition(workload)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"peak_rss_mb": peak_kib / 1024.0}))
    else:
        raise SystemExit(f"unknown task {task!r}")


if __name__ == "__main__":
    main()
