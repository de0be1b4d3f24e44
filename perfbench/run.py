#!/usr/bin/env python3
"""Replay benchmark for contina.

Run from the root of a source checkout (contina is imported from ``src/``)::

    python3 perfbench/run.py --workload kdep_wide --seed 11 --seconds 28 --trace 0

One run:

1. sets up the workload's inputs ``SETUP_REPEATS`` times, each in a fresh
   process that imports contina and writes the inputs with contina's writers;
2. runs the untimed check pass of ``gate.py``;
3. runs one repetition in a fresh process to read its peak memory;
4. repeats the workload (``contina run``, then ``contina report``) through
   ``contina.cli.main`` until ``--seconds`` have passed.

With ``--trace 0`` it reports the end-to-end metrics, the medians over the
repetitions. Timings are scaled to a fixed machine speed: a fixed piece of
reference work that does not touch contina is timed before each run, between
run and report, and after each report (and around each set-up), and each
wall time is multiplied by ``REFERENCE_S`` over the mean of the two
reference times around it. On a host shared with other machines this takes
out most of the drift in speed that every timing shares; the raw wall times
are printed and kept too.

With ``--trace 1`` the repetitions run in three parts of equal time: plain,
with the timed spans of ``tracing.py`` installed, and with the per-step
counters installed as well. It then reports the per-layer metrics: raw self
times (medians over the second part), counts (from the third part) and each
traced part's overhead, its scaled ``run_s`` minus the plain part's.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Every check and
every repetition is one attempt. Full results, provenance and the last traced
repetition's spans are written under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3
MIN_REPS = 3
CHILD_TIMEOUT_S = 120
# Seconds that _reference_work takes on a quiet 2-core x86_64 host; times are
# reported as if the machine ran the reference at this speed.
REFERENCE_S = 0.07

END_TO_END = {
    "run_s": "s",
    "report_s": "s",
    "region_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "streams.read_demand_csv_s": "s",
    "streams.rows_read": "count",
    "streams.generate_s": "s",
    "streams.dropped_regions": "count",
    "predictors.load_s": "s",
    "predictors.fit_s": "s",
    "predictors.predict_series_s": "s",
    "predictors.predict_series_calls": "count",
    "predictors.predict_s": "s",
    "predictors.predict_calls": "count",
    "predictors.update_s": "s",
    "predictors.update_calls": "count",
    "predictors.crossings": "count",
    "tracker.fit_s": "s",
    "tracker.observe_fast_calls": "count",
    "tracker.inflated_steps": "count",
    "tracker.empty_steps": "count",
    "windows.quantile_calls": "count",
    "harness.replay_loop_s": "s",
    "harness.us_per_region_step": "us",
    "harness.ledger_rows": "count",
    "harness.write_report_s": "s",
    "harness.report_bytes": "bytes",
    "harness.read_ledger_csv_s": "s",
    "harness.report_from_dir_s": "s",
    "metrics.headline_s": "s",
    "metrics.daily_s": "s",
    "metrics.validate_complete_calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.count_overhead_s": "s",
}


def cli(args, tracer=None) -> str:
    """Run one ``contina`` command in this process; returns what it printed."""
    import contina.cli

    main = contina.cli.main if tracer is None else tracer.span("cli", contina.cli.main)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(args, standalone_mode=False)
    return buf.getvalue()


def repetition(workload, tracer=None, between=None):
    """One timed ``contina run`` and ``contina report``: (run_s, report_s, line).

    ``between()`` runs untimed after the run and before the report.
    """
    gc.collect()
    t0 = perf_counter()
    out = cli(workload.rep_run_args(), tracer)
    run_s = perf_counter() - t0
    if between is not None:
        between()
    t0 = perf_counter()
    cli(workload.rep_report_args(), tracer)
    return run_s, perf_counter() - t0, out.splitlines()[0]


def _reference_work():
    """Fixed work that does not touch contina: float parsing and formatting,
    sorted inserts, dict updates and numpy sorts, like a replay's mix."""
    import numpy as np

    rng = random.Random(12345)
    xs = [rng.random() for _ in range(15000)]
    srt = []
    for x in xs:
        bisect.insort(srt, x)
    back = [float(v) for v in ",".join(repr(x) for x in xs).split(",")]
    table = {}
    for i, x in enumerate(back):
        table[(i % 97, i)] = x * 2.0
    a = np.array(xs)
    for _ in range(40):
        a = np.sort(a[::-1]) + 1e-9
    return len(table), float(a[0])


def reference_s() -> float:
    """Seconds the reference work takes now: a gauge of the machine's speed."""
    t0 = perf_counter()
    _reference_work()
    return perf_counter() - t0


def _child(task, workload) -> dict:
    """Run ``child.py`` in a fresh interpreter and parse its JSON line."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), task, workload.name,
           str(workload.seed), workload.size_name]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {task} failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance() -> dict:
    import numpy

    from gate import sha256

    src = os.path.join("src", "contina")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode() + sha256(os.path.join(src, name)).encode())
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _git_commit():
    """HEAD's commit when the checkout is a git work tree, read without git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _timed_reps(workload, checks, ref, seconds, tracer=None, on_rep=None):
    """Repeat the workload for ``seconds`` (at least MIN_REPS times).

    Returns (run_s, report_s, run_scale, report_scale) per repetition. The
    reference work runs before the run, between run and report, and after
    the report; each scale is REFERENCE_S over the mean of the two reference
    times around the step it scales.
    """
    from gate import digests

    samples = []
    deadline = perf_counter() + seconds
    k = 0
    refs = [reference_s()]
    while k < MIN_REPS or perf_counter() < deadline:
        k += 1
        refs[1:] = []
        try:
            run_s, report_s, line = repetition(workload, tracer,
                                               lambda: refs.append(reference_s()))
        except (Exception, SystemExit) as e:  # the CLI exits with its error code
            checks.record(f"repetition {k}", False, f"{type(e).__name__}: {e}")
            refs[:] = [reference_s()]
            continue
        refs.append(reference_s())
        run_scale = 2.0 * REFERENCE_S / (refs[0] + refs[1])
        report_scale = 2.0 * REFERENCE_S / (refs[1] + refs[2])
        refs[:] = refs[2:]
        ok = line == ref["line"]
        if workload.writes_run_dir:
            # summary.csv was rewritten with --periods 2 by the report step.
            names = ("ledger.csv", "daily_coverage.csv", "states.csv", "manifest.json")
            ok = ok and digests(workload.path("run"), names) == {n: ref["digests"][n] for n in names}
        checks.record(f"repetition {k} reproduces the reference outputs", ok)
        samples.append((run_s, report_s, run_scale, report_scale))
        if on_rep is not None:
            on_rep()
    return samples


def _scaled_run_s(samples) -> float:
    return statistics.median(s[0] * s[2] for s in samples)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def bench(workload, seconds, trace, checks, detail):
    """Run the set-up, the check pass and the repetitions; returns the metrics.

    Returns None when no repetition succeeded. ``checks`` collects every
    check and repetition; ``detail`` collects the samples.
    """
    from gate import check_pass

    reference_s()  # the first call pays for warming the allocator and caches
    if trace:
        workload.materialise()
    else:
        setup = []
        before = reference_s()
        for _ in range(SETUP_REPEATS):
            setup_s = _child("setup", workload)["setup_s"]
            after = reference_s()
            setup.append((setup_s, REFERENCE_S / (0.5 * (before + after))))
            before = after
        detail["setup_s"] = [s[0] for s in setup]

    ref = check_pass(workload, checks, cli)

    if not trace:
        peak = _child("rss", workload)["peak_rss_mb"]
        samples = _timed_reps(workload, checks, ref, seconds)
        detail.update(run_s=[s[0] for s in samples], report_s=[s[1] for s in samples],
                      run_scale=[s[2] for s in samples], report_scale=[s[3] for s in samples],
                      setup_scale=[s[1] for s in setup])
        if not samples:
            return None
        run_s = _scaled_run_s(samples)
        return {
            "run_s": run_s,
            "report_s": statistics.median(s[1] * s[3] for s in samples),
            "region_steps_per_s": ref["region_steps"] / run_s,
            "setup_s": statistics.median(s[0] * s[1] for s in setup),
            "peak_rss_mb": peak,
        }

    from tracing import DETERMINISTIC, Tracer

    plain = _timed_reps(workload, checks, ref, seconds / 3)
    tracer = Tracer()
    parts = {}
    for part, count_steps in (("timed", False), ("counted", True)):
        layers = parts[part] = []

        def collect():
            layers.append(tracer.layer_metrics())
            tracer.reset()

        tracer.install(count_steps)
        try:
            parts[part + "_samples"] = _timed_reps(workload, checks, ref, seconds / 3,
                                                   tracer, collect)
        finally:
            tracer.uninstall()
    tracer.dump(os.path.join(WORK_DIR, "results", f"{_tag(workload, trace)}.trace.json"))
    detail.update(plain=plain, **parts)
    timed, counted = parts["timed"], parts["counted"]
    if not plain or not timed or not counted:
        return None
    for key in DETERMINISTIC:
        values = {layer[key] for layer in counted}
        checks.record(f"counter {key} repeats exactly", len(values) == 1, sorted(values))
    checks.record("ledger rows match the check pass",
                  counted[0]["harness.ledger_rows"] == ref["counters"]["harness.ledger_rows"])

    metrics = {}
    for name in PER_LAYER:
        if PER_LAYER[name] == "s" and name in timed[0]:
            metrics[name] = statistics.median(layer[name] for layer in timed)
        elif name in counted[0]:
            metrics[name] = counted[0][name]
    region_steps = counted[0]["region_steps"]
    metrics["harness.us_per_region_step"] = metrics["harness.replay_loop_s"] / region_steps * 1e6
    plain_s = _scaled_run_s(plain)
    metrics["trace.overhead_s"] = _scaled_run_s(parts["timed_samples"]) - plain_s
    metrics["trace.count_overhead_s"] = _scaled_run_s(parts["counted_samples"]) - plain_s
    return metrics


def _tag(workload, trace):
    return f"{workload.name}-{workload.size_name}-seed{workload.seed}-trace{trace}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "toy"), default="bench",
                        help="toy sizes are for the self-test")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "contina", "__init__.py")):
        print(f"error: no contina sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.size)
    shutil.rmtree(workload.dir, ignore_errors=True)
    os.makedirs(workload.dir)
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)

    from gate import Checks

    started = time.time()
    checks, detail = Checks(), {}
    try:
        metrics = bench(workload, args.seconds, args.trace, checks, detail)
    except (Exception, SystemExit) as e:  # a crash of contina or of a child fails the run
        checks.record("run", False, f"{type(e).__name__}: {e}")
        metrics = None
    units = PER_LAYER if args.trace else END_TO_END
    complete = metrics is not None and set(metrics) == set(units)

    info = {
        "workload": workload.name, "size": workload.size_name, "seed": workload.seed,
        "seconds": args.seconds, "trace": args.trace, "wall_s": time.time() - started,
        "provenance": provenance(), "checks": checks.results, "samples": detail,
    }
    for name, values in detail.items():
        if name in END_TO_END and values:
            q1, q3 = _quartiles(values)
            print(f"# raw wall {name}: median {statistics.median(values):.6g} s, "
                  f"quartiles {q1:.6g}..{q3:.6g}, n={len(values)}")
    for check in checks.results:
        if not check["ok"]:
            print(f"# FAILED {check['check']}: {check['detail']}")
    for name, value in (metrics or {}).items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    print(f"# provenance {json.dumps(info['provenance'], sort_keys=True)}")

    result = {
        "correct": checks.failed == 0 and complete,
        "attempted": max(len(checks.results), 1),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in (metrics or {}).items()},
    }
    info["result"] = result
    with open(os.path.join(WORK_DIR, "results", f"{_tag(workload, args.trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
