"""The correctness gate: the untimed check pass and the digests it compares.

For any seed the check pass shows that

* ``run_replay(audit=True)`` passes ``verify_audit``;
* a rerun through the CLI writes the same five report files, byte for byte,
  and prints the same headline line as the API run;
* ``report_from_dir`` rewrites ``summary.csv`` and ``daily_coverage.csv``
  byte for byte;
* for one seeded region, the object path (``ConformalIntervalTracker.predict``
  and ``observe`` with ``contains`` / ``interval_length``) reproduces every
  ledger row's ``covered``, ``length`` and ``empty``.

At a workload's default seed it also compares the report digests, the
headline line and the output counters with ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from contina import (
    ConformalIntervalTracker,
    QuantileForecast,
    conformity_score,
    contains,
    ingest_csv,
    interval_length,
    make_predictor,
    metrics,
    region_filter,
    report_from_dir,
    run_replay,
    split,
    verify_audit,
    write_report,
)
from contina.streams import FLOWS, generate

REPORT_FILES = ("ledger.csv", "summary.csv", "daily_coverage.csv", "states.csv", "manifest.json")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(run_dir, names=REPORT_FILES) -> dict:
    return {name: sha256(os.path.join(run_dir, name)) for name in names}


def headline(ledger) -> str:
    """The line ``contina run`` prints, computed through the Python API."""
    cov = metrics.average_coverage(ledger)
    min_rc = metrics.min_regional_coverage(ledger)
    length = metrics.mean_length(ledger)
    return (f"cov={cov:.4f} minRC={min_rc.value:.4f} "
            f"(region {min_rc.region}) length={length:.4f}")


def corrupt_one_byte(path, offset=None) -> None:
    """Flip one bit of one byte, in the middle of the file by default."""
    with open(path, "r+b") as fh:
        data = bytearray(fh.read())
        k = len(data) // 2 if offset is None else offset
        data[k] ^= 0x01
        fh.seek(0)
        fh.write(data)


class Checks:
    """Named pass/fail results of one benchmark run."""

    def __init__(self):
        self.results = []

    def record(self, name, ok, detail=""):
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})
        return ok

    def run(self, name, fn):
        """Record ``fn()``'s truth value; an exception counts as a failure."""
        try:
            return self.record(name, fn())
        except (Exception, SystemExit) as e:  # the CLI exits with its error code
            return self.record(name, False, f"{type(e).__name__}: {e}")

    @property
    def failed(self):
        return sum(not r["ok"] for r in self.results)


def _load_stream(cfg):
    if cfg.synthetic is not None:
        return region_filter(generate(cfg.synthetic), cfg.region_threshold, cfg.filter_mode)[0]
    return ingest_csv(cfg)[0]


def oracle_region(cfg, ledger, i) -> bool:
    """Re-drive region ``i``'s deployment through the object path.

    Returns True when every ledger row of the region matches the object
    path's ``covered``, ``length`` and ``empty``.
    """
    stream = _load_stream(cfg)
    train, calib, deploy = split(stream, cfg.train_frac, cfg.calib_frac)
    predictor = make_predictor(cfg.predictor, cfg.alpha, cfg.steps_per_day)
    predictor.fit(train)
    region = stream.region_ids[i]
    cp = cfg.method == "cp"

    def forecasts(lags, p, t):
        pair = []
        for j, flow in enumerate(FLOWS):
            fc = predictor.predict(region, flow, t, lags[j][p])
            pair.append(QuantileForecast(fc.midpoint, fc.midpoint) if cp else fc)
        return pair

    scores = ([], [])
    lags = [calib.lags_matrix(i, j) for j in (0, 1)]
    for p, t in enumerate(calib.window_times()):
        fcs = forecasts(lags, p, int(t))
        for j in (0, 1):
            scores[j].append(conformity_score(float(calib.cell_series(i, j)[p]), fcs[j]))
    tracker = ConformalIntervalTracker(
        method=cfg.method, alpha=cfg.alpha, gamma=cfg.gamma, gamma1=cfg.gamma1,
        beta=cfg.beta, epsilon=cfg.epsilon, window=cfg.window,
        clamp_nonnegative=cfg.clamp_nonnegative,
    ).fit(scores[0], scores[1])

    rows = []
    lags = [deploy.lags_matrix(i, j) for j in (0, 1)]
    for p, t in enumerate(deploy.window_times()):
        fcs = forecasts(lags, p, int(t))
        ys = (float(deploy.cell_series(i, 0)[p]), float(deploy.cell_series(i, 1)[p]))
        intervals = tracker.predict(fcs)
        tracker.observe(fcs, ys)
        for j in (0, 1):
            iv = intervals[j]
            rows.append((contains(iv, ys[j]), interval_length(iv), iv.empty))

    mask = ledger.region_idx == i
    expect = list(zip(ledger.covered[mask].tolist(), ledger.length[mask].tolist(),
                      ledger.empty[mask].tolist()))
    return rows == expect


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_pass(workload, checks: Checks, cli, corrupt=None) -> dict:
    """Run the untimed checks for ``workload``; returns the reference outputs.

    ``cli(args)`` runs one ``contina`` command and returns its stdout.
    ``corrupt`` names a report file in which one byte is flipped right after
    it is written; the self-test uses it to show that the gate fails.
    """
    cfg = workload.config()
    result = run_replay(cfg, audit=True)
    checks.run("audit", lambda: verify_audit(result))

    api_dir = workload.path("api")
    write_report(result, api_dir)
    if corrupt:
        corrupt_one_byte(os.path.join(api_dir, corrupt))
    ref = {
        "digests": digests(api_dir),
        "line": headline(result.ledger),
        "region_steps": result.ledger.n_regions * result.ledger.horizon,
    }
    ref["counters"] = {
        "predictors.crossings": result.crossings,
        "streams.dropped_regions": len(result.dropped_regions),
        "harness.ledger_rows": len(result.ledger.t),
        "harness.report_bytes": sum(os.path.getsize(os.path.join(api_dir, name))
                                    for name in REPORT_FILES),
    }

    def rewrite():
        report_from_dir(api_dir)
        now = digests(api_dir, ("summary.csv", "daily_coverage.csv"))
        return all(now[k] == ref["digests"][k] for k in now)

    checks.run("report_from_dir rewrites summary and daily byte-identically", rewrite)

    if workload.oracle:
        i = random.Random(workload.seed).randrange(result.ledger.n_regions)
        checks.run(f"object-path oracle on region index {i}",
                   lambda: oracle_region(cfg, result.ledger, i))

    rerun_dir = workload.path("rerun")

    def rerun():
        out = cli(workload.run_args(out=rerun_dir))
        return (out.splitlines()[0] == ref["line"]
                and digests(rerun_dir) == ref["digests"])

    checks.run("CLI rerun prints the same line and writes the same five files", rerun)

    if workload.seed == workload.default_seed and workload.size_name == "bench":
        checks.run("report digests, headline line and output counters match expected.json",
                   lambda: load_expected()[workload.name] == {
                       k: ref[k] for k in ("digests", "line", "counters")})
    return ref
