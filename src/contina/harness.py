"""End-to-end replay of an experiment and machine-readable reports.

``run_replay`` executes the full protocol over a synthetic or ingested demand
stream: fit the base predictor on the training segment, seed per-(region,
flow) calibration windows from the calibration segment, then walk the
deployment segment one step at a time running predict -> interval -> observe
-> score -> adapt for every region. Regions are independent, so they can be
replayed on worker threads; each region's outcomes fill its own slice of the
dense (region, step, flow) ledger, which keeps every output file
byte-identical regardless of the worker count.

``write_report`` emits the summary table (per-epoch coverage / minRC / length),
a per-day per-region coverage file for dispersion plots, the full per-step
ledger, final per-region states, and a manifest that allows an exact re-run.
``read_ledger_csv`` parses a ledger file back in bulk.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import metrics
from .adaptation import AdaptHyperParams
from .errors import ConfigError, DataFormatError, LedgerError
from .intervals import QuantileForecast
from .metrics import BoundParams, RunLedger, coverage_gap_constant
from .predictors import PredictorSpec, make_predictor
from .streams import (
    FLOWS,
    DemandStream,
    StreamSpec,
    generate,
    parse_region,
    read_demand_csv,
    region_filter,
    region_sort_key,
    split,
)
from .tracker import METHODS, ConformalIntervalTracker
from .validation import check_in_range, check_positive, check_positive_int

LEDGER_COLUMNS = ["t", "region", "flow", "covered", "length", "empty"]
SUMMARY_COLUMNS = [
    "period", "start_t", "end_t", "steps", "cov", "min_rc", "min_rc_region",
    "length", "empty_rate", "coverage_gap_bound",
]


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one replay run."""

    method: str = "contina"
    alpha: float = 0.1
    gamma: float = 0.005
    gamma1: float = 0.005
    beta: float = 0.99
    epsilon: float = 1e-8
    window: int | None = None
    clamp_nonnegative: bool = False
    seed: int = 0
    steps_per_day: int = 24
    periods: int = 4
    train_frac: float = 0.5
    calib_frac: float = 0.25
    region_threshold: float = 0.0
    filter_mode: str = "joint"
    gap_policy: str = "abort"
    workers: int = 1
    predictor_updates: bool = False
    predictor: PredictorSpec = field(default_factory=PredictorSpec)
    synthetic: StreamSpec | None = None
    demand_csv: str | None = None
    forecast_csv: str | None = None

    def validate(self) -> "ExperimentConfig":
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        try:
            check_in_range(self.alpha, "alpha", 0.0, 1.0, inclusive=False)
            check_positive(self.gamma, "gamma")
            check_positive(self.gamma1, "gamma1")
            check_in_range(self.beta, "beta", 0.0, 1.0, inclusive=False)
            check_positive(self.epsilon, "epsilon")
            check_positive_int(self.steps_per_day, "steps_per_day")
            check_positive_int(self.periods, "periods")
            check_positive_int(self.workers, "workers")
            if self.window is not None:
                check_positive_int(self.window, "window")
            if self.region_threshold < 0:
                raise ValueError("region_threshold must be >= 0")
            if self.filter_mode not in ("joint", "per_flow"):
                raise ValueError(f"filter_mode must be joint/per_flow, got {self.filter_mode!r}")
            if self.gap_policy not in ("abort", "drop_day"):
                raise ValueError(f"gap_policy must be abort/drop_day, got {self.gap_policy!r}")
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if (self.synthetic is None) == (self.demand_csv is None):
            raise ConfigError("exactly one of synthetic spec or demand_csv is required")
        if self.forecast_csv is not None:
            if self.predictor.kind not in ("seasonal_window", "file_backed"):
                raise ConfigError(
                    "forecast_csv conflicts with an explicit non-file predictor"
                )
            self.predictor = PredictorSpec(kind="file_backed", path=self.forecast_csv)
        if self.predictor.kind == "file_backed" and not self.predictor.path:
            raise ConfigError("file_backed predictor requires a forecast CSV path")
        return self

    def hyperparams(self) -> AdaptHyperParams:
        return AdaptHyperParams(
            target_alpha=self.alpha, gamma1=self.gamma1, beta=self.beta,
            epsilon=self.epsilon,
        )

    def to_dict(self) -> dict:
        # workers is an execution knob with no effect on results, so it is
        # not part of the experiment identity (manifests stay byte-identical
        # across parallelism degrees).
        d = {
            "method": self.method,
            "alpha": self.alpha,
            "gamma": self.gamma,
            "gamma1": self.gamma1,
            "beta": self.beta,
            "epsilon": self.epsilon,
            "window": self.window,
            "clamp_nonnegative": self.clamp_nonnegative,
            "seed": self.seed,
            "steps_per_day": self.steps_per_day,
            "periods": self.periods,
            "train_frac": self.train_frac,
            "calib_frac": self.calib_frac,
            "region_threshold": self.region_threshold,
            "filter_mode": self.filter_mode,
            "gap_policy": self.gap_policy,
            "predictor_updates": self.predictor_updates,
            "predictor": self.predictor.to_dict(),
            "synthetic": self.synthetic.to_dict() if self.synthetic else None,
            "demand_csv": self.demand_csv,
            "forecast_csv": self.forecast_csv,
        }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        unknown = set(d) - {f.name for f in cls.__dataclass_fields__.values()}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if d.get("predictor") is not None and not isinstance(d["predictor"], PredictorSpec):
            d["predictor"] = PredictorSpec.from_dict(d["predictor"])
        if d.get("synthetic") is not None and not isinstance(d["synthetic"], StreamSpec):
            d["synthetic"] = StreamSpec.from_dict(d["synthetic"])
        try:
            return cls(**{k: v for k, v in d.items() if v is not None or k in
                          ("window", "synthetic", "demand_csv", "forecast_csv")})
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from None


@dataclass
class RegionFinalState:
    region: object
    alpha: float
    moment: float
    rate: float
    update_sum: float


@dataclass
class AuditRecord:
    """State snapshot taken immediately before one deployment step."""

    t: int
    region: object
    alpha_t: float
    moment: float
    window_scores: tuple            # per flow, scores in FIFO order
    window_capacity: int
    forecasts: tuple                # per flow, effective (lo, hi)
    ys: tuple
    outcome: tuple                  # (covered, length, empty) per flow
    err: float


@dataclass
class RunResult:
    config: ExperimentConfig
    ledger: RunLedger
    states: list
    window_capacity: int
    crossings: int
    dropped_regions: list
    audit: AuditRecord | None = None


def ingest_csv(config: ExperimentConfig) -> tuple[DemandStream, list]:
    """Parse, gap-check, and region-filter the configured demand CSV."""
    stream = read_demand_csv(
        config.demand_csv, gap_policy=config.gap_policy,
        steps_per_day=config.steps_per_day,
    )
    return region_filter(stream, config.region_threshold, config.filter_mode)


def _load_stream(config: ExperimentConfig) -> tuple[DemandStream, list]:
    if config.synthetic is not None:
        return region_filter(generate(config.synthetic), config.region_threshold,
                             config.filter_mode)
    return ingest_csv(config)


def _replay_region(i, stream, calib, deploy, predictor, config, audit_pos):
    """Replay one region's deployment. Returns per-step arrays and final state."""
    region = stream.region_ids[i]
    is_cp = config.method == "cp"

    def cell_forecasts(segment, j):
        lo, hi = predictor.predict_series(
            region, FLOWS[j], segment.window_times(), segment.lags_matrix(i, j)
        )
        if is_cp:
            mid = 0.5 * (lo + hi)
            return mid, mid
        return lo, hi

    calib_scores = []
    for j in (0, 1):
        lo, hi = cell_forecasts(calib, j)
        y = calib.cell_series(i, j)
        calib_scores.append(np.maximum(y - hi, lo - y))

    tracker = ConformalIntervalTracker(
        method=config.method, alpha=config.alpha, gamma=config.gamma,
        gamma1=config.gamma1, beta=config.beta, epsilon=config.epsilon,
        window=config.window, clamp_nonnegative=config.clamp_nonnegative,
    ).fit(calib_scores[0], calib_scores[1])

    n_steps = deploy.horizon
    times = deploy.window_times()
    y1 = deploy.cell_series(i, 0).tolist()
    y2 = deploy.cell_series(i, 1).tolist()

    if config.predictor_updates:
        return _replay_region_online(
            i, region, deploy, predictor, tracker, times, y1, y2, audit_pos
        )

    f1_lo, f1_hi = cell_forecasts(deploy, 0)
    f2_lo, f2_hi = cell_forecasts(deploy, 1)
    f1_lo = f1_lo.tolist()
    f1_hi = f1_hi.tolist()
    f2_lo = f2_lo.tolist()
    f2_hi = f2_hi.tolist()

    observe = tracker.observe_fast
    audit = None
    steps = [None] * n_steps
    for p in range(n_steps):
        if p == audit_pos:
            audit = _snapshot(tracker, int(times[p]), region,
                              (f1_lo[p], f1_hi[p], f2_lo[p], f2_hi[p]),
                              (y1[p], y2[p]))
        steps[p] = observe(f1_lo[p], f1_hi[p], f2_lo[p], f2_hi[p], y1[p], y2[p])
        if p == audit_pos:
            c1, l1, e1, c2, l2, e2, err = steps[p]
            audit.outcome = ((c1, l1, e1), (c2, l2, e2))
            audit.err = err
    out = np.asarray(steps)[:, :6].reshape(n_steps, 2, 3)

    state = RegionFinalState(
        region=region, alpha=tracker.alpha_t_, moment=tracker.moment_,
        rate=tracker.rate_, update_sum=tracker.update_sum_,
    )
    return out, state, audit, tracker.windows_[0].capacity


def _replay_region_online(i, region, deploy, predictor, tracker, times, y1, y2,
                          audit_pos):
    """Slow path with per-step predictor updates."""
    from .streams import Observation

    n_steps = deploy.horizon
    lags = [deploy.lags_matrix(i, j) for j in (0, 1)]
    out = np.empty((n_steps, 2, 3))
    is_cp = tracker.method == "cp"
    audit = None
    for p in range(n_steps):
        t = int(times[p])
        fcs = []
        for j in (0, 1):
            fc = predictor.predict(region, FLOWS[j], t, lags[j][p])
            if is_cp:
                m = fc.midpoint
                fc = QuantileForecast(m, m)
            fcs.append(fc)
        if p == audit_pos:
            audit = _snapshot(tracker, t, region,
                              (fcs[0].lo, fcs[0].hi, fcs[1].lo, fcs[1].hi),
                              (y1[p], y2[p]))
        c1, l1, e1, c2, l2, e2, err = tracker.observe_fast(
            fcs[0].lo, fcs[0].hi, fcs[1].lo, fcs[1].hi, y1[p], y2[p]
        )
        out[p, 0] = (c1, l1, e1)
        out[p, 1] = (c2, l2, e2)
        if p == audit_pos:
            audit.outcome = ((c1, l1, e1), (c2, l2, e2))
            audit.err = err
        for j in (0, 1):
            predictor.update(Observation(t, region, FLOWS[j],
                                         (y1[p], y2[p])[j], tuple(lags[j][p])))

    state = RegionFinalState(
        region=region, alpha=tracker.alpha_t_, moment=tracker.moment_,
        rate=tracker.rate_, update_sum=tracker.update_sum_,
    )
    return out, state, audit, tracker.windows_[0].capacity


def _snapshot(tracker, t, region, flat_forecasts, ys):
    return AuditRecord(
        t=t, region=region, alpha_t=tracker.alpha_t_, moment=tracker.moment_,
        window_scores=tuple(w.scores for w in tracker.windows_),
        window_capacity=tracker.windows_[0].capacity,
        forecasts=((flat_forecasts[0], flat_forecasts[1]),
                   (flat_forecasts[2], flat_forecasts[3])),
        ys=tuple(ys), outcome=None, err=None,
    )


def run_replay(config: ExperimentConfig, audit: bool = False) -> RunResult:
    """Execute one experiment end to end and return its ledger and states."""
    config.validate()
    stream, dropped = _load_stream(config)
    train, calib, deploy = split(stream, config.train_frac, config.calib_frac)
    predictor = make_predictor(config.predictor, config.alpha, config.steps_per_day)
    predictor.fit(train)

    audit_region = audit_pos = None
    if audit:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xA0D17]))
        audit_region = int(rng.integers(stream.n_regions))
        audit_pos = int(rng.integers(deploy.horizon))

    n = stream.n_regions
    jobs = [
        (i, stream, calib, deploy, predictor, config,
         audit_pos if i == audit_region else None)
        for i in range(n)
    ]
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(lambda args: _replay_region(*args), jobs))
    else:
        results = [_replay_region(*job) for job in jobs]

    grid = np.stack([r[0] for r in results])  # (region, step, flow, outcome)
    ledger = RunLedger(
        region_ids=stream.region_ids,
        times=deploy.window_times(),
        covered=grid[..., 0] != 0.0,
        length=grid[..., 1],
        empty=grid[..., 2] != 0.0,
    )
    audit_rec = next((r[2] for r in results if r[2] is not None), None)
    return RunResult(
        config=config,
        ledger=ledger,
        states=[r[1] for r in results],
        window_capacity=results[0][3],
        crossings=getattr(predictor, "crossings", 0),
        dropped_regions=dropped,
        audit=audit_rec,
    )


def verify_audit(result: RunResult) -> bool:
    """Re-derive the audited step from its logged pre-step state.

    Proves the emitted intervals were a pure function of data strictly before
    the step plus the step's forecasts: a fresh tracker is rebuilt from the
    snapshot and must reproduce the recorded outcome exactly, through the
    object-path API rather than the replay hot path.
    """
    snap = result.audit
    if snap is None:
        raise LedgerError("run was executed without audit mode")
    cfg = result.config
    tracker = ConformalIntervalTracker(
        method=cfg.method, alpha=cfg.alpha, gamma=cfg.gamma, gamma1=cfg.gamma1,
        beta=cfg.beta, epsilon=cfg.epsilon, window=snap.window_capacity,
        clamp_nonnegative=cfg.clamp_nonnegative,
    ).fit(snap.window_scores[0], snap.window_scores[1])
    tracker.alpha_t_ = snap.alpha_t
    tracker.moment_ = snap.moment
    forecasts = tuple(QuantileForecast(lo, hi) for lo, hi in snap.forecasts)
    outcome = tracker.observe(forecasts, snap.ys)
    for j in (0, 1):
        rec_cov, rec_len, rec_emp = snap.outcome[j]
        interval = outcome.intervals[j]
        if outcome.covered[j] != bool(rec_cov):
            return False
        if interval.empty != bool(rec_emp):
            return False
        length = 0.0 if interval.empty else interval.up - interval.low
        if length != rec_len:
            return False
    return outcome.err == snap.err


def _fmt(x) -> str:
    return repr(float(x))


def write_report(result: RunResult, out_dir) -> dict:
    """Write ledger, summary, daily coverage, states, and manifest files."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "ledger": os.path.join(out_dir, "ledger.csv"),
        "summary": os.path.join(out_dir, "summary.csv"),
        "daily": os.path.join(out_dir, "daily_coverage.csv"),
        "states": os.path.join(out_dir, "states.csv"),
        "manifest": os.path.join(out_dir, "manifest.json"),
    }
    ledger = result.ledger
    _write_ledger(ledger, paths["ledger"])

    _write_summary(ledger, result.config, paths["summary"])
    _write_daily(ledger, result.config.steps_per_day, paths["daily"])

    with open(paths["states"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["region", "alpha", "moment", "gamma", "update_sum"])
        for s in result.states:
            w.writerow([s.region, _fmt(s.alpha), _fmt(s.moment), _fmt(s.rate),
                        _fmt(s.update_sum)])

    manifest = {
        "config": result.config.to_dict(),
        "regions": list(result.ledger.region_ids),
        "dropped_regions": list(result.dropped_regions),
        "window_capacity": result.window_capacity,
        "crossings": result.crossings,
        "deploy_steps": result.ledger.horizon,
        "version": _version(),
    }
    with open(paths["manifest"], "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def _version() -> str:
    from . import __version__

    return __version__


def _write_ledger(ledger: RunLedger, path) -> None:
    """Write ``ledger.csv`` in (region, t, flow) row order, one region at a time."""
    t_col = np.repeat(ledger.times, 2).tolist()
    flow_col = list(FLOWS) * ledger.horizon
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(LEDGER_COLUMNS)
        for i, region in enumerate(ledger.region_ids):
            w.writerows(zip(
                t_col, repeat(region), flow_col,
                ledger.covered_grid[i].reshape(-1).view(np.uint8).tolist(),
                ledger.length_grid[i].reshape(-1).tolist(),
                ledger.empty_grid[i].reshape(-1).view(np.uint8).tolist(),
            ))


def _period_slices(horizon: int, periods: int):
    bounds = np.linspace(0, horizon, periods + 1).astype(int)
    return [(f"P{p + 1}", bounds[p], bounds[p + 1]) for p in range(periods)
            if bounds[p + 1] > bounds[p]]


def _write_summary(ledger: RunLedger, config: ExperimentConfig, path) -> None:
    hp = config.hyperparams()
    c = coverage_gap_constant(hp).value
    times = ledger.times
    rows = []
    chunks = _period_slices(len(times), config.periods) + [("AVG", 0, len(times))]
    for label, a, b in chunks:
        sub = ledger.steps(a, b)
        min_rc = metrics.min_regional_coverage(sub)
        rows.append([
            label,
            int(times[a]),
            int(times[b - 1]),
            b - a,
            _fmt(metrics.average_coverage(sub)),
            _fmt(min_rc.value),
            min_rc.region,
            _fmt(metrics.mean_length(sub)),
            _fmt(metrics.empty_rate(sub)),
            _fmt(c / (b - a)),
        ])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(SUMMARY_COLUMNS)
        w.writerows(rows)


def _write_daily(ledger: RunLedger, steps_per_day: int, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["day", "region", "coverage"])
        w.writerows(metrics.daily_regional_coverage(ledger, steps_per_day))


def read_ledger_csv(path) -> RunLedger:
    """Load a ledger.csv written by ``write_report``.

    The columns are parsed in bulk; the rows may come in any order. A
    malformed file raises DataFormatError naming its first bad line, and a
    file whose rows do not form a complete (region, t, flow) grid gives a
    ledger whose ``validate_complete`` raises LedgerError.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: {e}") from None
    if header != LEDGER_COLUMNS:
        raise DataFormatError(f"{path}: not a ledger file")
    opts = dict(delimiter=",", quotechar='"', comments=None, skiprows=1, ndmin=1,
                encoding="utf-8")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # blank lines are skipped
            nums = np.loadtxt(path, usecols=(0, 3, 5), dtype=np.int64, **opts)
            length = np.loadtxt(path, usecols=4, dtype=np.float64, **opts)
            labels = np.loadtxt(path, usecols=(1, 2), dtype=str, **opts)
    except ValueError as e:
        _raise_bad_ledger_line(path, e)
    if nums.size == 0:
        raise DataFormatError(f"{path}: no records")
    nums, labels = nums.reshape(-1, 3), labels.reshape(-1, 2)
    is_out = labels[:, 1] == FLOWS[1]
    flags_ok = ((nums[:, 1:] == 0) | (nums[:, 1:] == 1)).all()
    if not flags_ok or not (is_out | (labels[:, 1] == FLOWS[0])).all():
        _raise_bad_ledger_line(path, ValueError("bad flow or flag field"))
    region_idx, region_ids = _region_codes(labels[:, 0])
    return RunLedger._from_long(
        region_ids, t=nums[:, 0], region_idx=region_idx, flow_idx=is_out.astype(np.intp),
        covered=nums[:, 1] == 1, length=length, empty=nums[:, 2] == 1,
    )


def _region_codes(column: np.ndarray):
    """Region index of each row and the region ids in canonical order."""
    labels, codes = np.unique(column, return_inverse=True)
    parsed = [parse_region(s) for s in labels.tolist()]
    region_ids = sorted(parsed, key=region_sort_key)
    index = {r: i for i, r in enumerate(region_ids)}
    return np.array([index[r] for r in parsed], dtype=np.intp)[codes], region_ids


def _raise_bad_ledger_line(path, error):
    """Rescan the ledger row by row and raise DataFormatError at its first bad line."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        try:
            for row in reader:
                if row:
                    _check_ledger_row(row, f"{path}:{reader.line_num}")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path}: {e}") from None
    raise DataFormatError(f"{path}: {error}")


def _check_ledger_row(row, where):
    if len(row) != len(LEDGER_COLUMNS):
        raise DataFormatError(f"{where}: expected {len(LEDGER_COLUMNS)} fields, got {len(row)}")
    if row[2] not in FLOWS:
        raise DataFormatError(f"{where}: flow must be in/out, got {row[2]!r}")
    if row[3] not in ("0", "1") or row[5] not in ("0", "1"):
        raise DataFormatError(f"{where}: covered and empty must be 0 or 1")
    try:
        int(row[0])
        float(row[4])
    except ValueError as e:
        raise DataFormatError(f"{where}: {e}") from None


def report_from_dir(out_dir, steps_per_day=None, periods=None) -> dict:
    """Recompute summary.csv and daily_coverage.csv from a run directory."""
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    config = ExperimentConfig.from_dict(manifest["config"])
    if steps_per_day is not None:
        config.steps_per_day = steps_per_day
    if periods is not None:
        config.periods = periods
    ledger = read_ledger_csv(os.path.join(out_dir, "ledger.csv"))
    paths = {
        "summary": os.path.join(out_dir, "summary.csv"),
        "daily": os.path.join(out_dir, "daily_coverage.csv"),
    }
    _write_summary(ledger, config, paths["summary"])
    _write_daily(ledger, config.steps_per_day, paths["daily"])
    return paths


def worst_region_bound_for(config: ExperimentConfig, k_lag: int, horizon: int,
                           n_regions: int) -> float:
    """Worst-region bound using this config's adaptive constant as c1."""
    c1 = coverage_gap_constant(config.hyperparams()).value
    bp = BoundParams(c1=c1, n_regions=n_regions, horizon=horizon, k_lag=k_lag)
    return metrics.worst_region_bound(bp, config.alpha).value
