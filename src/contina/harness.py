"""End-to-end replay of an experiment and machine-readable reports.

``run_replay`` executes the full protocol over a synthetic or ingested demand
stream: fit the base predictor on the training segment, seed per-(region,
flow) calibration windows from the calibration segment, then run the
deployment segment's interval -> observe -> score -> adapt cycle for every
region. Each region's whole deployment is one
``ConformalIntervalTracker.observe_series`` call, and its outcomes fill its own
slice of the dense (region, step, flow) ledger. The forecasts are computed
before that call, by one ``predict_series`` call per flow. With
``predictor_updates`` that call also updates the predictor on each step's
demand, in time order, right after forecasting the step. Predictor state is
per (region, flow) cell, and neither forecasts nor updates depend on alpha_t,
so running each cell's whole predict-then-update pass at once changes no
forecast.

Regions never read each other's state, so they are replayed in contiguous
shares, one per usable CPU, through ``shares.run_shares``: this process
replays the first share, and a forked child replays each other share and
sends its results back through a pipe. Where fork is unavailable or unsafe
(no ``os.sched_getaffinity``, or another thread alive) every region is
replayed in this process. The results, and so every output byte, are those
of a replay of one region after another.

``oracle_replay`` runs the same protocol one step at a time through the
object-path API, as the reference the engine is checked against, for every
region or for one. ``verify_audit`` checks an audited run against that
reference on the run's sampled region, without running the engine.

``write_report`` emits the summary table (per-epoch coverage / minRC / length),
a per-day per-region coverage file for dispersion plots, the full per-step
ledger, final per-region states, and a manifest that allows an exact re-run.
``read_ledger_csv`` reads a ledger file back through ``streams.read_csv_table``
(in per-CPU byte shares when it is large), and ``report_from_dir`` checks a run
directory's manifest and then recomputes its summary files from the ledger.
"""

from __future__ import annotations

import csv
import functools
import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import metrics
from .adaptation import AdaptHyperParams, RegionAdaptState, adaptive_rate, coverage_error
from .errors import ConfigError, DataFormatError, LedgerError
from .intervals import conformity_score, interval_length
from .metrics import RunLedger, coverage_gap_constant
from .predictors import PredictorSpec, make_predictor
from .shares import run_shares, usable_cpus
from .streams import (
    FLOWS,
    DemandStream,
    Observation,
    StreamSpec,
    check_gap_policy,
    check_region_filter,
    check_split_fractions,
    csv_field,
    flow_index,
    generate,
    read_csv_table,
    read_demand_csv,
    region_codes,
    region_filter,
    reject_rows,
    split,
)
from .tracker import ConformalIntervalTracker, alpha_step, conformity_scores
from .validation import check_bool, check_int, check_positive_int

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
    predictor_updates: bool = False
    predictor: PredictorSpec = field(default_factory=PredictorSpec)
    synthetic: StreamSpec | None = None
    demand_csv: str | None = None
    forecast_csv: str | None = None

    def validate(self) -> "ExperimentConfig":
        """Check each setting, before any input is read, by the code that uses it.

        A bad one raises ConfigError; each value is stored as its check returns it.
        """
        try:
            vars(self).update(self.tracker().get_params())
            self.steps_per_day = check_positive_int(self.steps_per_day, "steps_per_day")
            self.periods = check_positive_int(self.periods, "periods")
            self.seed = check_int(self.seed, "seed", 0)
            self.predictor_updates = check_bool(self.predictor_updates, "predictor_updates")
            self.train_frac, self.calib_frac = check_split_fractions(self.train_frac,
                                                                     self.calib_frac)
            self.region_threshold = check_region_filter(self.region_threshold,
                                                        self.filter_mode)
            check_gap_policy(self.gap_policy)
            if (self.synthetic is None) == (self.demand_csv is None):
                raise ValueError("exactly one of synthetic spec or demand_csv is required")
            if self.forecast_csv is not None:
                if self.predictor.kind not in ("seasonal_window", "file_backed"):
                    raise ValueError("forecast_csv conflicts with an explicit non-file predictor")
                self.predictor = PredictorSpec(kind="file_backed", path=self.forecast_csv)
            for path in (self.demand_csv,
                         self.predictor.path if self.predictor.kind == "file_backed" else None):
                if path is not None and not os.path.isfile(path):
                    raise ValueError(f"input file {path!r} does not exist")
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from None
        return self

    def hyperparams(self) -> AdaptHyperParams:
        return AdaptHyperParams(
            target_alpha=self.alpha, gamma1=self.gamma1, beta=self.beta,
            epsilon=self.epsilon,
        )

    def tracker(self) -> ConformalIntervalTracker:
        """An unfitted tracker with this run's method and hyperparameters."""
        return ConformalIntervalTracker(
            method=self.method, alpha=self.alpha, gamma=self.gamma, gamma1=self.gamma1,
            beta=self.beta, epsilon=self.epsilon, window=self.window,
            clamp_nonnegative=self.clamp_nonnegative,
        )

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["predictor"] = self.predictor.to_dict()
        d["synthetic"] = self.synthetic.to_dict() if self.synthetic else None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        unknown = set(d) - {f.name for f in cls.__dataclass_fields__.values()}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            if d.get("predictor") is not None and not isinstance(d["predictor"], PredictorSpec):
                d["predictor"] = PredictorSpec.from_dict(d["predictor"])
            if d.get("synthetic") is not None and not isinstance(d["synthetic"], StreamSpec):
                d["synthetic"] = StreamSpec.from_dict(d["synthetic"])
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

    @classmethod
    def of(cls, region, tracker: ConformalIntervalTracker) -> "RegionFinalState":
        return cls(region=region, alpha=tracker.alpha_t_, moment=tracker.moment_,
                   rate=tracker.rate_, update_sum=tracker.update_sum_)


@dataclass
class RunResult:
    config: ExperimentConfig
    ledger: RunLedger
    states: list
    window_capacity: int
    crossings: int
    dropped_regions: list
    audit: object = None  # the id of the region that verify_audit replays


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


def _replay_region(i, stream, calib, deploy, predictor, config):
    """Replay one region's deployment. Returns per-step arrays and final state."""
    region = stream.region_ids[i]
    is_cp = config.method == "cp"

    def effective(lo, hi):
        # cp centres its interval on the forecast midpoint (floats or arrays).
        if is_cp:
            mid = 0.5 * (lo + hi)
            return mid, mid
        return lo, hi

    def cell_forecasts(segment, j, y=None):
        return effective(*predictor.predict_series(
            region, FLOWS[j], segment.window_times(), segment.lags_matrix(i, j), y=y
        ))

    calib_scores = [conformity_scores(*cell_forecasts(calib, j), calib.cell_series(i, j))
                    for j in (0, 1)]

    tracker = config.tracker().fit(calib_scores[0], calib_scores[1])

    y1 = deploy.cell_series(i, 0)
    y2 = deploy.cell_series(i, 1)
    # With updates, each cell forecasts a step and then learns its demand;
    # updates never see the intervals, so they all run before the tracker.
    updates = config.predictor_updates
    forecasts = (*cell_forecasts(deploy, 0, y1 if updates else None),
                 *cell_forecasts(deploy, 1, y2 if updates else None))
    cols = tracker.observe_series(*forecasts, y1, y2)
    out = np.array(cols, dtype=np.float64).T.reshape(deploy.horizon, 2, 3)
    return out, RegionFinalState.of(region, tracker), tracker.windows_[0].capacity


def _replay_regions(stream, calib, deploy, predictor, config):
    """Replay every region; return the results in region order and the crossings.

    The regions are cut into one contiguous share per usable CPU and run by
    ``run_shares``. A forked share's predictor is the fitted one, and so is
    every cell of its share when a serial loop reaches it, because predictor
    state is per cell. Each share returns its results and the crossings its
    predictor counted; the run's crossings are those counted before the
    replay plus each share's. If shares fail, the first failing share's error
    is raised, the one a replay of one region after another would raise.
    """
    n = stream.n_regions
    w = min(n, usable_cpus())
    bounds = [k * n // w for k in range(w + 1)]

    def replay(k):
        before = getattr(predictor, "crossings", 0)
        results = [_replay_region(i, stream, calib, deploy, predictor, config)
                   for i in range(bounds[k], bounds[k + 1])]
        return results, getattr(predictor, "crossings", 0) - before

    crossings = getattr(predictor, "crossings", 0)
    shares = run_shares([functools.partial(replay, k) for k in range(w)])
    return [r for results, _ in shares for r in results], crossings + sum(d for _, d in shares)


def run_replay(config: ExperimentConfig, audit: bool = False) -> RunResult:
    """Execute one experiment end to end and return its ledger and states."""
    config.validate()
    stream, dropped = _load_stream(config)
    train, calib, deploy = split(stream, config.train_frac, config.calib_frac)
    predictor = make_predictor(config.predictor, config.alpha, config.steps_per_day)
    predictor.fit(train)

    audit_region = None
    if audit:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xA0D17]))
        audit_region = stream.region_ids[int(rng.integers(stream.n_regions))]

    results, crossings = _replay_regions(stream, calib, deploy, predictor, config)

    grid = np.stack([r[0] for r in results])  # (region, step, flow, outcome)
    ledger = RunLedger(
        region_ids=stream.region_ids,
        times=deploy.window_times(),
        covered=grid[..., 0] != 0.0,
        length=grid[..., 1],
        empty=grid[..., 2] != 0.0,
    )
    return RunResult(
        config=config,
        ledger=ledger,
        states=[r[1] for r in results],
        window_capacity=results[0][2],
        crossings=crossings,
        dropped_regions=dropped,
        audit=audit_region,
    )


def oracle_replay(config: ExperimentConfig, region=None) -> RunResult:
    """Run ``config`` one step at a time through the object-path API.

    The reference that the engine is checked against. Each region's tracker
    is seeded from per-step ``conformity_score``s of ``predictor.predict``
    forecasts; each deployment step forecasts both flows with ``predict``,
    runs ``ConformalIntervalTracker.observe`` and, with ``predictor_updates``,
    feeds each flow's demand to ``predictor.update``. It shares no code with
    ``_replay_region`` or ``observe_series``, and it is far slower.

    With ``region`` (a region id of the run) only that region is replayed,
    and the result's ledger and states hold that region alone. Regions never
    read each other's state, so its records equal those of the full replay.
    """
    config.validate()
    stream, dropped = _load_stream(config)
    train, calib, deploy = split(stream, config.train_frac, config.calib_frac)
    predictor = make_predictor(config.predictor, config.alpha, config.steps_per_day)
    predictor.fit(train)
    region_ids = stream.region_ids
    if region is not None:
        if region not in region_ids:
            raise ValueError(f"region {region!r} is not in the run")
        region_ids = (region,)
    records, states = [], []
    for region in region_ids:
        i = stream.region_ids.index(region)
        tracker = config.tracker()
        scores = ([], [])
        for _, forecasts, ys, _ in _object_steps(predictor, calib, i):
            for flow_scores, fc, y in zip(scores, tracker._effective_pair(forecasts), ys):
                flow_scores.append(conformity_score(y, fc))
        tracker.fit(*scores)
        for t, forecasts, ys, lags in _object_steps(predictor, deploy, i):
            out = tracker.observe(forecasts, ys)
            for flow, band, hit in zip(FLOWS, out.intervals, out.covered):
                records.append((t, region, flow, hit, interval_length(band), band.empty))
            if config.predictor_updates:
                for flow, y, x in zip(FLOWS, ys, lags):
                    predictor.update(Observation(t, region, flow, y, tuple(x)))
        states.append(RegionFinalState.of(region, tracker))
    return RunResult(
        config=config,
        ledger=RunLedger.from_records(records, region_ids=region_ids),
        states=states,
        window_capacity=tracker.windows_[0].capacity,
        crossings=getattr(predictor, "crossings", 0),
        dropped_regions=dropped,
    )


def _object_steps(predictor, segment, i):
    """Yield (t, forecasts, ys, lags) of region ``i``'s steps, one ``predict`` per flow."""
    region = segment.region_ids[i]
    lags = [segment.lags_matrix(i, j) for j in (0, 1)]
    ys = [segment.cell_series(i, j).tolist() for j in (0, 1)]
    for p, t in enumerate(segment.window_times().tolist()):
        forecasts = tuple(predictor.predict(region, flow, t, lags[j][p])
                          for j, flow in enumerate(FLOWS))
        yield t, forecasts, (ys[0][p], ys[1][p]), (lags[0][p], lags[1][p])


def verify_audit(result: RunResult) -> bool:
    """Check an audited run through the object path, without the engine.

    * The audited region: ``oracle_replay`` of that region alone must give
      its covered, length and empty cells at every deployment step and its
      final state, bit for bit. This shows that each emitted interval of the
      region is the one the object path builds from the data before its step.
    * Every region's final state: the alpha update reads only each step's
      miss indicator, so the final alpha, moment, rate and update sum follow
      from the ledger's covered grid alone. They are recomputed with the
      update rules of ``contina.adaptation``, over all regions at once, and
      must equal ``result.states`` bit for bit.
    """
    region = result.audit
    if region is None:
        raise LedgerError("run was executed without audit mode")
    want = oracle_replay(result.config, region=region)
    got, ref = result.ledger, want.ledger
    i = got.region_ids.index(region)
    same = np.array_equal(got.times, ref.times) and all(
        a[i].tobytes() == b[0].tobytes()
        for a, b in ((got.covered_grid, ref.covered_grid), (got.length_grid, ref.length_grid),
                     (got.empty_grid, ref.empty_grid)))
    return (same and _state_bits(result.states[i]) == _state_bits(want.states[0])
            and _states_follow_ledger(result))


def _state_bits(state: RegionFinalState) -> bytes:
    """The final alpha, moment, rate and update sum as float64 bytes."""
    return np.array([state.alpha, state.moment, state.rate, state.update_sum],
                    dtype=np.float64).tobytes()


def _states_follow_ledger(result: RunResult) -> bool:
    """Whether ``result.states`` is the alpha recurrence run on the ledger's misses."""
    cfg, ledger = result.config, result.ledger
    hp = cfg.hyperparams()
    n = ledger.n_regions
    state = RegionAdaptState(ledger.region_ids, alpha=np.full(n, cfg.alpha),
                             moment=np.zeros(n))
    update_sum = np.zeros(n)
    hits = ledger.covered_grid.astype(np.float64)  # bool arrays add as logical OR
    for p in range(ledger.horizon):
        err = coverage_error(hits[:, p, 0], hits[:, p, 1])
        state, step = alpha_step(cfg.method, state, err, cfg.gamma, hp)
        update_sum += step
    if cfg.method == "contina":
        rate = adaptive_rate(state.moment, hp)
    else:
        rate = np.full(n, cfg.gamma if cfg.method == "aci_fixed" else 0.0)
    got = np.column_stack([state.alpha, state.moment, rate, update_sum])
    return got.tobytes() == b"".join(map(_state_bits, result.states))


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
    """Write ``ledger.csv`` in (region, t, flow) row order, one region at a time.

    Rows are spelled exactly as ``csv.writer`` spells them: only the region
    label can need quoting, and ``csv_field`` spells it once per region.
    """
    t_flow = [(f"{t},", f",{flow},") for t in ledger.times.tolist() for flow in FLOWS]
    bit = ("0", "1")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(LEDGER_COLUMNS)
        for i, region in enumerate(ledger.region_ids):
            label = csv_field(region)
            fh.write("".join([
                f"{t}{label}{flow}{bit[c]},{length!r},{bit[e]}\r\n"
                for (t, flow), c, length, e in zip(
                    t_flow,
                    ledger.covered_grid[i].reshape(-1).view(np.uint8).tolist(),
                    ledger.length_grid[i].reshape(-1).tolist(),
                    ledger.empty_grid[i].reshape(-1).view(np.uint8).tolist(),
                )
            ]))


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

    The columns are parsed in bulk, labels verbatim; the rows may come in any
    order. A malformed file raises DataFormatError naming its first bad line,
    and a file whose rows do not form a complete (region, t, flow) grid gives
    a ledger whose ``validate_complete`` raises LedgerError.
    """
    table = read_csv_table(path, LEDGER_COLUMNS, (int, str, str, int, float, int), strip=False)
    flow_idx = flow_index(path, table["flow"])
    covered, empty = table["covered"], table["empty"]
    reject_rows(path, ((covered == 0) | (covered == 1)) & ((empty == 0) | (empty == 1)),
                lambda k: "covered and empty must be 0 or 1")
    region_idx, region_ids = region_codes(table["region"])
    return RunLedger._from_long(
        region_ids, t=table["t"], region_idx=region_idx, flow_idx=flow_idx,
        covered=covered == 1, length=table["length"], empty=empty == 1,
    )


def report_from_dir(out_dir, steps_per_day=None, periods=None) -> dict:
    """Recompute summary.csv and daily_coverage.csv from a run directory.

    The manifest's settings are checked before the ledger is read; a
    manifest that is not JSON, holds no ``config`` object, or whose config
    ``report`` cannot use raises DataFormatError naming the manifest.
    """
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise DataFormatError(f"{out_dir}: not a run directory (no manifest.json)")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
            raise ValueError('expected a JSON object with a "config" object')
        config = ExperimentConfig.from_dict(manifest["config"])
        config.hyperparams()
        if steps_per_day is None:
            config.steps_per_day = check_positive_int(config.steps_per_day, "steps_per_day")
        if periods is None:
            config.periods = check_positive_int(config.periods, "periods")
    except (ConfigError, TypeError, ValueError) as e:
        raise DataFormatError(f"{manifest_path}: malformed manifest: {e}") from None
    try:
        if steps_per_day is not None:
            config.steps_per_day = check_positive_int(steps_per_day, "steps_per_day")
        if periods is not None:
            config.periods = check_positive_int(periods, "periods")
    except ValueError as e:
        raise ConfigError(str(e)) from None
    ledger = read_ledger_csv(os.path.join(out_dir, "ledger.csv"))
    paths = {
        "summary": os.path.join(out_dir, "summary.csv"),
        "daily": os.path.join(out_dir, "daily_coverage.csv"),
    }
    _write_summary(ledger, config, paths["summary"])
    _write_daily(ledger, config.steps_per_day, paths["daily"])
    return paths
