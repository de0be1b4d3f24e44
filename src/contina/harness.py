"""End-to-end replay of an experiment and machine-readable reports.

``run_replay`` executes the full protocol over a synthetic or ingested demand
stream: fit the base predictor on the training segment, seed per-(region,
flow) calibration windows from the calibration segment, then run the
deployment segment's interval -> observe -> score -> adapt cycle for every
region. Each region's whole deployment is one
``ConformalIntervalTracker.observe_series`` call, and its outcomes fill its own
slice of the ledger's dense (region, step, flow) grids: covered (bool), length
(float64) and empty (bool). The forecasts are computed before that call, by
one ``predict_series`` call per flow. With
``predictor_updates`` that call also updates the predictor on each step's
demand, in time order, right after forecasting the step. Predictor state is
per (region, flow) cell, and neither forecasts nor updates depend on alpha_t,
so running each cell's whole predict-then-update pass at once changes no
forecast.

Regions never read each other's state, so they are replayed in contiguous
shares (``shares.share_ranges``) through ``shares.run_shares``: this process
replays the first share into the grids, and a forked child replays each
other share into arrays of its own and sends them back through a pipe, 10
bytes a cell. With one share (one usable CPU, fork unavailable or unsafe, or
too few region-steps) every region is replayed in this process. The results,
and so every output byte, are those of a replay of one region after another.

``oracle_replay`` runs the same protocol one step at a time through the
object-path API, as the reference the engine is checked against, for every
region or for one. ``verify_audit`` checks an audited run against that
reference on the run's sampled region, without running the engine.

``write_report`` emits the summary table (per-epoch coverage / minRC / length),
a per-day per-region coverage file for dispersion plots, the full per-step
ledger, final per-region states, and a manifest that allows an exact re-run.
A large ledger's rows are formatted in region shares too.
It also writes ``ledger.bin``, a binary mirror of the ledger that records the
sha256 of the ``ledger.csv`` bytes it mirrors.
``read_ledger_csv`` reads a ledger file back through ``streams.read_csv_table``
(in byte shares when it is large), and ``report_from_dir`` checks a run
directory's manifest and then recomputes its summary files from the ledger:
from the mirror when its checksums hold, from ``ledger.csv`` otherwise, once
its regions and steps are found to be the manifest's.
"""

from __future__ import annotations

import bisect
import csv
import functools
import hashlib
import json
import os
from array import array
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import metrics
from .adaptation import AdaptHyperParams, alpha_path
from .errors import ConfigError, DataFormatError, LedgerError
from .intervals import conformity_score, interval_length
from .metrics import RunLedger, coverage_gap_constant
from .predictors import PredictorSpec, make_predictor
from .shares import run_shares, share_ranges
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
    parse_region,
    read_csv_table,
    read_demand_csv,
    region_codes,
    region_filter,
    region_sort_key,
    reject_rows,
    split,
)
from .tracker import ConformalIntervalTracker
from .validation import check_bool, check_int, check_positive_int, check_section

LEDGER_COLUMNS = ["t", "region", "flow", "covered", "length", "empty"]
# Per-share floors (shares.share_ranges). On a 2-CPU x86_64 host run_shares took ~2.9 ms
# per further child and the replay ~6.5 us a region-step (kdep_wide, one process), so
# 4 500 region-steps cost ten children's forks; a ledger row took 0.8-1.5 us (README).
REPLAY_SHARE_MIN_STEPS = 4_500
LEDGER_SHARE_MIN_ROWS = 8_000
MIRROR_FORMAT = "contina-ledger-mirror-1"  # the format tag of ledger.bin
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

        The one check of YAML, CLI and manifest settings. A bad one raises
        ConfigError; each value is stored as its check returns it.
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
            # Text, as os.path.isfile (in _prepare) reads an int as a file descriptor.
            for key, path in (("demand_csv", self.demand_csv), ("forecast_csv", self.forecast_csv),
                              ("predictor.path", self.predictor.path)):
                if path is not None and not isinstance(path, str):
                    raise ValueError(f"{key} must be a file path, got {path!r}")
            if (self.synthetic is None) == (self.demand_csv is None):
                raise ValueError("exactly one of synthetic spec or demand_csv is required")
            if self.forecast_csv is not None:
                if self.predictor.kind not in ("seasonal_window", "file_backed"):
                    raise ValueError("forecast_csv conflicts with an explicit non-file predictor")
                self.predictor = PredictorSpec(kind="file_backed", path=self.forecast_csv)
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
        try:
            d = check_section(d, "config", cls)
            if isinstance(d.get("synthetic"), dict):  # seed and day length default to the run's
                d["synthetic"] = {"seed": d.get("seed", cls.seed),
                                  "steps_per_day": d.get("steps_per_day", cls.steps_per_day),
                                  **d["synthetic"]}
            for key, spec in (("predictor", PredictorSpec), ("synthetic", StreamSpec)):
                # A null section is absent only where its field defaults to None.
                if key in d and not isinstance(d[key], spec) and not (
                        d[key] is None and cls.__dataclass_fields__[key].default is None):
                    d[key] = spec.from_dict(check_section(d[key], key, spec))
            return cls(**d)
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


def _prepare(config: ExperimentConfig):
    """Check ``config`` and that its input files exist, then load, filter and split
    the stream and fit the predictor: ``(stream, dropped, calib, deploy, predictor)``."""
    config.validate()
    forecasts = config.predictor.path if config.predictor.kind == "file_backed" else None
    for key, path in (("demand_csv", config.demand_csv),
                      ("forecast_csv" if config.forecast_csv is not None else "predictor.path",
                       forecasts)):
        if path is not None and not os.path.isfile(path):
            fault = "is a directory" if os.path.isdir(path) else "does not exist"
            raise ConfigError(f"{key}: input file {path!r} {fault}")
    if config.synthetic is None:
        stream, dropped = ingest_csv(config)
    else:
        stream, dropped = region_filter(generate(config.synthetic), config.region_threshold,
                                        config.filter_mode)
    train, calib, deploy = split(stream, config.train_frac, config.calib_frac)
    predictor = make_predictor(config.predictor, config.alpha, config.steps_per_day)
    predictor.fit(train)
    return stream, dropped, calib, deploy, predictor


def _replay_region(i, stream, calib, deploy, predictor, config, out):
    """Replay one region's deployment into ``out``; return its final state and
    its window capacity.

    ``out`` holds the region's covered (bool), length (float64) and empty
    (bool) arrays, each of shape (step, flow). Each flow's column is filled
    from ``observe_series``' lists: the flags through ``bytes`` and the
    lengths through ``array("d")``.
    """
    region = stream.region_ids[i]
    tracker = config.tracker()

    def cell_forecasts(segment, j, y=None):
        return predictor.predict_series(region, FLOWS[j], segment.window_times(),
                                        segment.lags_matrix(i, j), y=y)

    tracker.fit(*(tracker.scores(*cell_forecasts(calib, j), calib.cell_series(i, j))
                  for j in (0, 1)))

    y1 = deploy.cell_series(i, 0)
    y2 = deploy.cell_series(i, 1)
    # With updates, each cell forecasts a step and then learns its demand;
    # updates never see the intervals, so they all run before the tracker.
    updates = config.predictor_updates
    forecasts = (*cell_forecasts(deploy, 0, y1 if updates else None),
                 *cell_forecasts(deploy, 1, y2 if updates else None))
    cov1, len1, emp1, cov2, len2, emp2 = tracker.observe_series(*forecasts, y1, y2)
    covered, length, empty = out
    for j, (c, l, e) in enumerate(((cov1, len1, emp1), (cov2, len2, emp2))):
        covered[:, j] = np.frombuffer(bytes(c), dtype=np.bool_)
        length[:, j] = np.frombuffer(array("d", l))
        empty[:, j] = np.frombuffer(bytes(e), dtype=np.bool_)
    return RegionFinalState.of(region, tracker), tracker.windows_[0].capacity


def _replay_regions(stream, calib, deploy, predictor, config):
    """Replay every region; return the ledger's covered, length and empty
    (region, step, flow) grids, the regions' results in region order and the
    crossings.

    The regions are cut into contiguous shares (``share_ranges``, with the
    ``REPLAY_SHARE_MIN_STEPS`` floor) and run by ``run_shares``. The first
    share runs in this process and fills its slice of the grids in place.
    Each other share fills arrays of its own, which its child sends back
    (10 bytes a cell), and they are copied into the grids here. A forked
    share's predictor is the fitted one, and so is every cell of its share
    when a serial loop reaches it, because predictor state is per cell. Each
    share also returns its regions' final states and window capacities and the
    crossings its predictor counted; the run's crossings are those counted
    before the replay plus each share's. If shares fail, the first failing
    share's error is raised, the one a replay of one region after another
    would raise.
    """
    shape = (stream.n_regions, deploy.horizon, 2)
    grids = (np.empty(shape, bool), np.empty(shape, np.float64), np.empty(shape, bool))

    def replay(regions, here):
        if here:
            out = tuple(g[regions.start:regions.stop] for g in grids)
        else:
            out = tuple(np.empty((len(regions), *shape[1:]), g.dtype) for g in grids)
        before = predictor.crossings
        results = [_replay_region(i, stream, calib, deploy, predictor, config,
                                  [a[k] for a in out]) for k, i in enumerate(regions)]
        return None if here else out, results, predictor.crossings - before

    crossings = predictor.crossings
    ranges = share_ranges(stream.n_regions, stream.n_regions * deploy.horizon,
                          REPLAY_SHARE_MIN_STEPS)
    shares = run_shares([functools.partial(replay, regions, k == 0)
                         for k, regions in enumerate(ranges)])
    results = []
    for k, regions in enumerate(ranges):
        out, share_results, count = shares[k]
        shares[k] = None  # each share's arrays go once they are copied
        if out is not None:
            for g, a in zip(grids, out):
                g[regions.start:regions.stop] = a
        results += share_results
        crossings += count
    return grids, results, crossings


def run_replay(config: ExperimentConfig, audit: bool = False) -> RunResult:
    """Execute one experiment end to end and return its ledger and states.

    The ledger holds the grids that ``_replay_regions`` fills, without a copy.
    """
    stream, dropped, calib, deploy, predictor = _prepare(config)
    audit_region = None
    if audit:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xA0D17]))
        audit_region = stream.region_ids[int(rng.integers(stream.n_regions))]

    (covered, length, empty), results, crossings = _replay_regions(stream, calib, deploy,
                                                                   predictor, config)
    ledger = RunLedger(region_ids=stream.region_ids, times=deploy.window_times(),
                       covered=covered, length=length, empty=empty)
    return RunResult(
        config=config,
        ledger=ledger,
        states=[state for state, _ in results],
        window_capacity=results[0][1],
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
    stream, dropped, calib, deploy, predictor = _prepare(config)
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
        crossings=predictor.crossings,
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
      from the ledger's covered grid alone. They are the last column of
      ``contina.adaptation.alpha_path``, over all regions at once, and must
      equal ``result.states`` bit for bit.
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
    cfg = result.config
    alpha, moment, rate, update_sum = alpha_path(cfg.method, got.covered_grid, cfg.gamma,
                                                 cfg.hyperparams())
    final = np.column_stack([alpha[:, -1], moment[:, -1], rate, update_sum])
    return (same and _state_bits(result.states[i]) == _state_bits(want.states[0])
            and final.tobytes() == b"".join(map(_state_bits, result.states)))


def _state_bits(state: RegionFinalState) -> bytes:
    """The final alpha, moment, rate and update sum as float64 bytes."""
    return np.array([state.alpha, state.moment, state.rate, state.update_sum],
                    dtype=np.float64).tobytes()


def _fmt(x) -> str:
    return repr(float(x))


def write_report(result: RunResult, out_dir) -> dict:
    """Write ledger, summary, daily coverage, states, and manifest files, and
    ``ledger.bin``, the ledger's binary mirror.

    The ledger must read back as written: it has steps, and its region ids
    are NUL-free ``_read_back_ids`` in ``region_sort_key`` order. Otherwise
    LedgerError is raised before any file is created.
    """
    ledger = result.ledger
    ids = sorted(set(_read_back_ids(ledger)), key=region_sort_key)  # a repeat shortens it
    if not (ledger.covered_grid.size and tuple(ids) == ledger.region_ids
            and "\0" not in "".join(map(str, ids))):
        raise LedgerError("the ledger would not read back as written: it needs steps, and "
                          "distinct region labels without a NUL in region_sort_key order")
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "ledger": os.path.join(out_dir, "ledger.csv"),
        "summary": os.path.join(out_dir, "summary.csv"),
        "daily": os.path.join(out_dir, "daily_coverage.csv"),
        "states": os.path.join(out_dir, "states.csv"),
        "manifest": os.path.join(out_dir, "manifest.json"),
        "mirror": os.path.join(out_dir, "ledger.bin"),
    }
    _write_mirror(ledger, _write_ledger(ledger, paths["ledger"]), paths["mirror"])

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
        "regions": ids,  # as read_ledger_csv gives them back, so no numpy integer
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


def _write_ledger(ledger: RunLedger, path) -> str:
    """Write ``ledger.csv`` in (region, t, flow) row order; return its bytes' sha256.

    Rows are spelled exactly as ``csv.writer`` spells them: only the region
    label can need quoting, and ``csv_field`` spells it once per region. The
    rows are formatted in contiguous region shares of at least
    ``LEDGER_SHARE_MIN_ROWS`` rows (``share_ranges``), side by side
    (``run_shares``); with one share, in this process. The file is opened
    only once every share has returned its bytes, so a failing share raises
    before ``ledger.csv`` is created. The bytes are hashed as they are written.
    """
    t_flow = [(f"{t},", f",{flow},") for t in ledger.times.tolist() for flow in FLOWS]
    n = ledger.n_regions
    parts = run_shares([functools.partial(_ledger_rows, ledger, t_flow, r)
                        for r in share_ranges(n, n * len(t_flow), LEDGER_SHARE_MIN_ROWS)])
    header = (",".join(LEDGER_COLUMNS) + "\r\n").encode()  # as csv.writer spells it
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in (header, *parts):
            fh.write(part)
            digest.update(part)
    return digest.hexdigest()


def _ledger_rows(ledger: RunLedger, t_flow, regions) -> bytes:
    """The UTF-8 ``ledger.csv`` rows of the regions at the indices ``regions``."""
    bit = ("0", "1")
    parts = []
    for i in regions:
        label = csv_field(ledger.region_ids[i])
        parts.append("".join([
            f"{t}{label}{flow}{bit[c]},{length!r},{bit[e]}\r\n"
            for (t, flow), c, length, e in zip(
                t_flow,
                ledger.covered_grid[i].reshape(-1).view(np.uint8).tolist(),
                ledger.length_grid[i].reshape(-1).tolist(),
                ledger.empty_grid[i].reshape(-1).view(np.uint8).tolist(),
            )
        ]).encode())
    return b"".join(parts)


def _mirror_layout(n_regions: int, horizon: int):
    """(dtype, count) of each array of a mirror's payload, in file order:
    ``times``, then the length, covered and empty grids in C order (region,
    step, flow). The 8-byte arrays come first, so each array is aligned."""
    cells = n_regions * horizon * 2
    return (("<i8", horizon), ("<f8", cells), ("u1", cells), ("u1", cells))


def _mirror_meta_sha256(meta: dict):
    """A sha256 seeded with the JSON of the mirror header's other keys."""
    return hashlib.sha256(json.dumps(meta, sort_keys=True).encode("ascii"))


def _read_back_ids(ledger: RunLedger) -> list:
    """``parse_region`` of each label: the region ids ``read_ledger_csv`` gives back."""
    return [parse_region("" if r is None else str(r)) for r in ledger.region_ids]


def _write_mirror(ledger: RunLedger, ledger_sha256: str, path) -> None:
    """Write ``ledger.bin``, the ledger's binary mirror.

    Line 1 is a JSON header (``sort_keys``, ASCII): the format tag, the
    sha256 of the ``ledger.csv`` bytes it mirrors, the region ids as
    ``read_ledger_csv`` gives them back (``_read_back_ids``), the horizon and
    ``payload_sha256``, the sha256 of the header's other keys (their
    ``sort_keys`` JSON) followed by the payload. The payload follows the
    header: the ``_mirror_layout`` arrays, written from their buffers.
    """
    meta = {"format": MIRROR_FORMAT, "horizon": ledger.horizon,
            "ledger_sha256": ledger_sha256, "regions": _read_back_ids(ledger)}
    arrays = (np.ascontiguousarray(ledger.times, dtype="<i8"),
              np.ascontiguousarray(ledger.length_grid, dtype="<f8"),
              ledger.covered_grid.view(np.uint8), ledger.empty_grid.view(np.uint8))
    digest = _mirror_meta_sha256(meta)
    for a in arrays:
        digest.update(a)
    header = json.dumps({**meta, "payload_sha256": digest.hexdigest()}, sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for a in arrays:
            fh.write(a)


def _read_mirror(out_dir):
    """The ledger of ``out_dir``'s ``ledger.bin``, or None when it may not stand in
    for ``ledger.csv``.

    None when the mirror is missing, its header is not one ``_write_mirror``
    writes (``horizon`` an int), its payload has the wrong size, its
    ``payload_sha256`` does not match, or its ``ledger_sha256`` is not that
    of the ``ledger.csv`` bytes on disk (or there is no ``ledger.csv``).
    Otherwise the ledger is the one ``read_ledger_csv`` would read. The
    payload is read into one buffer of the size the header gives, and
    ``ledger.csv`` is hashed through one reused 1 MiB buffer.
    """
    try:
        with open(os.path.join(out_dir, "ledger.bin"), "rb") as fh:
            head = json.loads(fh.readline())
            meta = {k: v for k, v in head.items() if k != "payload_sha256"}
            regions, horizon = meta["regions"], meta["horizon"]
            if meta["format"] != MIRROR_FORMAT or type(horizon) is not int:
                return None
            layout = _mirror_layout(len(regions), horizon)
            sizes = [np.dtype(dtype).itemsize * count for dtype, count in layout]
            size = sum(sizes)
            if os.fstat(fh.fileno()).st_size - fh.tell() != size:
                return None
            # One read into one buffer; its spare byte shows a file that grew since.
            payload = bytearray(size + 1)
            if fh.readinto(payload) != size:
                return None
        digest = _mirror_meta_sha256(meta)
        digest.update(memoryview(payload)[:size])
        if digest.hexdigest() != head["payload_sha256"]:
            return None
        digest, block = hashlib.sha256(), bytearray(1 << 20)
        with open(os.path.join(out_dir, "ledger.csv"), "rb", buffering=0) as fh, \
                memoryview(block) as view:
            while n := fh.readinto(block):
                digest.update(view[:n])
        if digest.hexdigest() != meta["ledger_sha256"]:
            return None
    except (OSError, ValueError, TypeError, KeyError, AttributeError):  # a header of another shape
        return None
    arrays, start = [], 0
    for (dtype, count), size in zip(layout, sizes):
        arrays.append(np.frombuffer(payload, dtype, count, start))
        start += size
    times, length, covered, empty = arrays
    shape = (len(regions), horizon, 2)
    return RunLedger(regions, times, covered.reshape(shape) != 0, length.reshape(shape),
                     empty.reshape(shape) != 0)


def _period_slices(horizon: int, periods: int):
    """The non-empty ``(label, start, stop)`` slices of ``periods`` equal periods.

    Bound ``p`` is ``int(p * (horizon / periods))`` for ``p < periods`` and
    ``horizon`` at the end, as ``np.linspace(0, horizon, periods + 1)`` cut to
    ints spells them, and slice ``p`` is labelled ``P<p>``. Only the bounds
    that the search for each slice's end meets are computed, so the cost
    follows the at most ``horizon`` non-empty slices, not ``periods``.
    """
    step = horizon / periods

    def bound(p):
        return int(p * step) if p < periods else horizon

    slices, p = [], 0
    while (a := bound(p)) < horizon:
        # The first bound past a: double the stride from p, then bisect the last one.
        gap = 1
        while bound(p + gap) <= a:
            gap *= 2
        lo = p + gap // 2 + 1
        p = lo + bisect.bisect_right(range(lo, p + gap), a, key=bound)
        slices.append((f"P{p}", a, bound(p)))
    return slices


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
    """Write ``daily_coverage.csv``: one ``day,region,coverage`` row per cell of
    ``metrics.daily_coverage_grid``, day by day, spelled as ``csv.writer``
    spells it.

    A day's coverage takes at most ``2 * steps_per_day + 1`` values, so each
    distinct value is spelled once, as each region label is.
    """
    cov = metrics.daily_coverage_grid(ledger, steps_per_day)
    values, inverse = np.unique(cov, return_inverse=True)
    words = np.array([repr(v) for v in values.tolist()], dtype=object)
    labels = [csv_field(r) for r in ledger.region_ids]
    rows = [f"{d},{label},{word}\r\n"
            for d, row in enumerate(words[inverse.reshape(cov.shape)].tolist())
            for label, word in zip(labels, row)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("day,region,coverage\r\n" + "".join(rows))


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

    The manifest's config goes through ``ExperimentConfig.validate`` before
    the ledger is read; a manifest that is not JSON, holds no ``config``
    object, ``regions`` list or integer ``deploy_steps``, or whose config it
    refuses raises DataFormatError naming the manifest. A bad override raises
    ConfigError.
    The ledger is read from ``ledger.bin`` when ``_read_mirror`` trusts it,
    and otherwise from ``ledger.csv``; LedgerError names its first difference
    from the manifest's regions or step count.
    """
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise DataFormatError(f"{out_dir}: not a run directory (no manifest.json)")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
                and isinstance(manifest.get("regions"), list)):
            raise ValueError('expected a JSON object with a "config" object and a "regions" list')
        deploy_steps = check_int(manifest.get("deploy_steps"), "deploy_steps", 1)
        config = ExperimentConfig.from_dict(manifest["config"]).validate()
    except (ConfigError, TypeError, ValueError) as e:
        raise DataFormatError(f"{manifest_path}: malformed manifest: {e}") from None
    overrides = {k: v for k, v in (("steps_per_day", steps_per_day), ("periods", periods))
                 if v is not None}
    if overrides:
        config = replace(config, **overrides).validate()
    ledger = _read_mirror(out_dir)
    if ledger is None:
        ledger = read_ledger_csv(os.path.join(out_dir, "ledger.csv"))
    got, want = list(ledger.region_ids), manifest["regions"]
    if got != want:
        k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        at = [repr(ids[k]) if k < len(ids) else "none" for ids in (got, want)]
        raise LedgerError(f"{out_dir}: the ledger's region at position {k} is {at[0]}, "
                          f"manifest.json's {at[1]} ({len(got)} and {len(want)} regions)")
    if ledger.horizon != deploy_steps:
        raise LedgerError(f"{out_dir}: the ledger holds {ledger.horizon} deployment steps, "
                          f"manifest.json {deploy_steps}")
    paths = {
        "summary": os.path.join(out_dir, "summary.csv"),
        "daily": os.path.join(out_dir, "daily_coverage.csv"),
    }
    _write_summary(ledger, config, paths["summary"])
    _write_daily(ledger, config.steps_per_day, paths["daily"])
    return paths

