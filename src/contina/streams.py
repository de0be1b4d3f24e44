"""Synthetic demand streams, the demand CSV wire format, and chronological splits.

A stream holds hourly inflow/outflow counts for ``n`` regions as one array of
shape (n_regions, 2, history). Views over a [start, stop) window expose the
observation sequence while sharing the backing history, so lag features stay
consistent across train/calibration/deployment boundaries.

Generation is fully determined by the stream spec's 64-bit seed: region-level
parameters and per-region noise use independent PCG64 generators spawned from
``numpy.random.SeedSequence(seed)``, so regions could be generated in parallel
without changing a single bit of output.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import DataFormatError
from .validation import check_positive_int

log = logging.getLogger(__name__)

N_LAGS = 6
FLOWS = ("in", "out")

REGIMES = ("stationary", "abrupt_shift", "drift", "heterogeneous", "k_dependent")
NOISES = ("gaussian", "negative_binomial")


@dataclass(frozen=True)
class Observation:
    """Realized demand for one (time, region, flow) cell plus lag features."""

    t: int
    region: object
    flow: str
    y: float
    lags: tuple

    def __post_init__(self):
        if self.flow not in FLOWS:
            raise ValueError(f"flow must be one of {FLOWS}, got {self.flow!r}")
        if len(self.lags) != N_LAGS:
            raise ValueError(f"expected {N_LAGS} lags, got {len(self.lags)}")
        if not math.isfinite(self.y) or self.y < 0:
            raise ValueError(f"demand must be finite and >= 0, got {self.y!r}")


@dataclass(frozen=True)
class StreamSpec:
    """Recipe for a synthetic demand stream.

    ``regime`` shapes the mean level over time:

    * ``stationary``      constant per-region level
    * ``abrupt_shift``    level (and noise scale) multiplied by ``shift_scale``
                          from step ``shift_at`` on
    * ``drift``           level grows linearly by ``drift_rate`` per step
    * ``heterogeneous``   regions change at different speeds: from ``shift_at``
                          each region's level ramps linearly to ``scale_i``
                          times its base by the end of the horizon, with
                          ``scale_i`` drawn once per region log-uniformly over
                          ``scale_range``
    * ``k_dependent``     stationary level with innovations averaged over the
                          last ``k_lag`` shocks, so innovations at distance
                          >= k_lag are independent (gaussian noise only)
    """

    n_regions: int
    horizon: int
    seed: int
    regime: str = "stationary"
    noise: str = "gaussian"
    shift_at: int | None = None
    shift_scale: float = 2.0
    drift_rate: float = 0.0
    scale_range: tuple = (1.0, 4.0)
    k_lag: int = 1
    base_level: tuple = (5.0, 25.0)
    sigma_frac: float = 0.25
    season_amp: float = 0.0
    steps_per_day: int = 24
    dispersion: float = 2.0

    def __post_init__(self):
        check_positive_int(self.n_regions, "n_regions")
        check_positive_int(self.horizon, "horizon")
        check_positive_int(self.steps_per_day, "steps_per_day")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.noise not in NOISES:
            raise ValueError(f"noise must be one of {NOISES}, got {self.noise!r}")
        if self.shift_at is not None and not 0 <= self.shift_at < self.horizon:
            raise ValueError(f"shift_at must lie within the horizon, got {self.shift_at}")
        if self.regime == "k_dependent":
            check_positive_int(self.k_lag, "k_lag")
            if self.noise != "gaussian":
                raise ValueError("k_dependent streams support gaussian noise only")
        lo, hi = self.scale_range
        if not (0 < lo <= hi):
            raise ValueError(f"scale_range must satisfy 0 < lo <= hi, got {self.scale_range}")
        b0, b1 = self.base_level
        if not (0 < b0 <= b1):
            raise ValueError(f"base_level must satisfy 0 < lo <= hi, got {self.base_level}")
        if not 0.0 <= self.season_amp < 1.0:
            raise ValueError(f"season_amp must be in [0, 1), got {self.season_amp}")
        if self.sigma_frac < 0:
            raise ValueError(f"sigma_frac must be >= 0, got {self.sigma_frac}")
        if self.noise == "negative_binomial" and self.dispersion <= 1.0:
            raise ValueError("dispersion must exceed 1 for negative_binomial noise")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["scale_range"] = list(self.scale_range)
        d["base_level"] = list(self.base_level)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "StreamSpec":
        d = dict(d)
        if "scale_range" in d:
            d["scale_range"] = tuple(d["scale_range"])
        if "base_level" in d:
            d["base_level"] = tuple(d["base_level"])
        return cls(**d)


@dataclass(frozen=True)
class DemandStream:
    """A [start, stop) window of observations over a shared demand history."""

    region_ids: tuple
    history: np.ndarray  # (n_regions, 2, total_steps), float64
    start: int = 0
    stop: int = field(default=-1)
    times: np.ndarray | None = None  # original time index per history column

    def __post_init__(self):
        if self.history.ndim != 3 or self.history.shape[1] != 2:
            raise ValueError("history must have shape (n_regions, 2, steps)")
        if len(self.region_ids) != self.history.shape[0]:
            raise ValueError("region_ids do not match history")
        stop = self.history.shape[2] if self.stop < 0 else self.stop
        object.__setattr__(self, "stop", stop)
        if not 0 <= self.start <= stop <= self.history.shape[2]:
            raise ValueError(f"bad window [{self.start}, {stop})")
        if self.times is not None and len(self.times) != self.history.shape[2]:
            raise ValueError("times do not match history length")

    @property
    def n_regions(self) -> int:
        return len(self.region_ids)

    @property
    def horizon(self) -> int:
        return self.stop - self.start

    def window_times(self) -> np.ndarray:
        if self.times is None:
            return np.arange(self.start, self.stop, dtype=np.int64)
        return self.times[self.start : self.stop]

    def cell_series(self, region_idx: int, flow_idx: int) -> np.ndarray:
        """Demand of one (region, flow) over the window."""
        return self.history[region_idx, flow_idx, self.start : self.stop]

    def lags_matrix(self, region_idx: int, flow_idx: int) -> np.ndarray:
        """(horizon, N_LAGS) lag features; history before step 0 is edge-padded."""
        series = self.history[region_idx, flow_idx]
        padded = np.concatenate([np.full(N_LAGS, series[0]), series])
        return np.lib.stride_tricks.sliding_window_view(padded, N_LAGS)[
            self.start : self.stop
        ]

    def __len__(self) -> int:
        return self.horizon * self.n_regions * 2

    def __getitem__(self, k: int) -> Observation:
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(k)
        per_step = self.n_regions * 2
        p, rest = divmod(k, per_step)
        i, j = divmod(rest, 2)
        pos = self.start + p
        t = int(self.window_times()[p])
        lags = tuple(self.lags_matrix(i, j)[p])
        return Observation(
            t=t,
            region=self.region_ids[i],
            flow=FLOWS[j],
            y=float(self.history[i, j, pos]),
            lags=lags,
        )

    def __iter__(self):
        times = self.window_times()
        for p in range(self.horizon):
            t = int(times[p])
            for i, region in enumerate(self.region_ids):
                for j, flow in enumerate(FLOWS):
                    pos = self.start + p
                    series = self.history[i, j]
                    left = max(0, pos - N_LAGS)
                    tail = series[left:pos]
                    if len(tail) < N_LAGS:
                        pad = np.full(N_LAGS - len(tail), series[0])
                        tail = np.concatenate([pad, tail])
                    yield Observation(t, region, flow, float(series[pos]), tuple(tail))


def _level_paths(spec: StreamSpec, bases: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """(n_regions, horizon) mean demand per region over time."""
    t = np.arange(spec.horizon)
    season = 1.0 + spec.season_amp * np.sin(2.0 * np.pi * (t % spec.steps_per_day) / spec.steps_per_day)
    levels = bases[:, None] * season[None, :]
    at = spec.horizon // 2 if spec.shift_at is None else spec.shift_at
    if spec.regime == "abrupt_shift":
        levels[:, at:] *= spec.shift_scale
    elif spec.regime == "heterogeneous":
        span = max(spec.horizon - 1 - at, 1)
        ramp = np.clip((t - at) / span, 0.0, 1.0)
        levels *= 1.0 + (scales - 1.0)[:, None] * ramp[None, :]
    elif spec.regime == "drift":
        levels *= np.clip(1.0 + spec.drift_rate * t, 0.0, None)[None, :]
    return levels


def generate(spec: StreamSpec) -> DemandStream:
    """Materialize the synthetic stream described by ``spec``.

    Bit-reproducible for a given spec: all randomness flows from
    SeedSequence(spec.seed) through one master generator (region-level
    parameters) and one spawned child generator per region.
    """
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_regions + 1)
    master = np.random.default_rng(children[0])
    bases = master.uniform(spec.base_level[0], spec.base_level[1], size=spec.n_regions)
    lo, hi = spec.scale_range
    scales = np.exp(master.uniform(np.log(lo), np.log(hi), size=spec.n_regions))

    levels = _level_paths(spec, bases, scales)
    y = np.empty((spec.n_regions, 2, spec.horizon), dtype=np.float64)
    for i in range(spec.n_regions):
        rng = np.random.default_rng(children[i + 1])
        if spec.noise == "gaussian":
            if spec.regime == "k_dependent":
                kk = spec.k_lag
                shocks = rng.standard_normal((2, spec.horizon + kk - 1))
                cs = np.cumsum(np.concatenate([np.zeros((2, 1)), shocks], axis=1), axis=1)
                innov = (cs[:, kk:] - cs[:, :-kk]) / np.sqrt(kk)
            else:
                innov = rng.standard_normal((2, spec.horizon))
            sigma = spec.sigma_frac * levels[i]
            y[i] = np.clip(levels[i][None, :] + sigma[None, :] * innov, 0.0, None)
        else:
            mean = np.clip(levels[i], 1e-6, None)
            p = 1.0 / spec.dispersion
            r = mean * p / (1.0 - p)
            y[i] = rng.negative_binomial(np.broadcast_to(r, (2, spec.horizon)), p).astype(
                np.float64
            )
    return DemandStream(region_ids=tuple(range(spec.n_regions)), history=y)


def region_filter(
    stream: DemandStream, threshold: float = 2.0, mode: str = "joint"
) -> tuple[DemandStream, list]:
    """Drop regions whose mean demand falls below ``threshold`` (strict).

    ``joint`` averages inflow and outflow together; ``per_flow`` drops a
    region when either flow's own mean is below the threshold.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if mode not in ("joint", "per_flow"):
        raise ValueError(f"mode must be 'joint' or 'per_flow', got {mode!r}")
    flow_means = stream.history.mean(axis=2)  # (n, 2)
    if mode == "joint":
        keep = flow_means.mean(axis=1) >= threshold
    else:
        keep = flow_means.min(axis=1) >= threshold
    dropped = [r for r, k in zip(stream.region_ids, keep) if not k]
    if not keep.any():
        raise DataFormatError(
            f"all {stream.n_regions} regions fall below the demand threshold {threshold}"
        )
    if not dropped:
        return stream, []
    kept_ids = tuple(r for r, k in zip(stream.region_ids, keep) if k)
    return (
        DemandStream(
            region_ids=kept_ids,
            history=stream.history[keep],
            start=stream.start,
            stop=stream.stop,
            times=stream.times,
        ),
        dropped,
    )


def split(
    stream: DemandStream, train_frac: float, calib_frac: float
) -> tuple[DemandStream, DemandStream, DemandStream]:
    """Chronological (train, calibration, deployment) split of the window.

    Fractions must be positive and sum to less than 1; the deployment segment
    takes the remainder. Every observation lands in exactly one segment.
    """
    if train_frac <= 0 or calib_frac <= 0:
        raise ValueError("train_frac and calib_frac must be positive")
    if train_frac + calib_frac >= 1.0:
        raise ValueError("train_frac + calib_frac must be < 1")
    total = stream.horizon
    n_train = int(train_frac * total + 0.5)
    n_calib = int(calib_frac * total + 0.5)
    if n_train < 1 or n_calib < 1 or n_train + n_calib >= total:
        raise ValueError(
            f"split of {total} steps into fractions ({train_frac}, {calib_frac}) "
            "leaves an empty segment"
        )
    b1 = stream.start + n_train
    b2 = b1 + n_calib

    def view(a, b):
        return DemandStream(
            region_ids=stream.region_ids,
            history=stream.history,
            start=a,
            stop=b,
            times=stream.times,
        )

    return view(stream.start, b1), view(b1, b2), view(b2, stream.stop)


def write_demand_csv(stream: DemandStream, path) -> None:
    """Write the window as ``t,region,inflow,outflow`` rows."""
    times = stream.window_times()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "region", "inflow", "outflow"])
        for p in range(stream.horizon):
            t = int(times[p])
            pos = stream.start + p
            for i, region in enumerate(stream.region_ids):
                w.writerow(
                    [
                        t,
                        region,
                        repr(float(stream.history[i, 0, pos])),
                        repr(float(stream.history[i, 1, pos])),
                    ]
                )


def parse_region(label: str):
    """The region identity of a label as written in a CSV file.

    A label becomes an int only when it is that int's canonical spelling
    (``str(int(label)) == label``: ASCII digits, an optional leading ``-``,
    no leading zeros); any other label stays the string it was written as.
    The rule is one-to-one, so distinct labels stay distinct regions, and a
    region written back with ``str`` parses to itself.
    """
    try:
        value = int(label)
    except ValueError:
        return label
    return value if str(value) == label else label


def region_sort_key(region):
    """Canonical region order: integer labels by value, then string labels."""
    label = parse_region(str(region))
    return (0, label, "") if isinstance(label, int) else (1, 0, label)


def read_demand_csv(path, gap_policy: str = "abort", steps_per_day: int = 24) -> DemandStream:
    """Parse a demand CSV into a stream, validating rows as they are read.

    Raises DataFormatError with the offending line number for malformed rows,
    negative demand, or duplicate (t, region) pairs. Time gaps (missing steps
    or missing region cells) follow ``gap_policy``: ``abort`` raises, while
    ``drop_day`` removes every step of each affected day and logs a warning.
    Region labels follow ``parse_region``.
    """
    if gap_policy not in ("abort", "drop_day"):
        raise ValueError(f"gap_policy must be 'abort' or 'drop_day', got {gap_policy!r}")
    cells = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t", "region", "inflow", "outflow"]:
            raise DataFormatError(f"{path}: expected header 't,region,inflow,outflow'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataFormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                t = int(row[0])
                inflow = float(row[2])
                outflow = float(row[3])
            except ValueError as e:
                raise DataFormatError(f"{path}:{lineno}: {e}") from None
            region = row[1].strip()
            if not region:
                raise DataFormatError(f"{path}:{lineno}: empty region identifier")
            for name, v in (("inflow", inflow), ("outflow", outflow)):
                if not math.isfinite(v) or v < 0:
                    raise DataFormatError(
                        f"{path}:{lineno}: {name} must be finite and >= 0, got {row}"
                    )
            key = (t, region)
            if key in cells:
                raise DataFormatError(f"{path}:{lineno}: duplicate (t={t}, region={region})")
            cells[key] = (inflow, outflow)
    if not cells:
        raise DataFormatError(f"{path}: no data rows")

    regions = sorted({r for _, r in cells}, key=region_sort_key)
    t_seen = sorted({t for t, _ in cells})
    full_range = range(t_seen[0], t_seen[-1] + 1)
    gaps = [t for t in full_range if not all((t, r) in cells for r in regions)]
    times = list(full_range)
    if gaps:
        if gap_policy == "abort":
            t0 = gaps[0]
            missing = next(r for r in regions if (t0, r) not in cells)
            raise DataFormatError(
                f"{path}: gap at t={t0} (missing region {missing}); "
                "rerun with gap_policy='drop_day' to skip affected days"
            )
        bad_days = {t // steps_per_day for t in gaps}
        times = [t for t in full_range if t // steps_per_day not in bad_days]
        log.warning(
            "%s: dropping %d day(s) with gaps: %s", path, len(bad_days), sorted(bad_days)
        )
        if not times:
            raise DataFormatError(f"{path}: every day contains gaps")

    y = np.empty((len(regions), 2, len(times)), dtype=np.float64)
    for p, t in enumerate(times):
        for i, r in enumerate(regions):
            y[i, 0, p], y[i, 1, p] = cells[(t, r)]
    return DemandStream(
        region_ids=tuple(parse_region(r) for r in regions),
        history=y,
        times=np.asarray(times, dtype=np.int64),
    )
