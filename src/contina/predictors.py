"""Base quantile predictors feeding the conformal layer.

The conformal machinery is model-agnostic, so the built-in predictors favor
transparency over accuracy:

* ``seasonal_window``        empirical quantiles of a trailing window of past
                             demand, bucketed by hour of day (optional);
* ``online_pinball_linear``  two linear heads on z-scored lag features trained
                             by pinball-loss subgradient steps;
* ``file_backed``            pass-through of externally computed forecasts
                             (the hook for plugging in any trained model).

All predictors share the same surface: ``fit(stream)``, ``predict``,
``predict_series`` (vectorized over a window), and ``update`` for online use.
Both quantile heads target the alpha/2 and 1 - alpha/2 levels.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, asdict

import numpy as np

from ._params import ParamsMixin
from .errors import DataFormatError, MissingForecastError, NotFittedError
from .intervals import QuantileForecast
from .streams import FLOWS, DemandStream, Observation, parse_region
from .validation import check_in_range, check_positive, check_positive_int
from .windows import quantile_rank

PREDICTOR_KINDS = ("seasonal_window", "online_pinball_linear", "file_backed")


def pinball_loss_low(y: float, q: float, alpha: float) -> float:
    """Pinball loss of the lower head (target quantile alpha/2)."""
    check_in_range(alpha, "alpha", 0.0, 1.0, inclusive=False)
    tau = alpha / 2.0
    u = y - q
    return np.maximum(tau * u, (tau - 1.0) * u)


def pinball_loss_high(y: float, q: float, alpha: float) -> float:
    """Pinball loss of the upper head (target quantile 1 - alpha/2)."""
    check_in_range(alpha, "alpha", 0.0, 1.0, inclusive=False)
    tau = 1.0 - alpha / 2.0
    u = y - q
    return np.maximum(tau * u, (tau - 1.0) * u)


@dataclass(frozen=True)
class PredictorSpec:
    """Which base predictor to run and its kind-specific settings."""

    kind: str = "seasonal_window"
    window_len: int = 168
    by_hour: bool = True
    step_size: float = 0.05
    epochs: int = 3
    path: str | None = None
    fallback: str = "global"

    def __post_init__(self):
        if self.kind not in PREDICTOR_KINDS:
            raise ValueError(f"kind must be one of {PREDICTOR_KINDS}, got {self.kind!r}")
        check_positive_int(self.window_len, "window_len")
        check_positive(self.step_size, "step_size")
        check_positive_int(self.epochs, "epochs")
        if self.fallback not in ("global", "error"):
            raise ValueError(f"fallback must be 'global' or 'error', got {self.fallback!r}")
        if self.kind == "file_backed" and not self.path:
            raise ValueError("file_backed predictor requires a forecast CSV path")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PredictorSpec":
        return cls(**d)


def _empirical_pair(sorted_values: np.ndarray, alpha: float) -> tuple[float, float]:
    n = len(sorted_values)
    lo = sorted_values[quantile_rank(alpha / 2.0, n) - 1]
    hi = sorted_values[quantile_rank(1.0 - alpha / 2.0, n) - 1]
    return float(lo), float(hi)


class SeasonalWindowPredictor(ParamsMixin):
    """Empirical-quantile forecasts from a trailing window of past demand.

    History is bucketed by (region, flow, hour-of-day); with ``by_hour``
    disabled a single bucket per (region, flow) is used. Cold buckets fall
    back to per-flow quantiles over the whole training window (or raise,
    per ``fallback``).
    """

    def __init__(self, alpha=0.1, window_len=168, by_hour=True, steps_per_day=24,
                 fallback="global"):
        self.alpha = check_in_range(alpha, "alpha", 0.0, 1.0, inclusive=False)
        self.window_len = check_positive_int(window_len, "window_len")
        self.by_hour = bool(by_hour)
        self.steps_per_day = check_positive_int(steps_per_day, "steps_per_day")
        self.fallback = fallback
        self._buckets = None
        self._pairs = None
        self._fallback_pair = None
        self.crossings = 0

    def _hour(self, t: int) -> int:
        return int(t) % self.steps_per_day if self.by_hour else 0

    def fit(self, stream: DemandStream):
        self._buckets = {}
        self._pairs = {}
        times = stream.window_times()
        hours = times % self.steps_per_day if self.by_hour else np.zeros_like(times)
        flow_values = {flow: [] for flow in FLOWS}
        for i, region in enumerate(stream.region_ids):
            for j, flow in enumerate(FLOWS):
                ys = stream.cell_series(i, j)
                flow_values[flow].append(ys)
                for h in np.unique(hours):
                    bucket_ys = ys[hours == h]
                    dq = deque(bucket_ys[-self.window_len :], maxlen=self.window_len)
                    key = (region, flow, int(h))
                    self._buckets[key] = dq
                    self._pairs[key] = _empirical_pair(np.sort(dq), self.alpha)
        self._fallback_pair = {}
        for flow in FLOWS:
            allv = np.sort(np.concatenate(flow_values[flow]))
            self._fallback_pair[flow] = _empirical_pair(allv, self.alpha)
        return self

    def _pair_for(self, region, flow, t):
        if self._pairs is None:
            raise NotFittedError("predictor must be fitted before predicting")
        pair = self._pairs.get((region, flow, self._hour(t)))
        if pair is None:
            if self.fallback == "global":
                return self._fallback_pair[flow]
            raise NotFittedError(
                f"no history for (region={region}, flow={flow}, hour={self._hour(t)}) "
                "and fallback is disabled"
            )
        return pair

    def predict(self, region, flow, t, lags=None) -> QuantileForecast:
        lo, hi = self._pair_for(region, flow, t)
        return QuantileForecast(lo, hi)

    def predict_series(self, region, flow, times, lags=None):
        if self.by_hour:
            table = np.array(
                [self._pair_for(region, flow, h) for h in range(self.steps_per_day)]
            )
            hours = np.asarray(times, dtype=np.int64) % self.steps_per_day
            return table[hours, 0], table[hours, 1]
        lo = np.empty(len(times))
        hi = np.empty(len(times))
        lo[:], hi[:] = self._pair_for(region, flow, 0)
        return lo, hi

    def update(self, obs: Observation) -> None:
        """Append the realized demand to its bucket and refresh its quantiles."""
        if self._buckets is None:
            raise NotFittedError("predictor must be fitted before updating")
        key = (obs.region, obs.flow, self._hour(obs.t))
        dq = self._buckets.get(key)
        if dq is None:
            dq = deque(maxlen=self.window_len)
            self._buckets[key] = dq
        dq.append(obs.y)
        self._pairs[key] = _empirical_pair(np.sort(dq), self.alpha)


class OnlinePinballLinearPredictor(ParamsMixin):
    """Per-cell linear quantile heads trained with pinball subgradient steps.

    Features are the six z-scored lags plus sine/cosine of the hour angle;
    normalization statistics come from the training window and forecasts are
    returned in original demand units. Each (region, flow) cell owns its own
    weights, so regions stay independent.
    """

    N_FEATURES = 8

    def __init__(self, alpha=0.1, step_size=0.05, epochs=3, steps_per_day=24):
        self.alpha = check_in_range(alpha, "alpha", 0.0, 1.0, inclusive=False)
        self.step_size = check_positive(step_size, "step_size")
        self.epochs = check_positive_int(epochs, "epochs")
        self.steps_per_day = check_positive_int(steps_per_day, "steps_per_day")
        self._cells = None
        self.crossings = 0

    def _features(self, cell, t, lags):
        z = (np.asarray(lags, dtype=np.float64) - cell["mu"]) / cell["sd"]
        angle = 2.0 * np.pi * (int(t) % self.steps_per_day) / self.steps_per_day
        return np.concatenate([z, [np.sin(angle), np.cos(angle)]])

    def fit(self, stream: DemandStream):
        self._cells = {}
        times = stream.window_times()
        for i, region in enumerate(stream.region_ids):
            for j, flow in enumerate(FLOWS):
                ys = stream.cell_series(i, j)
                sd = float(ys.std())
                srt = np.sort(ys)
                b_lo, b_hi = _empirical_pair(srt, self.alpha)
                cell = {
                    "mu": float(ys.mean()),
                    "sd": sd if sd > 0 else 1.0,
                    "w_lo": np.zeros(self.N_FEATURES),
                    "w_hi": np.zeros(self.N_FEATURES),
                    "b_lo": b_lo,
                    "b_hi": b_hi,
                }
                self._cells[(region, flow)] = cell
                lags = stream.lags_matrix(i, j)
                for _ in range(self.epochs):
                    for p in range(len(ys)):
                        self._step(cell, times[p], lags[p], ys[p])
        return self

    def _cell(self, region, flow):
        if self._cells is None:
            raise NotFittedError("predictor must be fitted before use")
        return self._cells[(region, flow)]

    def _step(self, cell, t, lags, y):
        x = self._features(cell, t, lags)
        g_lo, g_hi = self._head_gradients(cell, x, y)
        cell["w_lo"] -= self.step_size * g_lo * x
        cell["b_lo"] -= self.step_size * g_lo
        cell["w_hi"] -= self.step_size * g_hi * x
        cell["b_hi"] -= self.step_size * g_hi

    def _head_gradients(self, cell, x, y):
        """Subgradients of the two pinball losses w.r.t. each head's output."""
        tau_lo = self.alpha / 2.0
        tau_hi = 1.0 - self.alpha / 2.0
        q_lo = cell["b_lo"] + cell["w_lo"] @ x
        q_hi = cell["b_hi"] + cell["w_hi"] @ x
        g_lo = (1.0 - tau_lo) if y <= q_lo else -tau_lo
        g_hi = (1.0 - tau_hi) if y <= q_hi else -tau_hi
        return g_lo, g_hi

    def step_loss(self, region, flow, t, lags, y) -> float:
        """Total pinball loss (both heads) of the current weights on one point."""
        cell = self._cell(region, flow)
        x = self._features(cell, t, lags)
        q_lo = cell["b_lo"] + cell["w_lo"] @ x
        q_hi = cell["b_hi"] + cell["w_hi"] @ x
        return float(
            pinball_loss_low(y, q_lo, self.alpha) + pinball_loss_high(y, q_hi, self.alpha)
        )

    def predict(self, region, flow, t, lags) -> QuantileForecast:
        cell = self._cell(region, flow)
        x = self._features(cell, t, lags)
        fc = QuantileForecast(cell["b_lo"] + cell["w_lo"] @ x, cell["b_hi"] + cell["w_hi"] @ x)
        if fc.crossed:
            self.crossings += 1
        return fc

    def predict_series(self, region, flow, times, lags):
        cell = self._cell(region, flow)
        z = (np.asarray(lags, dtype=np.float64) - cell["mu"]) / cell["sd"]
        angle = 2.0 * np.pi * (np.asarray(times) % self.steps_per_day) / self.steps_per_day
        x = np.column_stack([z, np.sin(angle), np.cos(angle)])
        lo = cell["b_lo"] + x @ cell["w_lo"]
        hi = cell["b_hi"] + x @ cell["w_hi"]
        crossed = lo > hi
        if crossed.any():
            self.crossings += int(crossed.sum())
            lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        return lo, hi

    def update(self, obs: Observation) -> None:
        """One subgradient step on the observed cell."""
        self._step(self._cell(obs.region, obs.flow), obs.t, obs.lags, obs.y)


class FileBackedForecasts(ParamsMixin):
    """Forecasts loaded from a ``t,region,flow,q_lo,q_hi`` CSV.

    Stands in for any externally trained model: one row per (t, region, flow)
    cell, flow spelled ``in``/``out``. Crossed rows are swapped and counted at
    load time. ``update`` is a no-op.
    """

    def __init__(self, path):
        self.path = path
        self.crossings = 0
        self._table = self._load(path)

    def _load(self, path):
        table = {}
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            expect = ["t", "region", "flow", "q_lo", "q_hi"]
            if header is None or [h.strip() for h in header] != expect:
                raise DataFormatError(f"{path}: expected header 't,region,flow,q_lo,q_hi'")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 5:
                    raise DataFormatError(f"{path}:{lineno}: expected 5 fields")
                try:
                    t = int(row[0])
                    lo = float(row[3])
                    hi = float(row[4])
                except ValueError as e:
                    raise DataFormatError(f"{path}:{lineno}: {e}") from None
                region = parse_region(row[1].strip())
                flow = row[2].strip()
                if flow not in FLOWS:
                    raise DataFormatError(f"{path}:{lineno}: flow must be in/out, got {flow!r}")
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    raise DataFormatError(f"{path}:{lineno}: non-finite quantile")
                if lo > hi:
                    lo, hi = hi, lo
                    self.crossings += 1
                key = (t, region, flow)
                if key in table:
                    raise DataFormatError(f"{path}:{lineno}: duplicate forecast for {key}")
                table[key] = (lo, hi)
        if not table:
            raise DataFormatError(f"{path}: no forecast rows")
        return table

    def fit(self, stream: DemandStream):
        return self

    def _lookup(self, t, region, flow):
        pair = self._table.get((int(t), region, flow))
        if pair is None:
            raise MissingForecastError(
                f"{self.path}: no forecast row for (t={int(t)}, region={region}, flow={flow})"
            )
        return pair

    def predict(self, region, flow, t, lags=None) -> QuantileForecast:
        lo, hi = self._lookup(t, region, flow)
        return QuantileForecast(lo, hi)

    def predict_series(self, region, flow, times, lags=None):
        lo = np.empty(len(times))
        hi = np.empty(len(times))
        for p, t in enumerate(times):
            lo[p], hi[p] = self._lookup(t, region, flow)
        return lo, hi

    def update(self, obs: Observation) -> None:
        return None


def write_forecast_csv(path, rows) -> None:
    """Write (t, region, flow, q_lo, q_hi) rows in the forecast CSV format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "region", "flow", "q_lo", "q_hi"])
        for t, region, flow, lo, hi in rows:
            w.writerow([int(t), region, flow, repr(float(lo)), repr(float(hi))])


def make_predictor(spec: PredictorSpec, alpha: float, steps_per_day: int):
    """Instantiate the predictor described by ``spec``."""
    if spec.kind == "seasonal_window":
        return SeasonalWindowPredictor(
            alpha=alpha,
            window_len=spec.window_len,
            by_hour=spec.by_hour,
            steps_per_day=steps_per_day,
            fallback=spec.fallback,
        )
    if spec.kind == "online_pinball_linear":
        return OnlinePinballLinearPredictor(
            alpha=alpha,
            step_size=spec.step_size,
            epochs=spec.epochs,
            steps_per_day=steps_per_day,
        )
    return FileBackedForecasts(spec.path)
