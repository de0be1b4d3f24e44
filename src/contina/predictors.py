"""Base quantile predictors feeding the conformal layer.

The conformal machinery is model-agnostic, so the built-in predictors favor
transparency over accuracy:

* ``seasonal_window``        empirical quantiles of a trailing window of past
                             demand, bucketed by hour of day (optional); a
                             bucket's window is built on its first update;
* ``online_pinball_linear``  two linear heads on z-scored lag features trained
                             by pinball-loss subgradient steps, each head
                             summed in one fixed order;
* ``file_backed``            pass-through of externally computed forecasts
                             (the hook for plugging in any trained model).

All predictors share the same surface: ``fit(stream)``, the one-step
``predict`` and ``update(Observation)`` of the object path, and
``predict_series(region, flow, times, lags, y=None)``, which forecasts one
(region, flow) cell over a whole window. Without ``y`` the predictor stays
frozen. With ``y`` (the cell's realized demand) each step is forecast and then
learned from, in time order, so the outputs and the state left behind equal
those of ``predict`` then ``update`` at every step. Predictor state is per
cell, so cells can be run one after another. Both quantile heads target the
alpha/2 and 1 - alpha/2 levels. A frozen ``predict_series`` gives the same
bits as ``predict`` at each step.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass, asdict

import numpy as np

from ._params import ParamsMixin
from .errors import DataFormatError, MissingForecastError, NotFittedError
from .intervals import QuantileForecast
from .streams import (
    FLOWS,
    DemandStream,
    Observation,
    csv_label,
    flow_index,
    read_csv_table,
    region_codes,
    reject_rows,
    unrepeated,
)
from .validation import check_bool, check_in_range, check_positive, check_positive_int
from .windows import CalibrationWindow, quantile_rank, quantile_ranks

PREDICTOR_KINDS = ("seasonal_window", "online_pinball_linear", "file_backed")


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
        # Each setting is checked by the constructor that takes it and kept as it returns it.
        checked = {
            **SeasonalWindowPredictor(window_len=self.window_len, by_hour=self.by_hour,
                                      fallback=self.fallback).get_params(),
            **OnlinePinballLinearPredictor(step_size=self.step_size,
                                           epochs=self.epochs).get_params(),
        }
        for name in ("window_len", "by_hour", "fallback", "step_size", "epochs"):
            object.__setattr__(self, name, checked[name])
        if self.kind == "file_backed" and not self.path:
            raise ValueError("file_backed predictor requires a forecast CSV path")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PredictorSpec":
        return cls(**d)


def _demand(y, times) -> np.ndarray:
    """A cell's realized demand as a float64 array, checked by the ``Observation`` rule."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (len(times),):
        raise ValueError(f"expected {len(times)} demand values, got shape {y.shape}")
    bad = ~(np.isfinite(y) & (y >= 0))
    if bad.any():
        raise ValueError(f"demand must be finite and >= 0, got {float(y[np.argmax(bad)])!r}")
    return y


def _check_training_demand(stream: DemandStream) -> None:
    """Refuse a training window whose demand breaks the ``_demand`` rule.

    The error names the first bad cell in (region, flow, t) order.
    """
    y = stream.history[:, :, stream.start : stream.stop]
    bad = ~(np.isfinite(y) & (y >= 0))
    if bad.any():
        i, j, p = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            f"demand must be finite and >= 0, got {float(y[i, j, p])!r} at (region="
            f"{stream.region_ids[i]!r}, flow={FLOWS[j]}, t={int(stream.window_times()[p])})")


def _head(b, w, x):
    """A linear head's output ``b + x[0]*w[0] + ... + x[7]*w[7]``, summed left to right.

    ``x`` holds one step's features as floats, or a series' feature columns as
    arrays. Both sum in this one order, so a series forecast equals the
    per-step forecast bit for bit.
    """
    q = b
    for wk, xk in zip(w, x):
        q = q + xk * wk
    return q


def _empirical_pair(values, alpha: float) -> tuple[float, float]:
    """The alpha/2 and 1 - alpha/2 quantiles of ``values``, as a stable sort orders them.

    Among floats only -0.0 and 0.0 tie with different bits, so the default
    sort, with its zeros put back in arrival order, equals a stable sort bit
    for bit at a fraction of its cost.
    """
    flat = np.ravel(values)
    srt = np.sort(flat)
    zeros = flat[flat == 0.0]
    first = np.searchsorted(srt, 0.0)
    srt[first : first + len(zeros)] = zeros
    n = len(srt)
    lo = srt[quantile_rank(alpha / 2.0, n) - 1]
    hi = srt[quantile_rank(1.0 - alpha / 2.0, n) - 1]
    return float(lo), float(hi)


class SeasonalWindowPredictor(ParamsMixin):
    """Empirical-quantile forecasts from a trailing window of past demand.

    History is bucketed by (region, flow, hour-of-day); with ``by_hour``
    disabled a single bucket per (region, flow) is used. ``fit`` keeps each
    bucket's last ``window_len`` training values and reads its quantile pair
    off one stable sort of them. A bucket becomes a :class:`CalibrationWindow`
    of those values on its first update, so a frozen predictor builds no
    window; its pairs are bit for bit those of eagerly built windows. Cold
    buckets fall back to per-flow quantiles over the whole training window
    (or raise, per ``fallback``); one that learns starts from an empty window.
    """

    def __init__(self, alpha=0.1, window_len=168, by_hour=True, steps_per_day=24,
                 fallback="global"):
        self.alpha = check_in_range(alpha, "alpha", 0.0, 1.0)
        self.window_len = check_positive_int(window_len, "window_len")
        self.by_hour = check_bool(by_hour, "by_hour")
        self.steps_per_day = check_positive_int(steps_per_day, "steps_per_day")
        if fallback not in ("global", "error"):
            raise ValueError(f"fallback must be 'global' or 'error', got {fallback!r}")
        self.fallback = fallback
        self._capacity = None
        self._buckets = None  # the buckets that have learned, as windows
        self._values = None  # the fit values of the buckets that have not
        self._pairs = None
        self._fallback_pair = None
        self.crossings = 0

    def _hours(self, t):
        """The hour bucket of step ``t``, an int or an int64 array (0 without ``by_hour``)."""
        return t % (self.steps_per_day if self.by_hour else 1)

    def _by_hour(self, hours):
        """Steps grouped by hour: ``(order, bucket_hours, bounds)``.

        ``order`` is one stable argsort of ``hours``, so bucket ``k`` holds the
        steps ``order[bounds[k]:bounds[k + 1]]`` of hour ``bucket_hours[k]``,
        in time order. The hours are sorted as the narrowest integers that
        hold them (int8 for 24 steps a day), which numpy sorts by radix.
        """
        hours = hours.astype(np.min_scalar_type(-self.steps_per_day))
        order = np.argsort(hours, kind="stable")
        srt = hours[order]
        starts = [0, *(np.flatnonzero(srt[1:] != srt[:-1]) + 1).tolist()] if len(srt) else []
        return order, srt[starts].tolist(), [*starts, len(srt)]

    def fit(self, stream: DemandStream):
        _check_training_demand(stream)
        order, bucket_hours, bounds = self._by_hour(self._hours(stream.window_times()))
        self._capacity = self.window_len
        self._buckets, self._values, self._pairs = {}, {}, {}
        for h, a, b in zip(bucket_hours, bounds, bounds[1:]):
            # Every cell's last window_len values of hour h, shape (regions, flows, n).
            steps = stream.start + order[max(a, b - self.window_len) : b]
            values = stream.history[:, :, steps].astype(np.float64, copy=False)
            # Stable, so tied -0.0 and 0.0 keep arrival order, as in a CalibrationWindow.
            srt = np.sort(values, kind="stable")
            n = srt.shape[-1]
            lo = srt[..., quantile_rank(self.alpha / 2.0, n) - 1].tolist()
            hi = srt[..., quantile_rank(1.0 - self.alpha / 2.0, n) - 1].tolist()
            for i, region in enumerate(stream.region_ids):
                for j, flow in enumerate(FLOWS):
                    key = (region, flow, h)
                    self._values[key] = values[i, j]
                    self._pairs[key] = (lo[i][j], hi[i][j])
        self._fallback_pair = {}
        for j, flow in enumerate(FLOWS):
            self._fallback_pair[flow] = _empirical_pair(
                stream.history[:, j, stream.start : stream.stop], self.alpha)
        return self

    def _pair_for(self, region, flow, t):
        if self._pairs is None:
            raise NotFittedError("predictor must be fitted before predicting")
        hour = self._hours(int(t))
        pair = self._pairs.get((region, flow, hour))
        if pair is None:
            if self.fallback == "global":
                return self._fallback_pair[flow]
            raise NotFittedError(
                f"no history for (region={region}, flow={flow}, hour={hour}) "
                "and fallback is disabled"
            )
        return pair

    def predict(self, region, flow, t, lags=None) -> QuantileForecast:
        lo, hi = self._pair_for(region, flow, t)
        return QuantileForecast(lo, hi)

    def predict_series(self, region, flow, times, lags=None, y=None):
        """One pass over the hour buckets that ``times`` touch.

        Buckets never read each other's state. Frozen, each bucket's pair is
        repeated over its steps. With ``y``, each bucket's steps run as one
        :meth:`CalibrationWindow.push_series`, reading the positions that one
        ``quantile_ranks`` call over the whole cell gives, and a step's
        forecast is its bucket's pair before the step's push. Either way
        ``lo`` and ``hi`` are written with one scatter each, through the
        grouping order. Under ``fallback="error"`` only the steps before the
        earliest step of a cold bucket run, then that step raises.
        """
        if self._pairs is None:
            raise NotFittedError("predictor must be fitted before predicting")
        ys = None if y is None else _demand(y, times)
        hours = self._hours(np.asarray(times, dtype=np.int64))
        order, bucket_hours, bounds = self._by_hour(hours)
        pairs = self._pairs
        stop = len(hours)
        if self.fallback == "error":
            stop = min((order[a] for h, a in zip(bucket_hours, bounds)
                        if (region, flow, h) not in pairs), default=stop)
            if stop < len(hours):
                order, bucket_hours, bounds = self._by_hour(hours[:stop])
        keys = [(region, flow, h) for h in bucket_hours]
        # A cold bucket's steps start from the fallback pair.
        firsts = [pairs.get(key) or self._pair_for(*key) for key in keys]
        lo, hi = np.empty(len(hours)), np.empty(len(hours))
        if ys is None:  # each bucket's pair, repeated over its steps
            first_lo, first_hi = np.array(firsts, dtype=np.float64).reshape(-1, 2).T
            counts = np.diff(bounds)
            lo[order], hi[order] = np.repeat(first_lo, counts), np.repeat(first_hi, counts)
        else:
            lo[order], hi[order] = self._learn(keys, firsts, bounds, ys[order])
        if stop < len(hours):
            self._pair_for(region, flow, hours[stop])  # raises NotFittedError
        return lo, hi

    def _learn(self, keys, firsts, bounds, demand):
        """Push each bucket's demand; return the forecasts, in hour order.

        ``demand`` is the cell's demand grouped by hour, so bucket ``k`` holds
        ``demand[bounds[k]:bounds[k + 1]]``. One ``quantile_ranks`` call over
        every bucket's window sizes gives the positions of both levels.
        """
        pairs = self._pairs
        windows = [self._window(key) for key in keys]
        # Push p (p in [bounds[k], bounds[k + 1])) leaves bucket k's window at
        # its size now plus p - bounds[k] + 1, at most the capacity.
        shift = np.subtract([len(win) for win in windows], bounds[:-1])
        sizes = np.minimum(np.arange(1, len(demand) + 1) + np.repeat(shift, np.diff(bounds)),
                           self._capacity)
        levels = (self.alpha / 2.0, 1.0 - self.alpha / 2.0)
        index = quantile_ranks(levels, sizes) - 1
        los, his = [], []
        for key, win, first, a, b in zip(keys, windows, firsts, bounds, bounds[1:]):
            q_lo, q_hi = win.push_series(demand[a:b], index[:, a:b])
            # A step's forecast is its bucket's pair before its push.
            los.append(first[0])
            los += q_lo
            his.append(first[1])
            his += q_hi
            pairs[key] = los.pop(), his.pop()
        return los, his

    def update(self, obs: Observation) -> None:
        """Append the realized demand to its bucket and refresh its quantiles."""
        if self._buckets is None:
            raise NotFittedError("predictor must be fitted before updating")
        key = (obs.region, obs.flow, self._hours(int(obs.t)))
        win = self._window(key)
        win.push(obs.y)
        self._pairs[key] = win.quantile(self.alpha / 2.0), win.quantile(1.0 - self.alpha / 2.0)

    def _window(self, key) -> CalibrationWindow:
        win = self._buckets.get(key)
        if win is None:  # the bucket's first update: a window of its fit values, or empty
            win = self._buckets[key] = CalibrationWindow(self._capacity,
                                                         self._values.pop(key, ()))
        return win


class OnlinePinballLinearPredictor(ParamsMixin):
    """Per-cell linear quantile heads trained with pinball subgradient steps.

    Features are the six z-scored lags plus sine/cosine of the hour angle;
    normalization statistics come from the training window and forecasts are
    returned in original demand units. Each (region, flow) cell owns its own
    weights, so regions stay independent. Each head's output is
    ``b + x0*w0 + ... + x7*w7`` summed left to right (:func:`_head`), per step
    and over a series alike.
    """

    N_FEATURES = 8

    def __init__(self, alpha=0.1, step_size=0.05, epochs=3, steps_per_day=24):
        self.alpha = check_in_range(alpha, "alpha", 0.0, 1.0)
        self.step_size = check_positive(step_size, "step_size")
        self.epochs = check_positive_int(epochs, "epochs")
        self.steps_per_day = check_positive_int(steps_per_day, "steps_per_day")
        self._cells = None
        self.crossings = 0

    def _features(self, cell, times, lags):
        """The eight feature columns, at one step (an int ``times``) or at an array of steps."""
        z = (np.asarray(lags, dtype=np.float64) - cell["mu"]) / cell["sd"]
        angle = 2.0 * np.pi * (np.asarray(times) % self.steps_per_day) / self.steps_per_day
        return [*z.T, np.sin(angle), np.cos(angle)]

    def fit(self, stream: DemandStream):
        _check_training_demand(stream)
        self._cells = {}
        times = stream.window_times()
        for i, region in enumerate(stream.region_ids):
            for j, flow in enumerate(FLOWS):
                ys = stream.cell_series(i, j)
                sd = float(ys.std())
                b_lo, b_hi = _empirical_pair(ys, self.alpha)
                cell = {
                    "mu": float(ys.mean()),
                    "sd": sd if sd > 0 else 1.0,
                    "w_lo": np.zeros(self.N_FEATURES),
                    "w_hi": np.zeros(self.N_FEATURES),
                    "b_lo": b_lo,
                    "b_hi": b_hi,
                }
                self._cells[(region, flow)] = cell
                rows = list(np.column_stack(self._features(cell, times, stream.lags_matrix(i, j))))
                for _ in range(self.epochs):
                    for x, y in zip(rows, ys.tolist()):
                        self._step(cell, x, y, self._heads(cell, x.tolist()))
        return self

    def _cell(self, region, flow):
        if self._cells is None:
            raise NotFittedError("predictor must be fitted before use")
        return self._cells[(region, flow)]

    def _step(self, cell, x, y, heads):
        """One pinball subgradient step on feature row ``x``, its ``heads``, and demand ``y``."""
        tau_lo = self.alpha / 2.0
        tau_hi = 1.0 - self.alpha / 2.0
        g_lo = (1.0 - tau_lo) if y <= heads[0] else -tau_lo
        g_hi = (1.0 - tau_hi) if y <= heads[1] else -tau_hi
        cell["w_lo"] -= self.step_size * g_lo * x
        cell["b_lo"] -= self.step_size * g_lo
        cell["w_hi"] -= self.step_size * g_hi * x
        cell["b_hi"] -= self.step_size * g_hi

    @staticmethod
    def _heads(cell, x):
        """Both heads' outputs on the features ``x``: one step's floats, or a series' columns."""
        return (_head(cell["b_lo"], cell["w_lo"].tolist(), x),
                _head(cell["b_hi"], cell["w_hi"].tolist(), x))

    def _forecast(self, region, flow, t, heads) -> QuantileForecast:
        """The forecast of ``heads``, its crossing counted; its error names the cell and ``t``."""
        try:
            fc = QuantileForecast(*heads)
        except DataFormatError as e:
            raise DataFormatError(f"region {region!r}, flow {flow}, t {t}: {e}") from None
        self.crossings += fc.crossed
        return fc

    def predict(self, region, flow, t, lags) -> QuantileForecast:
        cell = self._cell(region, flow)
        x = np.array(self._features(cell, t, lags)).tolist()
        return self._forecast(region, flow, t, self._heads(cell, x))

    def predict_series(self, region, flow, times, lags, y=None):
        """Frozen, both heads run over the feature columns at once. With ``y``, each
        step's row gives its heads, they make its forecast (:meth:`_forecast`), then it learns."""
        cell = self._cell(region, flow)
        x = self._features(cell, times, lags)
        if y is not None:
            los, his = [], []
            for t, row, v in zip(times, np.column_stack(x), _demand(y, times).tolist()):
                heads = self._heads(cell, row.tolist())
                fc = self._forecast(region, flow, t, heads)
                los.append(fc.lo)
                his.append(fc.hi)
                self._step(cell, row, v, heads)
            return np.array(los, dtype=np.float64), np.array(his, dtype=np.float64)
        lo, hi = self._heads(cell, x)
        crossed = lo > hi
        if crossed.any():
            self.crossings += int(crossed.sum())
            lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        return lo, hi

    def update(self, obs: Observation) -> None:
        """One subgradient step on the observed cell."""
        cell = self._cell(obs.region, obs.flow)
        x = np.array(self._features(cell, obs.t, obs.lags))
        self._step(cell, x, obs.y, self._heads(cell, x.tolist()))


class FileBackedForecasts(ParamsMixin):
    """Forecasts loaded from a ``t,region,flow,q_lo,q_hi`` CSV.

    Stands in for any externally trained model: one row per (t, region, flow)
    cell, flow spelled ``in``/``out``. Crossed rows are swapped and counted at
    load time. ``update`` is a no-op.
    """

    def __init__(self, path):
        self.path = path
        table = read_csv_table(path, ("t", "region", "flow", "q_lo", "q_hi"),
                               (int, str, str, float, float))
        flow = flow_index(path, table["flow"])
        lo, hi = table["q_lo"], table["q_hi"]
        reject_rows(path, np.isfinite(lo) & np.isfinite(hi), lambda k: "non-finite quantile")
        crossed = lo > hi
        self.crossings = int(crossed.sum())
        codes, regions = region_codes(table["region"])
        t = table["t"]
        times, t_pos = np.unique(t, return_inverse=True)
        cell = codes * len(FLOWS) + flow
        reject_rows(path, unrepeated(cell * len(times) + t_pos), lambda k: (
            f"duplicate forecast for {(int(t[k]), regions[codes[k]], FLOWS[flow[k]])}"))
        # Rows sorted by (cell, t): each cell's steps are one sorted slice.
        order = np.lexsort((t, cell))
        self._t = t[order]
        self._band = np.column_stack([np.where(crossed, hi, lo), np.where(crossed, lo, hi)])[order]
        bounds = np.searchsorted(cell[order], np.arange(len(regions) * len(FLOWS) + 1))
        keys = [(region, f) for region in regions for f in FLOWS]
        self._cells = {key: slice(a, b) for key, a, b in zip(keys, bounds, bounds[1:])}

    def fit(self, stream: DemandStream):
        return self

    def _missing(self, t, region, flow):
        raise MissingForecastError(
            f"{self.path}: no forecast row for (t={int(t)}, region={region}, flow={flow})"
        )

    def predict(self, region, flow, t, lags=None) -> QuantileForecast:
        cell = self._cells.get((region, flow), slice(0, 0))
        p = bisect_left(self._t, t, cell.start, cell.stop)
        if p == cell.stop or self._t[p] != t:
            self._missing(t, region, flow)
        return QuantileForecast(*self._band[p].tolist())

    def predict_series(self, region, flow, times, lags=None, y=None):
        if y is not None:
            _demand(y, times)  # checked as ``update`` would see it, then ignored
        times = np.asarray(times, dtype=np.int64)
        cell = self._cells.get((region, flow), slice(0, 0))
        pos = cell.start + np.searchsorted(self._t[cell], times)
        found = pos < cell.stop
        found[found] = self._t[pos[found]] == times[found]
        if not found.all():
            self._missing(times[np.argmin(found)], region, flow)  # the earliest missing step
        band = self._band[pos]
        return band[:, 0], band[:, 1]

    def update(self, obs: Observation) -> None:
        return None


def write_forecast_csv(path, rows) -> None:
    """Write (t, region, flow, q_lo, q_hi) rows in the forecast CSV format.

    Refuses (ValueError, before writing) a flow outside ``FLOWS`` and a
    region label that ``csv_label`` refuses. Rows are spelled exactly as
    ``csv.writer`` spells them.
    """
    seen, cells, lines = {}, {}, []
    for t, region, flow, lo, hi in rows:
        key = (type(region), region, flow)  # 1 == True, but they are spelled apart
        cell = cells.get(key)
        if cell is None:
            if flow not in FLOWS:
                raise ValueError(f"flow must be one of {FLOWS}, got {flow!r}")
            cell = cells[key] = f"{csv_label(region, seen)},{flow}"
        lines.append(f"{int(t)},{cell},{float(lo)!r},{float(hi)!r}\r\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["t", "region", "flow", "q_lo", "q_hi"])
        fh.write("".join(lines))


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
