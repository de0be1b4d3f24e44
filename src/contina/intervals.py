"""Conformity scores and prediction-interval construction.

The score of a realized value against a quantile forecast (lo, hi) is
``max(y - hi, lo - y)``: negative iff y lies strictly inside the band, zero on
the boundary. Widening both forecast quantiles by the calibrated score
quantile produces the prediction interval; a quantile of None, the rule for a
level below 0, produces an empty interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DataFormatError
from .validation import check_finite


@dataclass(frozen=True)
class QuantileForecast:
    """A base predictor's (lower, upper) quantile pair for one cell.

    Crossed inputs (lo > hi) are swapped at construction and flagged.
    """

    lo: float
    hi: float
    crossed: bool = False

    def __post_init__(self):
        try:
            lo = check_finite(self.lo, "lo")
            hi = check_finite(self.hi, "hi")
        except ValueError as e:
            raise DataFormatError(str(e)) from None
        if lo > hi:
            lo, hi = hi, lo
            object.__setattr__(self, "crossed", True)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class PredictionInterval:
    """A closed interval [low, up], or the empty set."""

    low: float = math.nan
    up: float = math.nan
    empty: bool = False

    def __post_init__(self):
        if not self.empty:
            low = check_finite(self.low, "low")
            up = check_finite(self.up, "up")
            if low > up:
                raise ValueError(f"interval bounds out of order: [{low}, {up}]")

    @classmethod
    def empty_set(cls) -> "PredictionInterval":
        return cls(empty=True)


def conformity_score(y: float, forecast: QuantileForecast) -> float:
    """max(y - hi, lo - y); how badly the band (lo, hi) misses y."""
    y = check_finite(y, "y")
    return max(y - forecast.hi, forecast.lo - y)


def build_interval_qcp(
    forecast: QuantileForecast,
    v: float | None,
    *,
    clamp_nonnegative: bool = False,
) -> PredictionInterval:
    """Widen a quantile forecast by the calibrated score quantile ``v``.

    ``v`` is what ``CalibrationWindow.quantile_with_rules`` returns; None
    gives the empty set, and so does a widening negative enough to invert
    the band, which leaves no admissible y. cp is this band around the
    forecast midpoint. The optional non-negativity clamp floors the lower
    bound at zero for count-valued demand; it is off by default because the
    evaluation metrics are defined on the unclamped interval.
    """
    if v is None:
        return PredictionInterval.empty_set()
    low, up = forecast.lo - v, forecast.hi + v
    if low > up:
        return PredictionInterval.empty_set()
    if clamp_nonnegative:
        # Comparisons rather than max(): a -0.0 bound clamps to +0.0, as in
        # the tracker's bulk kernel, so both paths give the same length bits.
        low = low if low > 0.0 else 0.0
        up = up if up > low else low
    return PredictionInterval(low, up)


def contains(interval: PredictionInterval, y: float) -> bool:
    """Closed-interval membership; the empty interval contains nothing."""
    if interval.empty:
        return False
    return interval.low <= y <= interval.up


def interval_length(interval: PredictionInterval) -> float:
    """up - low for a band; 0 for the empty interval (callers flag emptiness)."""
    if interval.empty:
        return 0.0
    return interval.up - interval.low
