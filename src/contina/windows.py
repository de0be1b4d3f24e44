"""Sliding calibration windows and empirical-quantile queries.

A :class:`CalibrationWindow` is a bounded FIFO multiset of conformity scores.
Each push appends the newest score and, at capacity, evicts the oldest one.
Quantile queries use the rank rule ``m = ceil(level * n)`` clamped to
``[1, n]`` (the m-th smallest stored score), with two extra rules for levels
produced by adaptive targets that leave [0, 1]:

* level > 1  -> an inflated stand-in of twice the window maximum,
* level < 0  -> an empty result (downstream intervals become empty).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCalibrationError
from .validation import check_positive_int

VALUE = "value"
INFLATED = "inflated"
EMPTY = "empty"

# Levels are often computed as 1 - alpha_t from accumulated floats; a product
# like 0.85 * 20 can land a hair above the intended integer rank. Treat
# anything within this slack of an integer as that integer.
_RANK_SLACK = 1e-9


def quantile_rank(level: float, n: int) -> int:
    """1-based rank of the ``level`` empirical quantile in a sample of size n."""
    m = math.ceil(level * n - _RANK_SLACK)
    if m < 1:
        return 1
    if m > n:
        return n
    return m


@dataclass(frozen=True)
class QuantileResult:
    """Outcome of a quantile query under the out-of-range level rules."""

    kind: str
    value: float | None = None

    @classmethod
    def of_value(cls, value: float) -> "QuantileResult":
        return cls(VALUE, float(value))

    @classmethod
    def inflated(cls, value: float) -> "QuantileResult":
        return cls(INFLATED, float(value))

    @classmethod
    def empty(cls) -> "QuantileResult":
        return cls(EMPTY, None)

    @property
    def is_empty(self) -> bool:
        return self.kind == EMPTY

    @property
    def widening(self) -> float:
        """The interval widening amount; undefined for empty results."""
        if self.value is None:
            raise EmptyCalibrationError("empty quantile result carries no value")
        return self.value


class CalibrationWindow:
    """Bounded FIFO multiset of finite scores with order-statistic queries.

    Keeps a deque in arrival order for eviction plus a parallel sorted list,
    so pushes cost one binary search + memmove and rank queries are O(1).
    The constructor sorts its first ``capacity`` scores in one stable pass,
    which orders equal scores exactly as pushing them one by one would, and
    pushes the rest.
    """

    __slots__ = ("_capacity", "_fifo", "_sorted")

    def __init__(self, capacity: int, scores=()):
        self._capacity = check_positive_int(capacity, "capacity")
        values = np.asarray(scores, dtype=np.float64)
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"score must be finite, got {float(values[~finite][0])!r}")
        head = values[: self._capacity]
        self._fifo: deque[float] = deque(head.tolist())
        self._sorted: list[float] = np.sort(head, kind="stable").tolist()
        for s in values[self._capacity :].tolist():
            self.push(s)

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def scores(self) -> tuple[float, ...]:
        """Stored scores in arrival order (oldest first)."""
        return tuple(self._fifo)

    def buffers(self) -> tuple[deque, list]:
        """The live arrival-order deque and sorted list, for bulk kernels.

        A caller that pushes through them must keep the invariants
        :meth:`push` keeps: both hold the same scores, at most ``capacity``
        of them, the deque oldest first, and the list in the order that
        deleting through ``bisect_left`` and inserting through ``insort``
        gives.
        """
        return self._fifo, self._sorted

    @property
    def max_score(self) -> float:
        if not self._sorted:
            raise EmptyCalibrationError("window holds no scores")
        return self._sorted[-1]

    def push(self, score: float) -> None:
        """Append a score, evicting the oldest one at capacity."""
        s = float(score)
        if not math.isfinite(s):
            raise ValueError(f"score must be finite, got {score!r}")
        if len(self._fifo) >= self._capacity:
            oldest = self._fifo.popleft()
            del self._sorted[bisect_left(self._sorted, oldest)]
        self._fifo.append(s)
        insort(self._sorted, s)

    def quantile(self, level: float) -> float:
        """The m-th smallest score, m = clamp(ceil(level * n), 1, n)."""
        if not self._sorted:
            raise EmptyCalibrationError("cannot take a quantile of an empty window")
        if not 0.0 <= level <= 1.0:
            raise ValueError(
                f"level must be in [0, 1], got {level}; "
                "use quantile_with_rules for out-of-range levels"
            )
        return self._sorted[quantile_rank(level, len(self._sorted)) - 1]

    def quantile_with_rules(self, level: float) -> QuantileResult:
        """Quantile query accepting any real level.

        Levels above 1 return an inflated value of twice the window maximum;
        levels below 0 return an empty result; in-range levels defer to
        :meth:`quantile`.
        """
        if not self._sorted:
            raise EmptyCalibrationError("cannot take a quantile of an empty window")
        if level > 1.0:
            return QuantileResult.inflated(2.0 * self._sorted[-1])
        if level < 0.0:
            return QuantileResult.empty()
        return QuantileResult.of_value(self.quantile(level))
