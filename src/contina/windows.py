"""Sliding calibration windows and empirical-quantile queries.

A :class:`CalibrationWindow` is a bounded FIFO multiset of conformity scores.
Each push appends the newest score and, at capacity, evicts the oldest one.
Quantile queries use the rank rule ``m = ceil(level * n)`` clamped to
``[1, n]`` (the m-th smallest stored score), with two extra rules for levels
produced by adaptive targets that leave [0, 1]:

* level > 1  -> an inflated stand-in of twice the window maximum,
* level < 0  -> None (downstream intervals become empty).

:meth:`CalibrationWindow.quantile_with_rules` applies them and returns a
float or None.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque

import numpy as np

from .errors import EmptyCalibrationError
from .validation import check_positive_int

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


def quantile_ranks(levels, sizes: np.ndarray) -> np.ndarray:
    """:func:`quantile_rank` of each level (rows) at each sample size (columns)."""
    m = np.ceil(np.multiply.outer(levels, sizes) - _RANK_SLACK)
    return np.minimum(np.maximum(m, 1), sizes).astype(np.int64)


def _not_finite(values: list) -> ValueError:
    """The error naming the first non-finite score of ``values``."""
    bad = next(v for v in values if not math.isfinite(v))
    return ValueError(f"score must be finite, got {bad!r}")


class CalibrationWindow:
    """Bounded FIFO multiset of finite scores with order-statistic queries.

    Keeps a deque in arrival order for eviction plus a parallel sorted list,
    so pushes cost one binary search + memmove and rank queries are O(1).
    :meth:`push_series` holds the one push rule; :meth:`push` is its
    one-score case. The constructor sorts its first ``capacity`` scores in
    one stable pass, which orders equal scores exactly as pushing them one by
    one would, and pushes the rest.
    """

    __slots__ = ("_capacity", "_fifo", "_sorted")

    def __init__(self, capacity: int, scores=()):
        self._capacity = check_positive_int(capacity, "capacity")
        values = np.asarray(scores, dtype=np.float64)
        if not np.isfinite(values).all():
            raise _not_finite(values.tolist())
        head = values[: self._capacity]
        self._fifo: deque[float] = deque(head.tolist())
        self._sorted: list[float] = np.sort(head, kind="stable").tolist()
        self.push_series(values[self._capacity :])

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

    def push(self, score: float) -> None:
        """Append a score, evicting the oldest one at capacity."""
        self.push_series((score,))

    def push_series(self, scores, levels=()) -> list[list[float]]:
        """Push scores in order, reading each level's quantile after each push.

        Every score is checked finite before any state changes. Each push
        appends the score and, at capacity, first evicts the oldest one.
        Returns one list per level in ``levels`` (each in [0, 1]) holding that
        level's quantile, as :meth:`quantile` gives it, after each push. The
        ranks depend only on the window size, so they are worked out for the
        sizes the window passes through before any score is pushed.
        """
        values = np.asarray(scores, dtype=np.float64).tolist()
        if not all(map(math.isfinite, values)):
            raise _not_finite(values)
        fifo, srt, cap = self._fifo, self._sorted, self._capacity
        n = len(fifo)
        quantiles, readers = [], []
        if levels:
            if not all(0.0 <= level <= 1.0 for level in levels):
                raise ValueError(f"levels must be in [0, 1], got {levels}")
            sizes = np.minimum(np.arange(n + 1, n + len(values) + 1), cap)
            for index in (quantile_ranks(levels, sizes) - 1).tolist():
                out = []
                quantiles.append(out)
                readers.append((out.append, index))
        for p, s in enumerate(values):
            if n < cap:
                n += 1
            else:
                del srt[bisect_left(srt, fifo.popleft())]
            fifo.append(s)
            insort(srt, s)
            for append, index in readers:
                append(srt[index[p]])
        return quantiles

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

    def quantile_with_rules(self, level: float) -> float | None:
        """Quantile query accepting any real level.

        Levels above 1 give twice the window maximum, levels below 0 give
        None (the interval is empty), and in-range levels defer to
        :meth:`quantile`.
        """
        if not self._sorted:
            raise EmptyCalibrationError("cannot take a quantile of an empty window")
        if level > 1.0:
            return 2.0 * self._sorted[-1]
        if level < 0.0:
            return None
        return self.quantile(level)
