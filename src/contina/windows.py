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
        if len(values) > self._capacity:
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

    def push_series(self, scores, index=None) -> tuple[list[float], list[float]]:
        """Push scores in order, reading two stored scores after each push.

        Every score is checked finite, and ``index`` checked, before any state
        changes. Each push appends the score and, at capacity, first evicts
        the oldest one. ``index`` is a ``(2, len(scores))`` integer array of
        0-based positions in the sorted window: after push ``p`` the scores at
        ``index[0, p]`` and ``index[1, p]`` are read, so both must be below the
        window's size after that push. ``quantile_ranks(levels, sizes) - 1``,
        over the sizes the window passes through, gives the positions that
        :meth:`quantile` reads. Returns the two lists of reads; without
        ``index`` both read the smallest score.
        """
        values = np.asarray(scores, dtype=np.float64).tolist()
        if not all(map(math.isfinite, values)):
            raise _not_finite(values)
        fifo, srt, cap = self._fifo, self._sorted, self._capacity
        n, k = len(fifo), len(values)
        if index is None:
            lo = hi = [0] * k
        else:
            at = np.asarray(index)
            # Negative positions turn huge as uint64, so one comparison checks
            # 0 <= position < min(n + p + 1, cap), the size after push p.
            if at.shape != (2, k) or k and (at.dtype.kind not in "iu" or not np.less(
                    at.astype(np.int64, copy=False).view(np.uint64),
                    np.minimum(np.arange(n + 1, n + k + 1, dtype=np.uint64), cap)).all()):
                raise ValueError(f"index must hold two integer positions per score, each below "
                                 f"the window's size after that push (size {n} before, "
                                 f"capacity {cap})")
            lo, hi = at.tolist()
        q_lo, q_hi = [], []
        read_lo, read_hi = q_lo.append, q_hi.append
        for s, i, j in zip(values, lo, hi):
            if n < cap:
                n += 1
            else:
                del srt[bisect_left(srt, fifo.popleft())]
            fifo.append(s)
            insort(srt, s)
            read_lo(srt[i])
            read_hi(srt[j])
        return q_lo, q_hi

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
