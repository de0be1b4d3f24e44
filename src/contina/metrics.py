"""Evaluation metrics over a completed run ledger, plus the theoretical bounds.

A ledger holds one cell per (region, t, flow): whether the emitted interval
covered the realized demand, its length, and whether it was the empty set.
The cells form dense (region, step, flow) arrays, so every metric is an axis
reduction and every period a slice along the step axis.
``average_coverage``, ``min_regional_coverage`` and ``mean_length`` are the
three headline metrics; ``daily_regional_stats`` supports dispersion plots of
per-region coverage; ``coverage_gap_constant`` and ``worst_region_bound``
evaluate the guarantees the adaptive method is expected to satisfy:

* |cov - (1 - alpha)| <= c / T with
  c = 1/gamma1 + 2 / (alpha * sqrt((1 - beta) * k) + epsilon);
* minRC >= 1 - alpha - c1/T - sqrt(c2 * K * log(n) / T) for streams whose
  per-flow errors are independent beyond a dependence window of K steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adaptation import AdaptHyperParams, alpha_drift_bounds
from .errors import LedgerError
from .streams import FLOWS, region_sort_key
from .validation import check_in_range, check_positive, check_positive_int


class RunLedger:
    """Per-step outcomes of a replay on a dense (region, step, flow) grid.

    ``covered_grid``, ``length_grid`` and ``empty_grid`` are C-contiguous
    arrays of shape (n_regions, horizon, 2); ``times`` holds the horizon's
    step labels in increasing order. A ledger built from the grids is
    complete by construction.

    ``t``, ``region_idx``, ``flow_idx``, ``covered``, ``length``, ``empty``
    and ``records`` are long-format views in (region, t, flow) order, the row
    order of ``ledger.csv``. Long-format records enter only through
    ``from_records``, which keeps an incomplete or duplicated record set as
    an error that ``validate_complete`` (and so every metric) raises.
    """

    def __init__(self, region_ids, times, covered, length, empty):
        self.region_ids = tuple(region_ids)
        self.times = np.asarray(times, dtype=np.int64)
        self.covered_grid = np.ascontiguousarray(covered, dtype=bool)
        self.length_grid = np.ascontiguousarray(length, dtype=np.float64)
        self.empty_grid = np.ascontiguousarray(empty, dtype=bool)
        shape = (len(self.region_ids), len(self.times), 2)
        for name in ("covered_grid", "length_grid", "empty_grid"):
            if getattr(self, name).shape != shape:
                raise LedgerError(f"ledger {name} has shape {getattr(self, name).shape}, "
                                  f"expected {shape}")
        if (np.diff(self.times) <= 0).any():
            raise LedgerError("ledger times must be strictly increasing")
        if (self.length_grid < 0).any():
            raise LedgerError("ledger contains negative interval lengths")
        self._error = None if self.covered_grid.size else "ledger is empty"

    @classmethod
    def from_records(cls, records, region_ids=None):
        """Build a ledger from (t, region, flow, covered, length, empty) tuples."""
        records = list(records)
        if region_ids is None:
            region_ids = sorted({r[1] for r in records}, key=region_sort_key)
        index = {r: i for i, r in enumerate(region_ids)}
        return cls._from_long(
            region_ids,
            t=np.array([r[0] for r in records], dtype=np.int64),
            region_idx=np.array([index[r[1]] for r in records], dtype=np.intp),
            flow_idx=np.array([FLOWS.index(r[2]) for r in records], dtype=np.intp),
            covered=np.array([r[3] for r in records], dtype=bool),
            length=np.array([r[4] for r in records], dtype=np.float64),
            empty=np.array([r[5] for r in records], dtype=bool),
        )

    @classmethod
    def _from_long(cls, region_ids, t, region_idx, flow_idx, covered, length, empty):
        """Scatter long-format columns onto the grid and record completeness.

        The grid spans every region and every distinct ``t``; a cell with no
        record stays (False, 0.0, False) and makes the ledger incomplete.
        """
        times, t_pos = np.unique(t, return_inverse=True)
        n_regions, horizon = len(region_ids), len(times)
        shape = (n_regions, horizon, 2)
        cell = (region_idx * horizon + t_pos) * 2 + flow_idx
        grids = []
        for column, dtype in ((covered, bool), (length, np.float64), (empty, bool)):
            grid = np.zeros(shape, dtype=dtype)
            grid.reshape(-1)[cell] = column
            grids.append(grid)
        ledger = cls(region_ids, times, *grids)
        if len(cell) and (len(cell) != 2 * n_regions * horizon
                          or np.bincount(cell).max() != 1):
            ledger._error = _incompleteness(region_ids, times, t_pos, region_idx)
        return ledger

    @property
    def n_regions(self) -> int:
        return len(self.region_ids)

    @property
    def horizon(self) -> int:
        return len(self.times)

    @property
    def t(self) -> np.ndarray:
        return np.tile(np.repeat(self.times, 2), self.n_regions)

    @property
    def region_idx(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_regions, dtype=np.intp), 2 * self.horizon)

    @property
    def flow_idx(self) -> np.ndarray:
        return np.tile(np.arange(2, dtype=np.intp), self.n_regions * self.horizon)

    @property
    def covered(self) -> np.ndarray:
        return self.covered_grid.reshape(-1)

    @property
    def length(self) -> np.ndarray:
        return self.length_grid.reshape(-1)

    @property
    def empty(self) -> np.ndarray:
        return self.empty_grid.reshape(-1)

    @property
    def records(self):
        """Row view as (t, region, flow, covered, length, empty) tuples."""
        times = self.times.tolist()
        rows = []
        for i, region in enumerate(self.region_ids):
            covered = self.covered_grid[i].tolist()
            length = self.length_grid[i].tolist()
            empty = self.empty_grid[i].tolist()
            for p, t in enumerate(times):
                for j, flow in enumerate(FLOWS):
                    rows.append((t, region, flow, covered[p][j], length[p][j], empty[p][j]))
        return rows

    def steps(self, start: int, stop: int) -> "RunLedger":
        """The ledger of the steps at positions [start, stop)."""
        if (start, stop) == (0, self.horizon):
            return self
        sub = RunLedger(self.region_ids, self.times[start:stop],
                        self.covered_grid[:, start:stop], self.length_grid[:, start:stop],
                        self.empty_grid[:, start:stop])
        sub._error = self._error or sub._error
        return sub

    def validate_complete(self) -> None:
        """Require exactly two flow records for every (t, region) pair."""
        if self._error:
            raise LedgerError(self._error)


def _incompleteness(region_ids, times, t_pos, region_idx) -> str:
    """Name the first (t, region) pair without exactly two flow records."""
    n_regions = len(region_ids)
    counts = np.bincount(t_pos * n_regions + region_idx, minlength=len(times) * n_regions)
    bad = np.flatnonzero(counts != 2)
    if not len(bad):
        return "ledger holds duplicate (t, region, flow) records"
    p, i = divmod(int(bad[0]), n_regions)
    return (f"ledger incomplete at (t={int(times[p])}, region={region_ids[i]}): "
            f"{int(counts[bad[0]])} of 2 flow records")


def average_coverage(ledger: RunLedger) -> float:
    """Fraction of all (t, region, flow) cells whose interval covered demand."""
    ledger.validate_complete()
    return float(ledger.covered_grid.mean())


class RegionalCoverage(NamedTuple):
    value: float
    region: object


def _per_region(ledger: RunLedger) -> np.ndarray:
    """Coverage of each region over the ledger's steps."""
    ledger.validate_complete()
    return ledger.covered_grid.sum(axis=(1, 2)) / (2.0 * ledger.horizon)


def min_regional_coverage(ledger: RunLedger) -> RegionalCoverage:
    """Worst per-region coverage; ties break toward the smallest region id."""
    per_region = _per_region(ledger)
    ids = ledger.region_ids
    best = min(range(len(ids)), key=lambda i: (per_region[i], region_sort_key(ids[i])))
    return RegionalCoverage(float(per_region[best]), ids[best])


def regional_coverages(ledger: RunLedger) -> dict:
    """Per-region coverage over the whole ledger."""
    return dict(zip(ledger.region_ids, _per_region(ledger).tolist()))


def mean_length(ledger: RunLedger) -> float:
    """Mean interval length over all cells (empty intervals count 0)."""
    ledger.validate_complete()
    return float(ledger.length_grid.mean())


def empty_rate(ledger: RunLedger) -> float:
    """Fraction of cells whose interval was the empty set."""
    ledger.validate_complete()
    return float(ledger.empty_grid.mean())


class DailyStat(NamedTuple):
    day: int
    mean_coverage: float
    std_coverage: float


class DailyStats(NamedTuple):
    rows: list
    dropped_steps: int


def daily_regional_stats(ledger: RunLedger, steps_per_day: int) -> DailyStats:
    """Per-day mean and population std of per-region daily coverage.

    Days are counted from the ledger's first step; a trailing partial day is
    dropped and reported through ``dropped_steps``.
    """
    check_positive_int(steps_per_day, "steps_per_day")
    cov, dropped = _daily_coverage_grid(ledger, steps_per_day)
    rows = [
        DailyStat(day=d, mean_coverage=float(cov[d].mean()), std_coverage=float(cov[d].std()))
        for d in range(cov.shape[0])
    ]
    return DailyStats(rows=rows, dropped_steps=dropped)


def _daily_coverage_grid(ledger: RunLedger, steps_per_day: int):
    """(n_days, n_regions) coverage for whole days + count of dropped steps."""
    ledger.validate_complete()
    n_days = ledger.horizon // steps_per_day
    whole = ledger.covered_grid[:, : n_days * steps_per_day]
    hits = whole.reshape(ledger.n_regions, n_days, 2 * steps_per_day).sum(axis=2)
    return np.ascontiguousarray(hits.T) / (2.0 * steps_per_day), ledger.horizon % steps_per_day


def daily_regional_coverage(ledger: RunLedger, steps_per_day: int):
    """(day, region, coverage) triples for whole days, for dispersion plots."""
    check_positive_int(steps_per_day, "steps_per_day")
    cov, _ = _daily_coverage_grid(ledger, steps_per_day)
    return [
        (d, region, c)
        for d, row in enumerate(cov.tolist())
        for region, c in zip(ledger.region_ids, row)
    ]


class GapConstant(NamedTuple):
    value: float
    degenerate: bool


def coverage_gap_constant(hp: AdaptHyperParams) -> GapConstant:
    """The constant c in the average-coverage gap bound |cov - (1-a)| <= c/T.

    c = 1/gamma1 + 2/(alpha * sqrt((1 - beta) * k) + epsilon), with k from
    ``alpha_drift_bounds``. At target_alpha = 0.5 the constant degenerates
    (k = 0) and the flag is set.
    """
    bounds = alpha_drift_bounds(hp)
    denom = hp.target_alpha * math.sqrt((1.0 - hp.beta) * bounds.k) + hp.epsilon
    return GapConstant(value=1.0 / hp.gamma1 + 2.0 / denom, degenerate=bounds.k == 0.0)


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the worst-region coverage bound."""

    c1: float
    n_regions: int
    horizon: int
    k_lag: int = 1
    c2: float = 0.25

    def __post_init__(self):
        check_positive(self.c1, "c1")
        check_positive(self.c2, "c2")
        check_positive_int(self.k_lag, "k_lag")
        check_positive_int(self.n_regions, "n_regions")
        check_positive_int(self.horizon, "horizon")


class RegionBound(NamedTuple):
    value: float
    log_term_dropped: bool


def worst_region_bound(bp: BoundParams, alpha: float) -> RegionBound:
    """1 - alpha - c1/T - sqrt(c2 * K * log(n) / T).

    With a single region the log term vanishes; the flag records that the
    multi-region correction was dropped.
    """
    check_in_range(alpha, "alpha", 0.0, 1.0, inclusive=False)
    if bp.n_regions < 2:
        return RegionBound(value=1.0 - alpha - bp.c1 / bp.horizon, log_term_dropped=True)
    correction = math.sqrt(bp.c2 * bp.k_lag * math.log(bp.n_regions) / bp.horizon)
    return RegionBound(value=1.0 - alpha - bp.c1 / bp.horizon - correction, log_term_dropped=False)
