"""Tests for ledger metrics against independent full-scan oracles.

Oracles recount coverage and lengths record by record, in exact arithmetic
where the assertion demands exactness (ledger lengths are drawn from a dyadic
grid so float sums are exact).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from contina.adaptation import AdaptHyperParams
from contina.errors import LedgerError
from contina.metrics import (
    BoundParams,
    RunLedger,
    average_coverage,
    coverage_gap_constant,
    daily_regional_coverage,
    empty_rate,
    mean_length,
    min_regional_coverage,
    worst_region_bound,
)

HP = AdaptHyperParams(target_alpha=0.1, gamma1=0.005, beta=0.99, epsilon=1e-8)


def random_ledger(rng, n_regions=None, horizon=None, region_ids=None):
    """Complete random ledger; lengths dyadic so sums are float-exact."""
    n = n_regions or int(rng.integers(1, 6))
    T = horizon or int(rng.integers(1, 50))
    region_ids = region_ids or [f"r{i}" for i in range(n)]
    records = []
    for t in range(T):
        for r in region_ids:
            for flow in ("in", "out"):
                covered = bool(rng.integers(2))
                emptyf = (not covered) and rng.uniform() < 0.05
                length = 0.0 if emptyf else float(rng.integers(0, 8192)) / 8.0
                records.append((t, r, flow, covered, length, emptyf))
    return records, RunLedger.from_records(records, region_ids=region_ids)


def oracle_metrics(records):
    """Brute-force recount over the raw records."""
    n_regions = len({r[1] for r in records})
    horizon = len({r[0] for r in records})
    total = 2 * n_regions * horizon
    cov = Fraction(sum(1 for r in records if r[3]), total)
    per_region = {}
    for r in records:
        per_region.setdefault(r[1], 0)
        per_region[r[1]] += 1 if r[3] else 0
    minrc = min(
        (Fraction(c, 2 * horizon), rid) for rid, c in per_region.items()
    )
    length = math.fsum(r[4] for r in records) / total
    return float(cov), (float(minrc[0]), minrc[1]), length


class TestAverageCoverage:
    def test_all_covered(self):
        recs = [(t, "a", f, True, 1.0, False) for t in range(3) for f in ("in", "out")]
        assert average_coverage(RunLedger.from_records(recs)) == 1.0

    def test_exactly_half(self):
        recs = [
            (t, "a", f, f == "in", 1.0, False) for t in range(4) for f in ("in", "out")
        ]
        assert average_coverage(RunLedger.from_records(recs)) == 0.5

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        records, ledger = random_ledger(rng, n_regions=3, horizon=4)
        assert average_coverage(ledger) == oracle_metrics(records)[0]

    def test_incomplete_ledger_names_missing_step(self):
        recs = [
            (0, "a", "in", True, 1.0, False),
            (0, "a", "out", True, 1.0, False),
            (1, "a", "in", True, 1.0, False),
        ]
        ledger = RunLedger.from_records(recs)
        with pytest.raises(LedgerError, match=r"t=1, region=a"):
            average_coverage(ledger)

    def test_duplicate_records_rejected(self):
        recs = [(0, "a", "in", True, 1.0, False)] * 2
        with pytest.raises(LedgerError):
            average_coverage(RunLedger.from_records(recs))

    @pytest.mark.parametrize("record, message", [
        ((0, "b", "in", True, 1.0, False), r"record \(0, 'b', 'in'.*region 'b' is not in"),
        ((0, "a", "sideways", True, 1.0, False), r"record \(0, 'a', 'sideways'.*flow"),
    ])
    def test_bad_record_names_itself(self, record, message):
        recs = [(0, "a", "in", True, 1.0, False), record]
        with pytest.raises(LedgerError, match=message):
            RunLedger.from_records(recs, region_ids=("a",))


class TestMinRegionalCoverage:
    def test_identical_regions_degenerate_minimum(self):
        recs = [
            (t, r, f, t % 2 == 0, 1.0, False)
            for t in range(4)
            for r in ("a", "b")
            for f in ("in", "out")
        ]
        ledger = RunLedger.from_records(recs)
        assert min_regional_coverage(ledger).value == average_coverage(ledger)

    def test_all_miss_region_is_argmin(self):
        recs = []
        for t in range(5):
            for f in ("in", "out"):
                recs.append((t, "good", f, True, 1.0, False))
                recs.append((t, "bad", f, False, 1.0, False))
        out = min_regional_coverage(RunLedger.from_records(recs))
        assert out == (0.0, "bad")

    def test_matches_region_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            records, ledger = random_ledger(rng)
            got = min_regional_coverage(ledger)
            want_value, _ = oracle_metrics(records)[1]
            assert got.value == want_value

    def test_ties_break_to_smallest_region_id(self):
        recs = [
            (0, r, f, False, 1.0, False) for r in (7, 2, 11) for f in ("in", "out")
        ]
        assert min_regional_coverage(RunLedger.from_records(recs)).region == 2

    def test_never_exceeds_average(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            _, ledger = random_ledger(rng)
            assert min_regional_coverage(ledger).value <= average_coverage(ledger) + 1e-15


class TestMeanLength:
    def test_constant_band(self):
        recs = [(t, "a", f, True, 6.0, False) for t in range(3) for f in ("in", "out")]
        assert mean_length(RunLedger.from_records(recs)) == 6.0

    def test_all_empty_reports_zero_and_full_empty_rate(self):
        recs = [(t, "a", f, False, 0.0, True) for t in range(3) for f in ("in", "out")]
        ledger = RunLedger.from_records(recs)
        assert mean_length(ledger) == 0.0
        assert empty_rate(ledger) == 1.0

    def test_matches_sum_oracle_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            records, ledger = random_ledger(rng)
            assert mean_length(ledger) == oracle_metrics(records)[2]

    def test_negative_lengths_rejected(self):
        with pytest.raises(LedgerError, match="negative"):
            RunLedger.from_records([(0, "a", "in", True, -1.0, False)])


class TestIdentitiesAndInvariance:
    def test_average_is_mean_of_regional_coverages(self):
        """Exact identity in rational arithmetic, near-exact in floats."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            records, ledger = random_ledger(rng)
            T = ledger.horizon
            hits = {r: 0 for r in ledger.region_ids}
            for rec in records:
                hits[rec[1]] += 1 if rec[3] else 0
            lhs = Fraction(sum(hits.values()), 2 * len(hits) * T)
            rhs = sum(Fraction(h, 2 * T) for h in hits.values()) / len(hits)
            assert lhs == rhs
            per_region = ledger.covered_grid.sum(axis=(1, 2)) / (2.0 * T)
            assert per_region.tolist() == [hits[r] / (2 * T) for r in ledger.region_ids]
            float_mean = np.mean(per_region)
            assert average_coverage(ledger) == pytest.approx(float_mean, rel=1e-12)
            assert average_coverage(ledger) == float(lhs)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        records, ledger = random_ledger(rng, n_regions=4, horizon=12)
        shuffled = list(records)
        rng.shuffle(shuffled)
        relabeled = RunLedger.from_records(shuffled, region_ids=ledger.region_ids)
        assert average_coverage(relabeled) == average_coverage(ledger)
        assert min_regional_coverage(relabeled) == min_regional_coverage(ledger)
        assert mean_length(relabeled) == pytest.approx(mean_length(ledger), rel=1e-12)


class TestDailyCoverage:
    def test_single_day_all_covered(self):
        recs = [
            (t, r, f, True, 1.0, False)
            for t in range(24)
            for r in ("a", "b")
            for f in ("in", "out")
        ]
        rows = daily_regional_coverage(RunLedger.from_records(recs), steps_per_day=24)
        assert rows == [(0, "a", 1.0), (0, "b", 1.0)]

    def test_split_regions(self):
        recs = []
        for t in range(24):
            for f in ("in", "out"):
                recs.append((t, "hit", f, True, 1.0, False))
                recs.append((t, "miss", f, False, 1.0, False))
        rows = daily_regional_coverage(RunLedger.from_records(recs), steps_per_day=24)
        assert rows == [(0, "hit", 1.0), (0, "miss", 0.0)]

    def test_trailing_partial_day_dropped(self):
        recs = [
            (t, "a", f, t < 24, 1.0, False) for t in range(30) for f in ("in", "out")
        ]
        rows = daily_regional_coverage(RunLedger.from_records(recs), steps_per_day=24)
        assert rows == [(0, "a", 1.0)]

    @pytest.mark.parametrize("horizon", [48, 53])
    def test_matches_brute_force_oracle(self, horizon):
        rng = np.random.default_rng(6)
        records, ledger = random_ledger(rng, n_regions=3, horizon=horizon)
        want = []
        for day in range(horizon // 12):
            t_range = range(day * 12, (day + 1) * 12)
            for r in ledger.region_ids:
                hits = sum(1 for rec in records if rec[0] in t_range and rec[1] == r and rec[3])
                want.append((day, r, hits / 24.0))
        assert daily_regional_coverage(ledger, steps_per_day=12) == want

    def test_invalid_steps_per_day(self):
        _, ledger = random_ledger(np.random.default_rng(7))
        with pytest.raises(ValueError):
            daily_regional_coverage(ledger, steps_per_day=0)


class TestGapConstant:
    def test_paper_hyperparameters(self):
        got = coverage_gap_constant(HP)
        oracle = 1.0 / 0.005 + 2.0 / (0.1 * math.sqrt((1 - 0.99) * 1.0) + 1e-8)
        assert got.value == pytest.approx(oracle, rel=1e-12)
        assert got.value == pytest.approx(400.0, abs=0.01)
        assert 1.0 / 0.005 == 200.0
        assert not got.degenerate

    def test_large_gamma1_limit(self):
        hp = AdaptHyperParams(target_alpha=0.1, gamma1=1e9, beta=0.99, epsilon=1e-8)
        limit = 2.0 / (0.1 * math.sqrt(0.01) + 1e-8)
        assert coverage_gap_constant(hp).value == pytest.approx(limit, rel=1e-6)

    def test_halving_gamma1_adds_inverse(self):
        c1 = coverage_gap_constant(HP).value
        hp2 = AdaptHyperParams(target_alpha=0.1, gamma1=0.0025, beta=0.99, epsilon=1e-8)
        c2 = coverage_gap_constant(hp2).value
        assert c2 - c1 == pytest.approx(1.0 / 0.005, rel=1e-9)

    def test_degenerate_flag_at_half(self):
        hp = AdaptHyperParams(target_alpha=0.5, gamma1=0.005, beta=0.99, epsilon=1e-8)
        got = coverage_gap_constant(hp)
        assert got.degenerate
        assert got.value == pytest.approx(1 / 0.005 + 2 / 1e-8, rel=1e-9)


class TestWorstRegionBound:
    def test_vanishing_correction_at_large_horizon(self):
        bp = BoundParams(c1=400.0, n_regions=100, horizon=10**12, k_lag=24)
        assert worst_region_bound(bp, 0.1).value == pytest.approx(0.9, abs=1e-4)

    def test_doubling_k_scales_correction_by_sqrt2(self):
        base = BoundParams(c1=400.0, n_regions=100, horizon=10**5, k_lag=24)
        double = BoundParams(c1=400.0, n_regions=100, horizon=10**5, k_lag=48)
        corr1 = 0.9 - 400.0 / 10**5 - worst_region_bound(base, 0.1).value
        corr2 = 0.9 - 400.0 / 10**5 - worst_region_bound(double, 0.1).value
        assert corr2 / corr1 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_dual_independent_evaluation(self):
        bp = BoundParams(c1=400.0, c2=0.25, n_regions=100, horizon=10**5, k_lag=24)
        got = worst_region_bound(bp, 0.1).value
        other = 1.0 - 0.1 - 400.0 / 1e5 - (0.25 * 24 * math.log(100) / 1e5) ** 0.5
        assert got == pytest.approx(other, abs=1e-12)

    def test_single_region_drops_log_term(self):
        bp = BoundParams(c1=100.0, n_regions=1, horizon=1000, k_lag=4)
        got = worst_region_bound(bp, 0.1)
        assert got.log_term_dropped
        assert got.value == pytest.approx(0.9 - 0.1, abs=1e-12)

    def test_bound_params_validated(self):
        with pytest.raises(ValueError):
            BoundParams(c1=-1.0, n_regions=10, horizon=100)
