"""Tests for conformity scores and interval construction.

The central property is coverage/score duality: y lands inside the widened
interval exactly when its conformity score is at most the widening amount.
Fuzz draws use dyadic rationals (k/64) so float arithmetic is exact and the
equivalence can be asserted without tolerances.
"""

import numpy as np
import pytest

from contina.intervals import (
    PredictionInterval,
    QuantileForecast,
    build_interval_qcp,
    conformity_score,
    contains,
    interval_length,
)
from contina.windows import CalibrationWindow


def dyadic(rng, lo=-64, hi=64, size=None):
    return rng.integers(lo * 64, hi * 64, size=size) / 64.0


class TestConformityScore:
    def test_above_band(self):
        assert conformity_score(10, QuantileForecast(2, 8)) == 2

    def test_interior_is_negative(self):
        assert conformity_score(5, QuantileForecast(2, 8)) == -3

    def test_boundary_is_zero(self):
        assert conformity_score(2, QuantileForecast(2, 8)) == 0

    def test_negative_iff_strictly_inside(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            lo, hi = sorted(dyadic(rng, size=2))
            y = dyadic(rng)
            s = conformity_score(y, QuantileForecast(lo, hi))
            assert (s < 0) == (lo < y < hi)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            lo, hi = sorted(dyadic(rng, size=2))
            y, c = dyadic(rng), dyadic(rng)
            base = conformity_score(y, QuantileForecast(lo, hi))
            shifted = conformity_score(y + c, QuantileForecast(lo + c, hi + c))
            assert shifted == base

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            conformity_score(float("nan"), QuantileForecast(0, 1))


class TestQuantileForecast:
    def test_crossed_inputs_swap_and_flag(self):
        fc = QuantileForecast(8, 2)
        assert (fc.lo, fc.hi, fc.crossed) == (2, 8, True)

    def test_ordered_inputs_unflagged(self):
        fc = QuantileForecast(2, 8)
        assert (fc.lo, fc.hi, fc.crossed) == (2, 8, False)

    def test_midpoint(self):
        assert QuantileForecast(2, 8).midpoint == 5


class TestBuildIntervals:
    def test_qcp_widening(self):
        band = build_interval_qcp(QuantileForecast(2, 8), 1.5)
        assert (band.low, band.up) == (0.5, 9.5)

    def test_qcp_zero_widening_is_identity(self):
        band = build_interval_qcp(QuantileForecast(2, 8), 0)
        assert (band.low, band.up) == (2, 8)

    def test_qcp_empty_quantile_gives_empty_interval(self):
        assert build_interval_qcp(QuantileForecast(2, 8), None).empty

    def test_cp_wide_residual_can_cross_zero(self):
        band = build_interval_qcp(QuantileForecast(7, 7), 10)
        assert (band.low, band.up) == (-3, 17)

    def test_cp_degenerate(self):
        band = build_interval_qcp(QuantileForecast(7, 7), 0)
        assert (band.low, band.up) == (7, 7)

    def test_cp_inflated_widening(self):
        inflated = CalibrationWindow(2, [1.0, 2.0]).quantile_with_rules(1.5)
        band = build_interval_qcp(QuantileForecast(0, 0), inflated)
        assert (band.low, band.up) == (-4, 4)

    def test_nonnegative_clamp(self):
        band = build_interval_qcp(QuantileForecast(7, 7), 10, clamp_nonnegative=True)
        assert (band.low, band.up) == (0, 17)
        band = build_interval_qcp(QuantileForecast(-9, -8), 0, clamp_nonnegative=True)
        assert (band.low, band.up) == (0, 0)

    def test_monotone_nesting(self):
        """Smaller widening always yields a subset (the empty set nests in all)."""
        rng = np.random.default_rng(9)
        for _ in range(200):
            lo, hi = sorted(dyadic(rng, size=2))
            v1, v2 = sorted(dyadic(rng, size=2))
            b1 = build_interval_qcp(QuantileForecast(lo, hi), v1)
            b2 = build_interval_qcp(QuantileForecast(lo, hi), v2)
            if b2.empty:
                assert b1.empty
            elif not b1.empty:
                assert b2.low <= b1.low and b1.up <= b2.up

    def test_inverted_widening_is_empty(self):
        band = build_interval_qcp(QuantileForecast(2, 8), -4)
        assert band.empty
        band = build_interval_qcp(QuantileForecast(5, 5), -1)
        assert band.empty


class TestContainsAndLength:
    def test_closed_upper_endpoint(self):
        assert contains(PredictionInterval(0.5, 9.5), 9.5)

    def test_empty_contains_nothing(self):
        assert not contains(PredictionInterval.empty_set(), 0)

    def test_strict_exterior(self):
        assert not contains(PredictionInterval(2, 8), 1.99)

    def test_lengths(self):
        assert interval_length(PredictionInterval(0.5, 9.5)) == 9
        assert interval_length(PredictionInterval(7, 7)) == 0
        assert interval_length(PredictionInterval.empty_set()) == 0.0

    def test_bounds_order_enforced(self):
        with pytest.raises(ValueError, match="out of order"):
            PredictionInterval(3, 1)


class TestDuality:
    def test_coverage_score_duality_exact(self):
        """contains(widened interval, y) <=> score(y) <= widening, exactly."""
        rng = np.random.default_rng(17)
        for _ in range(2000):
            lo, hi = sorted(dyadic(rng, size=2))
            y = dyadic(rng)
            v = dyadic(rng)
            fc = QuantileForecast(lo, hi)
            band = build_interval_qcp(fc, v)
            assert contains(band, y) == (conformity_score(y, fc) <= v)

    def test_duality_float_fuzz(self):
        """Same equivalence on arbitrary floats away from exact boundaries."""
        rng = np.random.default_rng(19)
        checked = 0
        for _ in range(2000):
            lo, hi = np.sort(rng.normal(size=2) * 10)
            y = rng.normal() * 10
            v = rng.normal() * 5
            fc = QuantileForecast(lo, hi)
            s = conformity_score(y, fc)
            if abs(s - v) < 1e-9:
                continue
            checked += 1
            band = build_interval_qcp(fc, v)
            assert contains(band, y) == (s <= v)
        assert checked > 1500
