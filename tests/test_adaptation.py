"""Tests for the online alpha updates and their drift envelope.

The envelope checks drive the real update functions with array-valued states
(the arithmetic is elementwise), so bulk random trajectories exercise the
exact code path the engine uses.
"""

import math

import numpy as np
import pytest

from contina.adaptation import (
    AdaptHyperParams,
    RegionAdaptState,
    adaptive_rate,
    alpha_drift_bounds,
    coverage_error,
    update_alpha_adaptive,
    update_alpha_fixed,
    update_moment,
)

HP = AdaptHyperParams(target_alpha=0.1, gamma1=0.005, beta=0.99, epsilon=1e-8)


class TestCoverageError:
    @pytest.mark.parametrize(
        "hits,expected",
        [((True, True), 0.0), ((True, False), 0.5), ((False, False), 1.0)],
    )
    def test_values(self, hits, expected):
        assert coverage_error(*hits) == expected


class TestFixedUpdate:
    def test_full_miss(self):
        s = RegionAdaptState("r", alpha=0.1)
        out = update_alpha_fixed(s, err=1.0, gamma=0.01, hp=HP)
        assert out.alpha == pytest.approx(0.091, abs=1e-15)
        assert out.moment == s.moment

    def test_full_hit(self):
        out = update_alpha_fixed(RegionAdaptState("r", 0.1), 0.0, 0.01, HP)
        assert out.alpha == pytest.approx(0.101, abs=1e-15)

    def test_err_at_target_is_fixed_point(self):
        out = update_alpha_fixed(RegionAdaptState("r", 0.37), HP.target_alpha, 0.01, HP)
        assert out.alpha == 0.37

    def test_zero_gamma_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = float(rng.normal())
            out = update_alpha_fixed(RegionAdaptState("r", a), float(rng.uniform()), 0.0, HP)
            assert out.alpha == a

    def test_telescoping_identity_dyadic_exact(self):
        """alpha_T - alpha_1 == gamma * sum(target - err) with dyadic inputs."""
        hp = AdaptHyperParams(target_alpha=0.25, gamma1=0.005, beta=0.99, epsilon=1e-8)
        gamma = 2.0**-7
        rng = np.random.default_rng(8)
        errs = rng.choice([0.0, 0.5, 1.0], size=500)
        state = RegionAdaptState("r", alpha=0.25)
        for e in errs:
            state = update_alpha_fixed(state, float(e), gamma, hp)
        assert state.alpha - 0.25 == gamma * math.fsum(0.25 - e for e in errs)

    def test_telescoping_identity_float(self):
        rng = np.random.default_rng(9)
        errs = rng.choice([0.0, 0.5, 1.0], size=2000)
        state = RegionAdaptState("r", alpha=HP.target_alpha)
        for e in errs:
            state = update_alpha_fixed(state, float(e), 0.005, HP)
        expected = 0.005 * math.fsum(HP.target_alpha - e for e in errs)
        assert state.alpha - HP.target_alpha == pytest.approx(expected, abs=1e-12)


class TestMomentUpdate:
    def test_zero_innovation(self):
        s = RegionAdaptState("r", 0.1, moment=0.0)
        assert update_moment(s, err=0.1, hp=HP).moment == 0.0

    def test_arithmetic(self):
        s = RegionAdaptState("r", 0.1, moment=0.5)
        out = update_moment(s, err=1.0, hp=HP)
        assert out.moment == pytest.approx(0.99 * 0.5 + 0.01 * 0.81, abs=1e-15)

    def test_moment_stays_below_one(self):
        rng = np.random.default_rng(2)
        state = RegionAdaptState("r", 0.1, moment=0.0)
        for e in rng.choice([0.0, 0.5, 1.0], size=5000):
            state = update_moment(state, float(e), HP)
            assert 0.0 <= state.moment < 1.0


class TestAdaptiveUpdate:
    def test_full_miss_step(self):
        """Cross-check one step against an independent scalar recomputation."""
        state = RegionAdaptState("r", alpha=0.1, moment=0.0)
        out = update_alpha_adaptive(state, err=1.0, hp=HP)

        moment = 0.99 * 0.0 + 0.01 * (1.0 - 0.1) ** 2
        rate = 0.005 / (math.sqrt(moment) + 1e-8)
        alpha = 0.1 - rate * (1.0 - 0.1)
        assert moment == pytest.approx(0.0081, rel=1e-12)
        assert rate == pytest.approx(0.0555555, abs=1e-6)
        assert alpha == pytest.approx(0.05, abs=1e-7)
        assert out.moment == pytest.approx(moment, rel=1e-12)
        assert out.alpha == pytest.approx(alpha, rel=1e-12)

    def test_err_at_target_leaves_alpha_decays_moment(self):
        state = RegionAdaptState("r", alpha=0.123, moment=0.4)
        out = update_alpha_adaptive(state, err=HP.target_alpha, hp=HP)
        assert out.alpha == 0.123
        assert out.moment == 0.99 * 0.4

    def test_repeated_hits_raise_alpha_monotonically(self):
        state = RegionAdaptState("r", alpha=0.1, moment=0.0)
        prev = state.alpha
        for _ in range(100):
            state = update_alpha_adaptive(state, err=0.0, hp=HP)
            assert state.alpha > prev
            prev = state.alpha

    def test_deterministic_bitwise(self):
        state = RegionAdaptState("r", alpha=0.0731, moment=0.2)
        a = update_alpha_adaptive(state, 0.5, HP)
        b = update_alpha_adaptive(state, 0.5, HP)
        assert (a.alpha, a.moment) == (b.alpha, b.moment)

    def test_rate_formula(self):
        assert adaptive_rate(0.0081, HP) == pytest.approx(0.005 / (0.09 + 1e-8), abs=0)


class TestDriftBounds:
    def test_k_at_low_alpha(self):
        b = alpha_drift_bounds(HP)
        assert b.k == min(1.0, 16.0, 81.0) == 1.0

    def test_bound_value(self):
        b = alpha_drift_bounds(HP)
        expected = 0.005 / (0.1 * math.sqrt((1.0 - 0.99) * 1.0) + 1e-8)
        assert b.lower == pytest.approx(-expected, rel=1e-12)
        assert b.upper == pytest.approx(1.0 + expected, rel=1e-12)
        assert expected == pytest.approx(0.5, abs=1e-5)

    def test_degenerate_at_half(self):
        hp = AdaptHyperParams(target_alpha=0.5, gamma1=0.005, beta=0.99, epsilon=1e-8)
        b = alpha_drift_bounds(hp)
        assert b.k == 0.0
        assert b.upper == pytest.approx(1.0 + hp.gamma1 / hp.epsilon, rel=1e-12)

    def test_alpha_never_leaves_envelope_bulk(self):
        """2000 random coupled trajectories x 200 steps through the real update.

        Random errors are constrained by the regimes the online system
        enforces: an effectively-infinite interval (alpha_t < 0) always
        covers, an empty interval (alpha_t > 1) never does. Inside [0, 1]
        the error is arbitrary.
        """
        rng = np.random.default_rng(42)
        for _ in range(10):
            hp = AdaptHyperParams(
                target_alpha=float(rng.uniform(0.02, 0.45)),
                gamma1=float(rng.uniform(1e-4, 0.05)),
                beta=float(rng.uniform(0.8, 0.999)),
                epsilon=1e-8,
            )
            lower, upper, _ = alpha_drift_bounds(hp)
            state = RegionAdaptState(
                "bulk", alpha=np.full(200, hp.target_alpha), moment=np.zeros(200)
            )
            for _ in range(200):
                errs = rng.choice([0.0, 0.5, 1.0], size=200)
                errs = np.where(state.alpha < 0.0, 0.0, errs)
                errs = np.where(state.alpha > 1.0, 1.0, errs)
                state = update_alpha_adaptive(state, errs, hp)
                assert (state.alpha >= lower).all() and (state.alpha <= upper).all()
                assert (state.moment < 1.0).all()


class TestHyperParams:
    @pytest.mark.parametrize(
        "kw",
        [
            {"target_alpha": 0.0},
            {"target_alpha": 1.0},
            {"gamma1": 0.0},
            {"beta": 1.0},
            {"epsilon": 0.0},
        ],
    )
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ValueError):
            AdaptHyperParams(**{**dict(target_alpha=0.1), **kw})
