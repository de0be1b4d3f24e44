"""Tests for the online alpha update and its drift envelope.

``alpha_step`` is the one specification of the update. The envelope checks
drive it with per-region arrays (the arithmetic is elementwise), so bulk
random trajectories run the code the tracker runs, and ``alpha_path``, which
the state audit runs, must equal a loop of scalar steps bit for bit.
"""

import math

import numpy as np
import pytest

from contina.adaptation import (
    AdaptHyperParams,
    alpha_drift_bounds,
    alpha_path,
    alpha_step,
    coverage_error,
    learning_rate,
)

HP = AdaptHyperParams(target_alpha=0.1, gamma1=0.005, beta=0.99, epsilon=1e-8)


def fixed(alpha, err, gamma, hp=HP, moment=0.0):
    return alpha_step("aci_fixed", alpha, moment, err, gamma, hp)


def adaptive(alpha, moment, err, hp=HP):
    return alpha_step("contina", alpha, moment, err, 0.0, hp)


class TestCoverageError:
    @pytest.mark.parametrize(
        "hits,expected",
        [((True, True), 0.0), ((True, False), 0.5), ((False, False), 1.0)],
    )
    def test_values(self, hits, expected):
        assert coverage_error(*hits) == expected


class TestStaticMethods:
    @pytest.mark.parametrize("method", ["cp", "qcp"])
    def test_keep_alpha_and_moment_and_step_by_zero(self, method):
        errs = np.array([0.0, 0.5, 1.0])
        alpha, moment, step = alpha_step(method, 0.3, 0.2, errs, 0.01, HP)
        assert (alpha, moment) == (0.3, 0.2)
        assert step.tolist() == [0.0, 0.0, 0.0]


class TestFixedUpdate:
    def test_full_miss(self):
        alpha, moment, step = fixed(0.1, err=1.0, gamma=0.01, moment=0.3)
        assert alpha == pytest.approx(0.091, abs=1e-15)
        assert moment == 0.3
        assert step == 0.01 * (0.1 - 1.0)

    def test_full_hit(self):
        alpha, _, _ = fixed(0.1, 0.0, 0.01)
        assert alpha == pytest.approx(0.101, abs=1e-15)

    def test_err_at_target_is_fixed_point(self):
        alpha, _, step = fixed(0.37, HP.target_alpha, 0.01)
        assert alpha == 0.37 and step == 0.0

    def test_zero_gamma_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = float(rng.normal())
            alpha, _, _ = fixed(a, float(rng.uniform()), 0.0)
            assert alpha == a

    def test_telescoping_identity_dyadic_exact(self):
        """alpha_T - alpha_1 == gamma * sum(target - err) with dyadic inputs."""
        hp = AdaptHyperParams(target_alpha=0.25, gamma1=0.005, beta=0.99, epsilon=1e-8)
        gamma = 2.0**-7
        rng = np.random.default_rng(8)
        errs = rng.choice([0.0, 0.5, 1.0], size=500)
        alpha = 0.25
        for e in errs:
            alpha, _, _ = fixed(alpha, float(e), gamma, hp)
        assert alpha - 0.25 == gamma * math.fsum(0.25 - e for e in errs)

    def test_telescoping_identity_float(self):
        rng = np.random.default_rng(9)
        errs = rng.choice([0.0, 0.5, 1.0], size=2000)
        alpha = HP.target_alpha
        for e in errs:
            alpha, _, _ = fixed(alpha, float(e), 0.005)
        expected = 0.005 * math.fsum(HP.target_alpha - e for e in errs)
        assert alpha - HP.target_alpha == pytest.approx(expected, abs=1e-12)


class TestMomentUpdate:
    def test_zero_innovation(self):
        assert adaptive(0.1, 0.0, err=0.1)[1] == 0.0

    def test_arithmetic(self):
        _, moment, _ = adaptive(0.1, 0.5, err=1.0)
        assert moment == pytest.approx(0.99 * 0.5 + 0.01 * 0.81, abs=1e-15)

    def test_moment_stays_below_one(self):
        rng = np.random.default_rng(2)
        alpha, moment = 0.1, 0.0
        for e in rng.choice([0.0, 0.5, 1.0], size=5000):
            alpha, moment, _ = adaptive(alpha, moment, float(e))
            assert 0.0 <= moment < 1.0


class TestAdaptiveUpdate:
    def test_full_miss_step(self):
        """Cross-check one step against an independent scalar recomputation."""
        alpha, moment, step = adaptive(0.1, 0.0, err=1.0)

        want_moment = 0.99 * 0.0 + 0.01 * (1.0 - 0.1) ** 2
        rate = 0.005 / (math.sqrt(want_moment) + 1e-8)
        want_alpha = 0.1 - rate * (1.0 - 0.1)
        assert want_moment == pytest.approx(0.0081, rel=1e-12)
        assert rate == pytest.approx(0.0555555, abs=1e-6)
        assert want_alpha == pytest.approx(0.05, abs=1e-7)
        assert moment == pytest.approx(want_moment, rel=1e-12)
        assert alpha == pytest.approx(want_alpha, rel=1e-12)
        assert step == pytest.approx(rate * (0.1 - 1.0), rel=1e-12)

    def test_err_at_target_leaves_alpha_decays_moment(self):
        alpha, moment, step = adaptive(0.123, 0.4, err=HP.target_alpha)
        assert alpha == 0.123 and step == 0.0
        assert moment == 0.99 * 0.4

    def test_repeated_hits_raise_alpha_monotonically(self):
        alpha, moment = 0.1, 0.0
        for _ in range(100):
            prev = alpha
            alpha, moment, _ = adaptive(alpha, moment, err=0.0)
            assert alpha > prev

    def test_deterministic_bitwise(self):
        assert adaptive(0.0731, 0.2, 0.5) == adaptive(0.0731, 0.2, 0.5)

    def test_rate_formula(self):
        rate = learning_rate("contina", 0.0081, 0.0, HP)
        assert rate == pytest.approx(0.005 / (0.09 + 1e-8), abs=0)


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
        """2000 random coupled trajectories x 200 steps through ``alpha_step``.

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
            alpha, moment = np.full(200, hp.target_alpha), np.zeros(200)
            for _ in range(200):
                errs = rng.choice([0.0, 0.5, 1.0], size=200)
                errs = np.where(alpha < 0.0, 0.0, errs)
                errs = np.where(alpha > 1.0, 1.0, errs)
                alpha, moment, _ = adaptive(alpha, moment, errs, hp)
                assert (alpha >= lower).all() and (alpha <= upper).all()
                assert (moment < 1.0).all()


class TestAlphaPath:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rate", [0.005, 5.0])
    @pytest.mark.parametrize("method", ["cp", "qcp", "aci_fixed", "contina"])
    def test_columns_equal_a_loop_of_scalar_steps(self, method, rate, seed):
        rng = np.random.default_rng(seed)
        hp = AdaptHyperParams(target_alpha=rng.uniform(0.02, 0.5), gamma1=rate,
                              beta=rng.uniform(0.5, 0.999), epsilon=1e-8)
        # Per-region hit rates from rare to always, over 5 regions x 300 steps.
        covered = rng.random((5, 300, 2)) < np.linspace(0.2, 1.0, 5)[:, None, None]
        alpha, moment, rate_t, update_sum = alpha_path(method, covered, rate, hp)
        assert alpha.shape == moment.shape == (5, 301)
        for i in range(5):
            a, m, total, want = hp.target_alpha, 0.0, 0.0, [(hp.target_alpha, 0.0)]
            for hit_in, hit_out in covered[i].tolist():
                a, m, step = alpha_step(method, a, m, coverage_error(hit_in, hit_out), rate, hp)
                total += step
                want.append((a, m))
            assert np.column_stack([alpha[i], moment[i]]).tobytes() == np.array(want).tobytes()
            assert np.array([rate_t[i], update_sum[i]]).tobytes() == \
                np.array([learning_rate(method, m, rate, hp), total]).tobytes()
        if method in ("cp", "qcp"):
            assert (alpha == hp.target_alpha).all() and not moment.any()
            assert not rate_t.any() and not update_sum.any()
        elif rate == 5.0:
            assert (alpha < 0.0).any() and (alpha > 1.0).any()


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
