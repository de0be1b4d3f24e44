"""Tests for the per-region online tracker.

The replay engine drives ``observe_series`` on raw float sequences, while
``observe`` is the object-path specification of a step and never runs the
engine. Twin-run and seeded differential tests pin the two paths to
bit-identical behavior, and the update is pinned to its recurrence written out
step by step.
"""

import math

import numpy as np
import pytest

from contina.adaptation import AdaptHyperParams, alpha_drift_bounds, alpha_step, learning_rate
from contina.errors import DataFormatError, EmptyCalibrationError, NotFittedError
from contina.intervals import QuantileForecast, contains, interval_length
from contina.tracker import ConformalIntervalTracker
from contina.windows import CalibrationWindow

HP = AdaptHyperParams()


def random_forecast_stream(rng, n):
    for _ in range(n):
        lo1, hi1 = np.sort(rng.normal(10, 3, size=2))
        lo2, hi2 = np.sort(rng.normal(5, 2, size=2))
        y1 = rng.normal(10, 4)
        y2 = rng.normal(5, 3)
        yield (QuantileForecast(lo1, hi1), QuantileForecast(lo2, hi2)), (y1, y2)


class TestEstimatorProtocol:
    def test_get_set_params_roundtrip(self):
        tr = ConformalIntervalTracker(method="aci_fixed", gamma=0.01, window=50)
        params = tr.get_params()
        clone = ConformalIntervalTracker(**params)
        assert clone.get_params() == params
        tr.set_params(alpha=0.2)
        assert tr.alpha == 0.2
        with pytest.raises(ValueError, match="invalid parameter"):
            tr.set_params(nope=1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            ConformalIntervalTracker(method="magic")

    @pytest.mark.parametrize("name, value", [
        ("window", 2.5), ("window", 0), ("clamp_nonnegative", "false"), ("clamp_nonnegative", 1),
    ])
    def test_bad_window_or_clamp_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            ConformalIntervalTracker(**{name: value})

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            ConformalIntervalTracker().predict(
                (QuantileForecast(0, 1), QuantileForecast(0, 1))
            )

    def test_empty_calibration_rejected(self):
        with pytest.raises(EmptyCalibrationError, match="out"):
            ConformalIntervalTracker().fit([1.0], [])

    def test_empty_numpy_calibration_rejected(self):
        with pytest.raises(EmptyCalibrationError, match="'in'"):
            ConformalIntervalTracker().fit(np.array([]), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_calibration_score_names_its_flow(self, bad):
        tracker = ConformalIntervalTracker()
        with pytest.raises(DataFormatError, match=f"^flow out: score must be finite, got {bad}$"):
            tracker.fit([1.0, 2.0], [1.0, bad])
        assert tracker.windows_ is None

    def test_window_capacity_default_is_calibration_size(self):
        tr = ConformalIntervalTracker().fit([1.0] * 7, [1.0] * 7)
        assert tr.windows_[0].capacity == 7

    def test_window_capacity_override(self):
        tr = ConformalIntervalTracker(window=3).fit([1.0] * 7, [2.0] * 7)
        assert tr.windows_[0].capacity == 3
        assert len(tr.windows_[0]) == 3


class TestPredictComposition:
    def test_predict_matches_manual_composition(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=40)
        tr = ConformalIntervalTracker(method="qcp", alpha=0.1).fit(scores, scores)
        fc = QuantileForecast(2.0, 8.0)
        got = tr.predict((fc, fc))[0]
        want_v = CalibrationWindow(40, scores).quantile(0.9)
        assert (got.low, got.up) == (2.0 - want_v, 8.0 + want_v)

    def test_cp_interval_symmetric_about_midpoint(self):
        tr = ConformalIntervalTracker(method="cp", alpha=0.1).fit([1.0] * 10, [1.0] * 10)
        band = tr.predict((QuantileForecast(2.0, 8.0), QuantileForecast(0.0, 0.0)))[0]
        assert (band.low, band.up) == (5.0 - 1.0, 5.0 + 1.0)

    def test_static_methods_keep_alpha_fixed(self):
        rng = np.random.default_rng(1)
        for method in ("cp", "qcp"):
            tr = ConformalIntervalTracker(method=method, alpha=0.1)
            tr.fit(rng.normal(size=30), rng.normal(size=30))
            for fcs, ys in random_forecast_stream(rng, 100):
                tr.observe(fcs, ys)
            assert tr.alpha_t_ == 0.1
            assert tr.update_sum_ == 0.0


class TestFastAndObjectPathsAgree:
    @pytest.mark.parametrize("method", ["cp", "qcp", "aci_fixed", "contina"])
    def test_twin_runs_bit_identical(self, method):
        rng = np.random.default_rng(7)
        calib = rng.normal(size=50)
        a = ConformalIntervalTracker(method=method).fit(calib, calib + 1)
        b = ConformalIntervalTracker(method=method).fit(calib, calib + 1)
        for fcs, ys in random_forecast_stream(rng, 400):
            eff = a._effective_pair(fcs)
            intervals = a.predict(fcs)
            fast = a.observe_fast(eff[0].lo, eff[0].hi, eff[1].lo, eff[1].hi,
                                  float(ys[0]), float(ys[1]))
            outcome = b.observe(fcs, ys)
            # object path reproduces the fast path record for record
            for j, (cov, length, empty) in enumerate(
                [(fast[0], fast[1], fast[2]), (fast[3], fast[4], fast[5])]
            ):
                assert outcome.covered[j] == cov == contains(intervals[j], ys[j])
                assert interval_length(intervals[j]) == length
                assert intervals[j].empty == empty
            assert outcome.err == fast[6]
            assert (a.alpha_t_, a.moment_) == (b.alpha_t_, b.moment_)
            assert a.windows_[0].scores == b.windows_[0].scores

    def test_contina_update_follows_the_written_out_recurrence(self):
        rng = np.random.default_rng(8)
        tr = ConformalIntervalTracker(method="contina").fit([0.5] * 20, [0.5] * 20)
        alpha, moment, total = tr.alpha, 0.0, 0.0
        for fcs, ys in random_forecast_stream(rng, 300):
            err = tr.observe(fcs, ys).err
            innov = err - 0.1
            moment = 0.99 * moment + (1.0 - 0.99) * innov * innov
            rate = 0.005 / (math.sqrt(moment) + 1e-8)
            alpha = alpha - rate * innov
            total += rate * (0.1 - err)
            assert (tr.alpha_t_, tr.moment_, tr.update_sum_) == (alpha, moment, total)

    def test_fixed_update_follows_the_written_out_recurrence(self):
        rng = np.random.default_rng(9)
        tr = ConformalIntervalTracker(method="aci_fixed", gamma=0.02)
        tr.fit([0.5] * 20, [0.5] * 20)
        alpha, total = tr.alpha, 0.0
        for fcs, ys in random_forecast_stream(rng, 300):
            step = 0.02 * (0.1 - tr.observe(fcs, ys).err)
            alpha += step
            total += step
            assert (tr.alpha_t_, tr.moment_, tr.update_sum_) == (alpha, 0.0, total)


def tied_forecast_stream(rng, n):
    """Short streams on a coarse grid, so scores tie and signed zeros occur."""
    grid = np.array([-0.0, 0.0, 0.5, 1.0, 2.0, 3.0])
    for _ in range(n):
        pair = []
        for _ in range(2):
            lo, hi = sorted(rng.choice(grid, size=2).tolist())
            pair.append(QuantileForecast(lo, hi))
        yield tuple(pair), tuple(rng.choice(grid, size=2).tolist())


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestSeriesAgainstObjectPath:
    CALIB = 20

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("window", [5, CALIB, 45])
    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("bands", ["raw", "collapsed"])
    @pytest.mark.parametrize("method", ["cp", "qcp", "aci_fixed", "contina"])
    def test_random_streams_bit_identical(self, method, bands, clamp, window, seed):
        rng = np.random.default_rng(seed)
        calib = np.round(rng.normal(0.5, 1.0, size=(2, self.CALIB)), 1)
        # A rate of 5 moves alpha_t far enough per step that the working
        # level leaves [0, 1] on both sides.
        params = dict(method=method, window=window, clamp_nonnegative=clamp,
                      gamma=5.0, gamma1=5.0)
        bulk = ConformalIntervalTracker(**params).fit(calib[0], calib[1])
        ref = ConformalIntervalTracker(**params).fit(calib[0], calib[1])
        stream = list(tied_forecast_stream(rng, 200))

        want, levels = [], []
        for fcs, ys in stream:
            levels.append(1.0 - ref.alpha_t_)
            out = ref.observe(fcs, ys)
            want.append([(hit, interval_length(band), band.empty)
                         for band, hit in zip(out.intervals, out.covered)])

        cols = [[] for _ in range(6)]
        cuts = sorted(rng.integers(0, len(stream) + 1, size=2).tolist())
        for a, b in zip([0, *cuts], [*cuts, len(stream)]):
            segment = stream[a:b]
            # observe_series takes the raw bands; cp's midpoints give the same bits.
            effective = [bulk._effective_pair(fcs) if bands == "collapsed" else fcs
                         for fcs, _ in segment]
            out = bulk.observe_series(
                [e[0].lo for e in effective], [e[0].hi for e in effective],
                [e[1].lo for e in effective], [e[1].hi for e in effective],
                [ys[0] for _, ys in segment], [ys[1] for _, ys in segment],
            )
            for col, part in zip(cols, out):
                col.extend(part)

        for j in (0, 1):
            assert cols[3 * j] == [w[j][0] for w in want]
            assert bits(cols[3 * j + 1]) == bits([w[j][1] for w in want])
            assert cols[3 * j + 2] == [w[j][2] for w in want]
        for attr in ("alpha_t_", "moment_", "update_sum_"):
            assert bits(getattr(bulk, attr)) == bits(getattr(ref, attr))
        for wb, wr in zip(bulk.windows_, ref.windows_):
            assert bits(wb.scores) == bits(wr.scores)
            assert bits(wb.buffers()[1]) == bits(wr.buffers()[1])
        if method in ("aci_fixed", "contina"):
            assert min(levels) < 0.0 and max(levels) > 1.0

    @pytest.mark.parametrize("method", ["cp", "qcp"])
    def test_clamped_band_below_zero_covers_zero_demand(self, method):
        tracker = ConformalIntervalTracker(method=method, clamp_nonnegative=True)
        tracker.fit([0.5] * 5, [0.5] * 5)
        fcs = (QuantileForecast(-3.0, -2.0), QuantileForecast(-3.0, -2.0))
        band = tracker.predict(fcs)[0]
        assert (band.low, band.up, band.empty) == (0.0, 0.0, False)
        lo, hi = (-2.5, -2.5) if method == "cp" else (-3.0, -2.0)
        out = tracker.observe_series([lo], [hi], [lo], [hi], [0.0], [0.1])
        assert out == ([True], [0.0], [False], [False], [0.0], [False])

    def test_malformed_sequences_rejected(self):
        tracker = ConformalIntervalTracker().fit([0.5] * 5, [0.5] * 5)
        with pytest.raises(ValueError, match="one length"):
            tracker.observe_series([0.0], [1.0], [0.0], [1.0], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="1-D"):
            tracker.observe_series(*[[[0.5]]] * 6)

    def test_empty_segment_leaves_state_alone(self):
        tracker = ConformalIntervalTracker().fit([0.5] * 5, [0.5] * 5)
        assert tracker.observe_series([], [], [], [], [], []) == ([], [], [], [], [], [])
        assert (tracker.alpha_t_, tracker.windows_[0].scores) == (0.1, (0.5,) * 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_raises_before_any_step(self, bad):
        tracker = ConformalIntervalTracker(method="contina").fit([0.5] * 5, [0.5] * 5)
        before = (tracker.alpha_t_, tracker.windows_[1].scores)
        with pytest.raises(DataFormatError, match="^flow out: score must be finite"):
            tracker.observe_series([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0],
                                   [0.5, 0.5], [0.5, bad])
        assert (tracker.alpha_t_, tracker.windows_[1].scores) == before


class TestObserveIsTheSpecPath:
    def test_observe_runs_without_the_engine(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("observe must not run observe_series")

        monkeypatch.setattr(ConformalIntervalTracker, "observe_series", refuse)
        tr = ConformalIntervalTracker(method="contina").fit([0.5] * 20, [0.5] * 20)
        rng = np.random.default_rng(11)
        for fcs, ys in random_forecast_stream(rng, 50):
            tr.observe(fcs, ys)
        assert tr.alpha_t_ != tr.alpha
        assert len(tr.windows_[0].scores) == 20

    def test_overflowing_score_changes_no_state(self):
        # The outflow score overflows to inf; the inflow score is finite and
        # must not be pushed either.
        tr = ConformalIntervalTracker(method="contina").fit([0.5] * 5, [0.5] * 5)
        tr.observe((QuantileForecast(0.0, 1.0), QuantileForecast(0.0, 1.0)), (3.0, 0.2))
        before = (tr.windows_[0].scores, tr.windows_[1].scores, tr.alpha_t_, tr.moment_,
                  tr.update_sum_)
        fcs = (QuantileForecast(0.0, 1.0), QuantileForecast(-1.7e308, -1.7e308))
        with pytest.raises(DataFormatError, match="^flow out: score must be finite, got inf$"):
            tr.observe(fcs, (0.7, 1.7e308))
        after = (tr.windows_[0].scores, tr.windows_[1].scores, tr.alpha_t_, tr.moment_,
                 tr.update_sum_)
        assert after == before


class TestScorePushes:
    def test_scores_pushed_for_every_step_even_when_empty(self):
        tr = ConformalIntervalTracker(method="contina", window=5).fit([1.0] * 5, [1.0] * 5)
        tr.alpha_t_ = 1.5  # forces the empty-interval branch
        fcs = (QuantileForecast(0.0, 1.0), QuantileForecast(0.0, 1.0))
        out = tr.observe(fcs, (0.5, 2.0))
        assert out.intervals[0].empty and out.intervals[1].empty
        assert out.err == 1.0
        assert tr.windows_[0].scores[-1] == -0.5
        assert tr.windows_[1].scores[-1] == 1.0


class TestForcedMissDynamics:
    def test_exploding_misses_descend_toward_lower_bound(self):
        """Unbeatable misses walk alpha down into the inflated-widening regime.

        Demand grows faster than twice the window maximum, so every interval
        (inflated or not) misses and alpha_t decreases step after step toward
        the drift envelope's lower end.
        """
        tr = ConformalIntervalTracker(method="contina", alpha=0.1).fit([1.0] * 50,
                                                                       [1.0] * 50)
        bounds = alpha_drift_bounds(HP)
        fcs = (QuantileForecast(0.0, 0.0), QuantileForecast(0.0, 0.0))
        y = 10.0
        saw_inflated_level = False
        prev = tr.alpha_t_
        for _ in range(400):
            if tr.alpha_t_ < 0.0:
                saw_inflated_level = True
            out = tr.observe(fcs, (y, y))
            assert out.err == 1.0
            assert tr.alpha_t_ < prev
            prev = tr.alpha_t_
            y *= 3.0
            if tr.alpha_t_ <= bounds.lower + 0.02:
                break
        assert saw_inflated_level
        assert tr.alpha_t_ <= bounds.lower + 0.02

    def test_constant_misses_recover_through_window(self):
        """A constant outlier enters the window and re-covers within two steps."""
        tr = ConformalIntervalTracker(method="contina", alpha=0.1).fit([1.0] * 50,
                                                                       [1.0] * 50)
        fcs = (QuantileForecast(0.0, 0.0), QuantileForecast(0.0, 0.0))
        errs = [tr.observe(fcs, (1000.0, 1000.0)).err for _ in range(50)]
        assert errs[0] == 1.0
        assert set(errs[2:]) == {0.0}

    def test_update_sum_telescopes_to_alpha_displacement(self):
        rng = np.random.default_rng(10)
        tr = ConformalIntervalTracker(method="contina").fit(
            rng.normal(size=100), rng.normal(size=100)
        )
        for fcs, ys in random_forecast_stream(rng, 2000):
            tr.observe(fcs, ys)
        assert tr.alpha_t_ - tr.alpha == pytest.approx(tr.update_sum_, abs=1e-9)


METHODS = ["cp", "qcp", "aci_fixed", "contina"]


class TestLearningRate:
    """One rule gives the rate for scalars, region arrays and ``rate_``."""

    @pytest.mark.parametrize("method", METHODS)
    def test_scalar_rule(self, method):
        hp = AdaptHyperParams(0.1, 0.02, 0.9, 1e-3)
        expected = {"contina": 0.02 / (np.sqrt(0.25) + 1e-3),
                    "aci_fixed": 0.07}.get(method, 0.0)
        assert learning_rate(method, 0.25, 0.07, hp) == expected

    @pytest.mark.parametrize("method", METHODS)
    def test_array_matches_scalar_per_region(self, method):
        moments = np.array([[0.0, 1e-12, 0.04], [0.25, 1.0, 7.5]])
        got = learning_rate(method, moments, 0.07, HP)
        assert got.shape == moments.shape
        want = [learning_rate(method, float(m), 0.07, HP) for m in moments.ravel()]
        assert bits(got.ravel()) == bits(want)
        # alpha_step too: (alpha, moment, step) per region, as the state audit runs it.
        alphas = np.array([[0.1, -0.3, 0.9], [1.2, 0.05, 0.5]])
        errs = np.array([[0.0, 0.5, 1.0], [1.0, 0.0, 0.5]])
        got = alpha_step(method, alphas, moments, errs, 0.07, HP)
        want = [alpha_step(method, float(a), float(m), float(e), 0.07, HP)
                for a, m, e in zip(alphas.ravel(), moments.ravel(), errs.ravel())]
        for k in range(3):
            assert got[k].shape == moments.shape
            assert bits(got[k].ravel()) == bits([w[k] for w in want])

    def test_rate_needs_fit(self):
        with pytest.raises(NotFittedError):
            ConformalIntervalTracker(method="contina").rate_

    @pytest.mark.parametrize("method", METHODS)
    def test_rate_property_follows_the_rule(self, method):
        rng = np.random.default_rng(21)
        tr = ConformalIntervalTracker(method=method, gamma=0.03, gamma1=0.01).fit(
            rng.normal(size=60), rng.normal(size=60)
        )
        for fcs, ys in random_forecast_stream(rng, 200):
            tr.observe(fcs, ys)
            hp = AdaptHyperParams(tr.alpha, tr.gamma1, tr.beta, tr.epsilon)
            assert tr.rate_ == float(learning_rate(method, tr.moment_, 0.03, hp))
        if method == "contina":
            assert tr.moment_ > 0.0
            assert tr.rate_ == 0.01 / (np.sqrt(tr.moment_) + tr.epsilon)
        else:
            assert tr.rate_ == {"aci_fixed": 0.03}.get(method, 0.0)
