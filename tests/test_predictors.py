"""Tests for the three base predictors."""

import re

import numpy as np
import pytest

from contina import predictors
from contina.errors import DataFormatError, MissingForecastError, NotFittedError
from contina.predictors import (
    PREDICTOR_KINDS,
    FileBackedForecasts,
    OnlinePinballLinearPredictor,
    PredictorSpec,
    SeasonalWindowPredictor,
    make_predictor,
    write_forecast_csv,
)
from contina.streams import FLOWS, DemandStream, Observation, read_demand_csv
from contina.windows import CalibrationWindow, quantile_rank


def flat_stream(values, n_regions=1):
    """A stream whose every (region, flow) series equals ``values``."""
    arr = np.asarray(values, dtype=np.float64)
    y = np.broadcast_to(arr, (n_regions, 2, len(arr))).copy()
    return DemandStream(region_ids=tuple(range(n_regions)), history=y)


def pinball_loss(pred, cell, t, lags, y):
    """Both heads' pinball loss, at levels alpha/2 and 1 - alpha/2, on one point."""
    q_lo, q_hi = pred._heads(cell, pred._features(cell, t, lags))
    loss = 0.0
    for q, tau in ((q_lo, pred.alpha / 2.0), (q_hi, 1.0 - pred.alpha / 2.0)):
        u = y - q
        loss += max(tau * u, (tau - 1.0) * u)
    return loss


class TestSeasonalWindow:
    def test_bucket_quantile_pair(self):
        stream = flat_stream([2, 4, 6, 8, 10, 12, 14, 16, 18, 20])
        pred = SeasonalWindowPredictor(alpha=0.1, by_hour=False).fit(stream)
        fc = pred.predict(0, "in", t=0)
        assert (fc.lo, fc.hi) == (2, 20)

    def test_hour_buckets_differ(self):
        values = [float(10 + (t % 24 == 3) * 90) for t in range(240)]
        pred = SeasonalWindowPredictor(alpha=0.2, by_hour=True, steps_per_day=24)
        pred.fit(flat_stream(values))
        spiky = pred.predict(0, "in", t=3 + 24)
        calm = pred.predict(0, "in", t=5)
        assert spiky.lo == 100 and calm.lo == 10

    def test_update_appends_and_evicts(self):
        stream = flat_stream([1.0] * 5)
        pred = SeasonalWindowPredictor(alpha=0.1, by_hour=False, window_len=5).fit(stream)
        for y in (9.0, 9.0, 9.0, 9.0, 9.0):
            pred.update(Observation(5, 0, "in", y, (1.0,) * 6))
        fc = pred.predict(0, "in", t=10)
        assert (fc.lo, fc.hi) == (9.0, 9.0)
        assert pred.predict(0, "out", t=10).lo == 1.0

    def test_cold_bucket_falls_back_to_global(self):
        stream = flat_stream(np.linspace(1, 100, 48))
        pred = SeasonalWindowPredictor(alpha=0.1, by_hour=True, steps_per_day=24)
        pred.fit(stream)
        fc = pred.predict("unseen-region", "in", t=0)
        assert 1 <= fc.lo <= fc.hi <= 100

    def test_cold_bucket_error_mode(self):
        pred = SeasonalWindowPredictor(alpha=0.1, fallback="error")
        pred.fit(flat_stream([1.0] * 24))
        with pytest.raises(NotFittedError, match="unseen"):
            pred.predict("unseen", "in", t=0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            SeasonalWindowPredictor().predict(0, "in", 0)

    @pytest.mark.parametrize("params, message", [
        ({"by_hour": "false"}, "by_hour must be true or false, got 'false'"),
        ({"by_hour": 1}, "by_hour must be true or false, got 1"),
        ({"fallback": "nope"}, "fallback must be 'global' or 'error', got 'nope'"),
    ])
    def test_constructor_refuses_what_the_spec_refuses(self, params, message):
        for build in (SeasonalWindowPredictor, PredictorSpec):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(**params)

    def test_series_matches_scalar_predictions(self):
        rng = np.random.default_rng(3)
        stream = flat_stream(rng.uniform(1, 50, size=200))
        pred = SeasonalWindowPredictor(alpha=0.1, by_hour=True).fit(stream)
        times = np.arange(200, 260)
        lo, hi = pred.predict_series(0, "in", times, None)
        for p, t in enumerate(times):
            fc = pred.predict(0, "in", int(t))
            assert (lo[p], hi[p]) == (fc.lo, fc.hi)

    def test_series_looks_up_only_the_requested_hours(self):
        # Ten training steps leave hours 10..23 cold; none of these steps asks for one.
        pred = SeasonalWindowPredictor(alpha=0.2, window_len=4, fallback="error")
        pred.fit(flat_stream(np.arange(10.0)))
        lo, hi = pred.predict_series(0, "in", [3, 4, 5, 27])
        assert list(zip(lo, hi)) == [(fc.lo, fc.hi) for fc in (
            pred.predict(0, "in", t) for t in (3, 4, 5, 27))]

    @pytest.mark.parametrize("times, hour", [([3, 4, 12, 5, 11], 12), ([35, 36, 13], 11)])
    def test_series_names_the_cold_hour_of_the_earliest_cold_step(self, times, hour):
        pred = SeasonalWindowPredictor(alpha=0.2, window_len=4, fallback="error")
        pred.fit(flat_stream(np.arange(10.0)))
        with pytest.raises(NotFittedError, match=f"hour={hour}\\)"):
            pred.predict_series(0, "in", times)
        glob = SeasonalWindowPredictor(alpha=0.2, window_len=4).fit(flat_stream(np.arange(10.0)))
        lo, hi = glob.predict_series(0, "in", times)
        assert list(zip(lo, hi)) == [(fc.lo, fc.hi) for fc in (
            glob.predict(0, "in", t) for t in times)]

    @pytest.mark.parametrize("fallback, times, raises", [
        ("global", [3, 4, 5, 27], None),
        ("global", [3, 4, 12, 5, 11, 27], None),  # cold hours 12 and 11 get the fallback
        ("error", [3, 4, 5, 27], None),
        ("error", [3, 27, 12, 5, 11], "hour=12"),  # the cold step sits mid-series
        ("error", [35, 36, 13], "hour=11"),
    ])
    def test_frozen_series_builds_no_window_and_leaves_the_state(self, monkeypatch, fallback,
                                                                  times, raises):
        # Ten training steps leave hours 10..23 cold; hour 3 has learned one value.
        pred = SeasonalWindowPredictor(alpha=0.2, window_len=4, fallback=fallback)
        pred.fit(flat_stream(np.arange(10.0)))
        pred.update(Observation(3, 0, "in", 7.0, (1.0,) * 6))
        before = predictor_state(pred)

        def refuse_window(*args):
            raise AssertionError("a frozen series built a CalibrationWindow")

        monkeypatch.setattr(predictors, "CalibrationWindow", refuse_window)
        if raises is None:
            lo, hi = pred.predict_series(0, "in", times)
            fcs = [pred.predict(0, "in", t) for t in times]
            assert bits(lo) == bits([fc.lo for fc in fcs])
            assert bits(hi) == bits([fc.hi for fc in fcs])
        else:
            with pytest.raises(NotFittedError, match=f"{raises}\\)"):
                pred.predict_series(0, "in", times)
        assert predictor_state(pred) == before


def eager_windows(stream, window_len, by_hour, steps_per_day=24):
    """Each bucket's ``CalibrationWindow``, built from its values at fit as one would eagerly."""
    times = stream.window_times()
    hours = times % steps_per_day if by_hour else np.zeros_like(times)
    return {(region, flow, h): CalibrationWindow(window_len,
                                                 stream.cell_series(i, j)[hours == h][-window_len:])
            for i, region in enumerate(stream.region_ids) for j, flow in enumerate(FLOWS)
            for h in np.unique(hours).tolist()}


def signed_demand(regions, steps, seed, zero_share=0.3):
    """Coarse demand with ties, where zeros carry random signs."""
    rng = np.random.default_rng(seed)
    y = rng.integers(1, 6, size=(regions, 2, steps)).astype(np.float64)
    zero = rng.random(y.shape) < zero_share
    y[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    return DemandStream(region_ids=tuple(range(regions)), history=y)


class TestSeasonalFitMatchesEagerWindows:
    """``fit`` reads each bucket's pair off one stable sort, bit for bit as an eager window."""

    def check(self, stream, alpha=0.2, window_len=168, by_hour=True, steps_per_day=24,
              fallback="global"):
        pred = SeasonalWindowPredictor(alpha=alpha, window_len=window_len, by_hour=by_hour,
                                       steps_per_day=steps_per_day, fallback=fallback).fit(stream)
        eager = eager_windows(stream, window_len, by_hour, steps_per_day)
        assert {key: bits(pair) for key, pair in pred._pairs.items()} == {
            key: bits([win.quantile(alpha / 2), win.quantile(1 - alpha / 2)])
            for key, win in eager.items()}
        assert {key: bits(v) for key, v in pred._values.items()} == {
            key: bits(win.scores) for key, win in eager.items()}
        assert pred._buckets == {}  # no window is built before the first update
        return pred

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("by_hour", [True, False])
    @pytest.mark.parametrize("window_len", [3, 500])
    def test_pairs(self, seed, by_hour, window_len):
        # 250 steps leave hours 0..9 one value longer than the rest.
        self.check(signed_demand(2, 250, seed), window_len=window_len, by_hour=by_hour)

    @pytest.mark.parametrize("steps_per_day", [127, 128, 129, 40_000])
    def test_day_lengths_at_the_edges_of_the_hour_dtype(self, steps_per_day):
        self.check(signed_demand(2, 300, 6), window_len=2, steps_per_day=steps_per_day)

    @pytest.mark.parametrize("by_hour", [True, False])
    def test_many_tied_signed_zeros(self, by_hour):
        # Hundreds of tied zeros a bucket: an unstable sort would reorder their signs.
        self.check(signed_demand(2, 2400, 5, zero_share=0.8), alpha=0.5, window_len=500,
                   by_hour=by_hour)

    def test_drop_day_stream_buckets_by_real_time(self, tmp_path):
        # From t = 3 on 4-step days; a gap drops day 2, so positions and hours
        # disagree, and 23 kept steps leave the buckets unequal.
        rng = np.random.default_rng(4)
        rows = ["t,region,inflow,outflow"]
        for t in range(3, 30):
            for region in ("a", "b"):
                if t != 9:
                    rows.append(f"{t},{region},{rng.choice(['0.0', '-0.0', '1', '2.5'])},"
                                f"{rng.integers(0, 9)}")
        path = tmp_path / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        stream = read_demand_csv(path, gap_policy="drop_day", steps_per_day=4)
        assert 9 not in stream.window_times()
        for window_len in (3, 500):
            pred = self.check(stream, window_len=window_len, steps_per_day=4)
        assert sorted({len(v) for v in pred._values.values()}) == [5, 6]

    def test_cold_hours_under_both_fallbacks(self):
        stream = signed_demand(2, 10, 0)  # hours 10..23 have no history
        glob = self.check(stream, fallback="global")
        fc = glob.predict(0, "in", t=15)
        assert (fc.lo, fc.hi) == glob._fallback_pair["in"]
        strict = self.check(stream, fallback="error")
        with pytest.raises(NotFittedError, match="hour=15"):
            strict.predict(0, "in", t=15)

    def test_non_finite_demand_raises_at_fit(self):
        stream = signed_demand(2, 100, 0)
        stream.history[0, 1, 29] = np.nan  # region 0, out, hour 5
        stream.history[1, 0, 96] = np.inf  # region 1, in, hour 0
        # The first bad cell in (region, flow, t) order is named.
        with pytest.raises(ValueError, match=r"demand must be finite and >= 0, got nan "
                                             r"at \(region=0, flow=out, t=29\)"):
            SeasonalWindowPredictor().fit(stream)

    @pytest.mark.parametrize("window_len", [3, 500])
    def test_first_update_builds_the_window_a_bucket_would_have_had(self, window_len):
        stream = signed_demand(2, 250, 3, zero_share=0.8)
        pred = self.check(stream, window_len=window_len)
        eager = eager_windows(stream, window_len, True)
        pred.set_params(window_len=1)  # a window keeps the capacity it had at fit
        for k, (key, win) in enumerate(sorted(eager.items())):
            v = (-0.0, 0.0, 3.0)[k % 3]
            pred.update(Observation(key[2], key[0], key[1], v, (1.0,) * 6))
            win.push(v)
            assert pred._buckets[key].capacity == window_len
            fifo, srt = pred._buckets[key].buffers()
            assert (bits(fifo), bits(srt)) == tuple(bits(b) for b in win.buffers())
            assert bits(pred._pairs[key]) == bits([win.quantile(0.1), win.quantile(0.9)])
        assert pred._values == {}

    def test_first_update_of_a_cold_bucket_starts_empty(self):
        pred = SeasonalWindowPredictor(alpha=0.2, window_len=4).fit(signed_demand(1, 10, 0))
        pred.update(Observation(15, 0, "in", 7.0, (1.0,) * 6))
        assert pred._buckets[0, "in", 15].scores == (7.0,)
        assert pred.predict(0, "in", 15).lo == 7.0


class TestFitQuantilesOfTiedSignedZeros:
    """Order statistics at fit keep tied -0.0 and 0.0 in arrival order, as a stable sort does."""

    ALPHA = 0.5  # both levels land inside the block of zeros

    def want(self, values) -> bytes:
        srt = sorted(values.tolist())  # stable, so tied zeros keep arrival order
        n = len(srt)
        return bits([srt[quantile_rank(self.ALPHA / 2, n) - 1],
                     srt[quantile_rank(1 - self.ALPHA / 2, n) - 1]])

    def test_fallback_pair(self):
        stream = signed_demand(3, 400, 7, zero_share=0.9)
        pred = SeasonalWindowPredictor(alpha=self.ALPHA).fit(stream)
        for j, flow in enumerate(FLOWS):
            assert bits(pred._fallback_pair[flow]) == self.want(stream.history[:, j].ravel())

    def test_initial_pinball_biases(self, monkeypatch):
        stream = signed_demand(3, 400, 8, zero_share=0.9)
        # With the training steps stubbed out, fit leaves the initial biases.
        monkeypatch.setattr(OnlinePinballLinearPredictor, "_step", lambda *args: None)
        pred = OnlinePinballLinearPredictor(alpha=self.ALPHA, epochs=1).fit(stream)
        for i in range(stream.n_regions):
            for j, flow in enumerate(FLOWS):
                cell = pred._cells[i, flow]
                assert bits([cell["b_lo"], cell["b_hi"]]) == self.want(stream.cell_series(i, j))


class TestOnlinePinballLinear:
    def test_zero_weights_predict_biases(self):
        stream = flat_stream(np.linspace(4, 20, 50))
        pred = OnlinePinballLinearPredictor(alpha=0.1, epochs=1).fit(stream)
        cell = pred._cells[(0, "in")]
        cell["w_lo"][:] = 0.0
        cell["w_hi"][:] = 0.0
        fc = pred.predict(0, "in", t=7, lags=(5.0,) * 6)
        assert (fc.lo, fc.hi) == (cell["b_lo"], cell["b_hi"])

    def test_update_moves_high_head_toward_large_y(self):
        stream = flat_stream([10.0] * 40)
        pred = OnlinePinballLinearPredictor(alpha=0.1, step_size=0.05, epochs=1).fit(stream)
        cell = pred._cells[(0, "in")]
        before = cell["b_hi"]
        w_before = cell["w_hi"].copy()
        obs = Observation(40, 0, "in", 500.0, (10.0,) * 6)
        pred.update(obs)
        x = pred._features(cell, 40, obs.lags)
        assert cell["b_hi"] > before
        moved = cell["w_hi"] - w_before
        assert np.allclose(np.sign(moved[x != 0]), np.sign(x[x != 0]))

    def test_repeated_observation_loss_non_increasing(self):
        stream = flat_stream([10.0] * 60)
        pred = OnlinePinballLinearPredictor(alpha=0.1, step_size=0.02, epochs=1).fit(stream)
        obs = Observation(60, 0, "in", 60.0, (10.0,) * 6)
        cell = pred._cells[(0, "in")]
        losses = []
        for _ in range(50):
            losses.append(pinball_loss(pred, cell, obs.t, obs.lags, obs.y))
            pred.update(obs)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_finite_difference_matches_subgradient(self):
        """Numerical gradient of the total loss agrees away from kinks."""
        rng = np.random.default_rng(11)
        stream = flat_stream(rng.uniform(5, 15, size=80))
        pred = OnlinePinballLinearPredictor(alpha=0.1, step_size=0.01, epochs=2).fit(stream)
        cell = pred._cells[(0, "out")]
        checked = 0
        for _ in range(200):
            lags = tuple(rng.uniform(5, 15, size=6))
            t = int(rng.integers(0, 24))
            y = float(rng.uniform(0, 30))
            x = pred._features(cell, t, lags)
            q_lo = cell["b_lo"] + cell["w_lo"] @ x
            q_hi = cell["b_hi"] + cell["w_hi"] @ x
            if min(abs(y - q_lo), abs(y - q_hi)) < 1e-3:
                continue
            checked += 1
            g_lo, g_hi = pred._head_gradients(cell, x, y)
            h = 1e-7
            for head, g in (("w_lo", g_lo), ("w_hi", g_hi)):
                for k in range(len(x)):
                    cell[head][k] += h
                    up = pinball_loss(pred, cell, t, lags, y)
                    cell[head][k] -= 2 * h
                    down = pinball_loss(pred, cell, t, lags, y)
                    cell[head][k] += h
                    fd = (up - down) / (2 * h)
                    assert fd == pytest.approx(g * x[k], abs=1e-6)
        assert checked > 100

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_series_equals_per_step_predict_bit_for_bit(self, seed):
        # Both paths sum each head as b + x0*w0 + ... + x7*w7, left to right.
        rng = np.random.default_rng(seed)
        y = rng.gamma(2.0, 10.0, size=(2, 2, 700))
        fit_on = DemandStream(region_ids=(0, 1), history=y, stop=400)
        later = DemandStream(region_ids=(0, 1), history=y, start=400)
        pred = OnlinePinballLinearPredictor(alpha=0.2, epochs=1).fit(fit_on)
        times = later.window_times()
        for i in range(2):
            for j, flow in enumerate(FLOWS):
                lags = later.lags_matrix(i, j)
                lo, hi = pred.predict_series(i, flow, times, lags)
                fcs = [pred.predict(i, flow, t, x) for t, x in zip(times.tolist(), lags)]
                assert bits(lo) == bits([fc.lo for fc in fcs])
                assert bits(hi) == bits([fc.hi for fc in fcs])

    def test_forecasts_in_original_units(self):
        stream = flat_stream(np.full(100, 42.0))
        pred = OnlinePinballLinearPredictor(alpha=0.1, epochs=2).fit(stream)
        fc = pred.predict(0, "in", t=3, lags=(42.0,) * 6)
        assert fc.lo == pytest.approx(42.0, abs=2.0)
        assert fc.hi == pytest.approx(42.0, abs=2.0)


class TestFileBacked:
    def test_roundtrip_lookup(self, tmp_path):
        path = tmp_path / "fc.csv"
        write_forecast_csv(path, [(5, 3, "in", 1.2, 7.7), (5, 3, "out", 0.5, 2.0)])
        pred = FileBackedForecasts(path)
        fc = pred.predict(3, "in", t=5)
        assert (fc.lo, fc.hi) == (1.2, 7.7)

    def test_missing_row_names_cell(self, tmp_path):
        path = tmp_path / "fc.csv"
        write_forecast_csv(path, [(5, 3, "in", 1.2, 7.7)])
        pred = FileBackedForecasts(path)
        with pytest.raises(MissingForecastError, match=r"t=6, region=3, flow=in"):
            pred.predict(3, "in", t=6)

    def test_series_names_earliest_missing_cell(self, tmp_path):
        path = tmp_path / "fc.csv"
        write_forecast_csv(path, [(t, 3, "in", t, t + 1.5) for t in (5, 6, 8, 10)])
        pred = FileBackedForecasts(path)
        lo, hi = pred.predict_series(3, "in", np.array([5, 6, 8]))
        assert (lo.tolist(), hi.tolist()) == ([5.0, 6.0, 8.0], [6.5, 7.5, 9.5])
        with pytest.raises(MissingForecastError, match=r"t=7, region=3, flow=in"):
            pred.predict_series(3, "in", np.arange(5, 11))

    def test_update_is_noop(self, tmp_path):
        path = tmp_path / "fc.csv"
        write_forecast_csv(path, [(0, 0, "in", 0.0, 1.0)])
        pred = FileBackedForecasts(path)
        pred.update(Observation(0, 0, "in", 5.0, (0.0,) * 6))
        assert pred.predict(0, "in", 0).hi == 1.0

    @pytest.mark.parametrize("rows, named", [
        ([(0, 3, "IN", 1.0, 2.0)], "flow must be one of ('in', 'out'), got 'IN'"),
        ([(0, 3, "in", 1.0, 2.0), (0, 3, 0, 1.0, 2.0)], "got 0"),
        ([(0, "", "in", 1.0, 2.0)], "region ''"),
        ([(0, None, "in", 1.0, 2.0)], "region None"),
        ([(0, " s", "in", 1.0, 2.0)], "region ' s'"),
        ([(0, "s\t", "out", 1.0, 2.0)], "region 's\\t'"),
        ([(0, 1, "in", 1.0, 2.0), (0, 1, "out", 1.0, 2.0), (1, "1", "in", 1.0, 2.0)],
         "regions 1 and '1' share the label '1'"),
    ])
    def test_writer_refuses_rows_it_cannot_read_back(self, tmp_path, rows, named):
        path = tmp_path / "fc.csv"
        with pytest.raises(ValueError, match=re.escape(named)):
            write_forecast_csv(path, iter(rows))
        assert not path.exists()

    def test_one_and_true_stay_distinct_regions(self, tmp_path):
        path = tmp_path / "fc.csv"
        write_forecast_csv(path, [(0, 1, "in", 1.0, 2.0), (0, True, "in", 3.0, 4.0),
                                  (0, np.int64(1), "out", 5.0, 6.0)])
        pred = FileBackedForecasts(path)
        assert (pred.predict(1, "in", 0).lo, pred.predict("True", "in", 0).lo) == (1.0, 3.0)
        assert pred.predict(1, "out", 0).lo == 5.0

    def test_crossed_rows_swapped_and_counted(self, tmp_path):
        path = tmp_path / "fc.csv"
        write_forecast_csv(path, [(0, 0, "in", 9.0, 1.0), (0, 0, "out", 1.0, 9.0),
                                  (1, 0, "in", 5.0, 4.0), (1, 0, "out", 2.0, 2.0)])
        pred = FileBackedForecasts(path)
        assert pred.crossings == 2
        bands = [(fc.lo, fc.hi) for fc in (pred.predict(0, flow, t)
                                           for t in (0, 1) for flow in ("in", "out"))]
        assert bands == [(1.0, 9.0), (1.0, 9.0), (4.0, 5.0), (2.0, 2.0)]

    @pytest.mark.parametrize("text, line", [
        # blank lines and CRLF line endings before the bad row
        (b"t,region,flow,q_lo,q_hi\r\n0,0,in,1,2\r\n\r\n\r\n0,0,out,x,2\r\n", 5),
        # a repeated cell fails at its second occurrence
        (b"t,region,flow,q_lo,q_hi\n0,0,in,1,2\n1,0,in,1,2\n\n0,0,in,3,4\n", 5),
    ])
    def test_bad_row_names_its_physical_line(self, tmp_path, text, line):
        path = tmp_path / "fc.csv"
        path.write_bytes(text)
        with pytest.raises(DataFormatError, match=rf"fc\.csv:{line}: "):
            FileBackedForecasts(path)

    def test_padded_header_names_and_labels_are_stripped(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text(' t ,region, flow ,q_lo,q_hi\n5, 3 , in ,1.5, 2\n5,"x,y",out, 0 ,1\n')
        pred = FileBackedForecasts(path)
        assert (pred.predict(3, "in", 5).lo, pred.predict(3, "in", 5).hi) == (1.5, 2.0)
        assert pred.predict("x,y", "out", 5).hi == 1.0

    @pytest.mark.parametrize(
        "rows",
        [
            "t,region,flow,q_lo,q_hi\n0,0,sideways,1,2\n",
            "t,region,flow,q_lo,q_hi\nx,0,in,1,2\n",
            "t,region,flow,q_lo,q_hi\n0,0,in,1\n",
            "wrong,header\n",
            "t,region,flow,q_lo,q_hi\n0,0,in,1,2\n0,0,in,1,2\n",
        ],
    )
    def test_malformed_files_rejected(self, tmp_path, rows):
        path = tmp_path / "fc.csv"
        path.write_text(rows)
        with pytest.raises(DataFormatError):
            FileBackedForecasts(path)


def bits(values) -> bytes:
    """The exact float64 bits of a sequence, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).tobytes()


def predictor_state(pred):
    """Everything ``update`` and the forecasts may change, as comparable bytes."""
    if isinstance(pred, SeasonalWindowPredictor):
        buckets = {key: (bits(win.buffers()[0]), bits(win.buffers()[1]))
                   for key, win in pred._buckets.items()}
        unbuilt = {key: bits(values) for key, values in pred._values.items()}
        pairs = {key: bits(pair) for key, pair in pred._pairs.items()}
        return buckets, unbuilt, pairs, pred.crossings
    if isinstance(pred, OnlinePinballLinearPredictor):
        cells = {key: tuple(bits(np.atleast_1d(cell[k])) for k in ("w_lo", "w_hi", "b_lo", "b_hi"))
                 for key, cell in pred._cells.items()}
        return cells, pred.crossings
    return bits(pred._band), pred.crossings


def stepwise(pred, cells, times, lags, ys):
    """The object path: ``predict`` then ``update(Observation)`` per step.

    The (region, flow) ``cells`` advance in lockstep, one step at a time, so
    a cell whose state leaked into another would show against the series
    call, which runs the cells one after another. Returns each cell's (lo,
    hi) lists.
    """
    out = {cell: ([], []) for cell in cells}
    for p, t in enumerate(times.tolist()):
        for cell in cells:
            fc = pred.predict(*cell, t, lags[cell][p])
            out[cell][0].append(fc.lo)
            out[cell][1].append(fc.hi)
        for region, flow in cells:
            pred.update(Observation(t, region, flow, float(ys[region, flow][p]),
                                    tuple(lags[region, flow][p])))
    return out


def in_segments(pred, cells, times, lags, ys, rng):
    """``predict_series(..., y=...)`` per cell, over random segments of the steps."""
    out = {}
    for cell in cells:
        cuts = np.sort(rng.choice(np.arange(1, len(times)), size=4, replace=False))
        bounds = [0, *cuts.tolist(), len(times)]
        parts = [pred.predict_series(*cell, times[a:b], lags[cell][a:b], y=ys[cell][a:b])
                 for a, b in zip(bounds, bounds[1:])]
        out[cell] = tuple(np.concatenate([part[k] for part in parts]) for k in (0, 1))
    return out


def deployment(regions=2, train=200, deploy=150, seed=0, times=None):
    """A fitted-on training segment, and the later steps with their demand.

    Demand sits on a coarse grid with some -0.0 values, so the windows hold
    ties and zeros of both signs. ``times`` gives each step's real time.
    """
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 6, size=(regions, 2, train + deploy)).astype(np.float64)
    y[y == 0.0] *= np.where(rng.random((y == 0.0).sum()) < 0.5, -1.0, 1.0)
    fit_on = DemandStream(region_ids=tuple(range(regions)), history=y, stop=train, times=times)
    later = DemandStream(region_ids=tuple(range(regions)), history=y, start=train, times=times)
    cells = [(region, flow) for region in range(regions) for flow in FLOWS]
    lags = {(i, flow): later.lags_matrix(i, j) for i in range(regions)
            for j, flow in enumerate(FLOWS)}
    ys = {(i, flow): later.cell_series(i, j) for i in range(regions)
          for j, flow in enumerate(FLOWS)}
    return fit_on, cells, later.window_times(), lags, ys


class TestSeriesWithUpdatesMatchesObjectPath:
    """``predict_series(..., y=...)`` equals per-step predict + update, bit for bit."""

    def check(self, make, seed=0, **shape):
        fit_on, cells, times, lags, ys = deployment(seed=seed, **shape)
        reference, fast = make().fit(fit_on), make().fit(fit_on)
        assert predictor_state(reference) == predictor_state(fast)
        want = stepwise(reference, cells, times, lags, ys)
        got = in_segments(fast, cells, times, lags, ys, np.random.default_rng(seed))
        for cell in cells:
            assert bits(got[cell][0]) == bits(want[cell][0])
            assert bits(got[cell][1]) == bits(want[cell][1])
        assert predictor_state(fast) == predictor_state(reference)
        return reference

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("by_hour", [True, False])
    @pytest.mark.parametrize("window_len", [3, 500])
    def test_seasonal(self, seed, by_hour, window_len):
        # window_len 3 is shorter than every bucket's history, so pushes evict.
        self.check(lambda: SeasonalWindowPredictor(
            alpha=0.2, window_len=window_len, by_hour=by_hour, steps_per_day=24), seed=seed)

    @pytest.mark.parametrize("window_len", [1, 2])
    @pytest.mark.parametrize("alpha", [0.002, 0.98])
    def test_seasonal_rank_clamps(self, window_len, alpha):
        # alpha 0.002 reads the ends of each window (ranks 1 and n); at 0.98
        # both levels sit near the median, and both ranks are 1 at n = 1.
        self.check(lambda: SeasonalWindowPredictor(
            alpha=alpha, window_len=window_len, by_hour=True, steps_per_day=24))

    def test_seasonal_one_call_over_empty_partial_and_full_buckets(self):
        # Training sees hours 0..5 on four days and hours 6..11 once: with
        # window_len 3 their windows start full and with one value, and hours
        # 12..23 start empty, from the fallback pair.
        train = [d * 24 + h for d in range(4) for h in range(6)] + [96 + h for h in range(6, 12)]
        times = np.array(train + list(range(120, 270)))
        fit_on, cells, times, lags, ys = deployment(train=len(train), times=times)
        reference, fast = (SeasonalWindowPredictor(alpha=0.3, window_len=3).fit(fit_on)
                           for _ in range(2))
        assert {len(fast._values.get((0, "in", h), ())) for h in range(24)} == {0, 1, 3}
        want = stepwise(reference, cells, times, lags, ys)
        for cell in cells:
            lo, hi = fast.predict_series(*cell, times, lags[cell], y=ys[cell])
            assert (bits(lo), bits(hi)) == (bits(want[cell][0]), bits(want[cell][1]))
        assert predictor_state(fast) == predictor_state(reference)

    def test_seasonal_cold_buckets_fall_back_then_learn(self):
        # Ten training steps leave hours 10..23 without a bucket.
        pred = self.check(lambda: SeasonalWindowPredictor(
            alpha=0.2, window_len=4, by_hour=True, fallback="global"), train=10)
        assert len(pred._buckets) == 2 * 2 * 24

    @pytest.mark.parametrize("gap", [24, 7])
    def test_seasonal_non_contiguous_times(self, gap):
        # From t = 3, a gap in the deployment steps: a dropped day, or 7 steps
        # so that the hours skip. Positions and hours disagree after it.
        times = np.delete(np.arange(3, 353 + gap), np.arange(260, 260 + gap))
        self.check(lambda: SeasonalWindowPredictor(alpha=0.2, window_len=5), times=times)

    @pytest.mark.parametrize("steps_per_day", [1, 7, 96, 128, 129, 40_000])
    def test_seasonal_other_steps_per_day(self, steps_per_day):
        # Hours are grouped as int8 up to 128 steps a day, then int16, then int32.
        self.check(lambda: SeasonalWindowPredictor(alpha=0.2, window_len=4,
                                                   steps_per_day=steps_per_day))

    def test_seasonal_series_shorter_than_a_day(self):
        pred = self.check(lambda: SeasonalWindowPredictor(alpha=0.2, window_len=6), deploy=10)
        # Steps 200..209 touch hours 8..17; the other fourteen keep their fit values unbuilt.
        assert len(pred._buckets) == 2 * 2 * 10
        assert len(pred._values) == 2 * 2 * 14

    def test_seasonal_cold_bucket_error_raises_at_the_same_step(self):
        fit_on, cells, times, lags, ys = deployment(train=10)
        # From t = 24 on, hours 0..9 learn for ten steps before hour 10 is cold.
        cell, tail = cells[0], slice(14, None)
        times, lags, ys = times[tail], {cell: lags[cell][tail]}, {cell: ys[cell][tail]}
        reference, fast = (SeasonalWindowPredictor(alpha=0.2, window_len=4, fallback="error")
                           .fit(fit_on) for _ in range(2))
        with pytest.raises(NotFittedError) as want:
            stepwise(reference, [cell], times, lags, ys)
        with pytest.raises(NotFittedError) as got:
            fast.predict_series(*cell, times, lags[cell], y=ys[cell])
        assert str(got.value) == str(want.value)
        assert "hour=10" in str(got.value)
        assert predictor_state(fast) == predictor_state(reference)
        assert predictor_state(fast) != predictor_state(
            SeasonalWindowPredictor(alpha=0.2, window_len=4, fallback="error").fit(fit_on))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("step_size", [0.05, 3.0])
    def test_pinball(self, seed, step_size):
        pred = self.check(lambda: OnlinePinballLinearPredictor(
            alpha=0.2, step_size=step_size, epochs=1), seed=seed)
        if step_size > 1:
            assert pred.crossings > 0  # large steps cross the heads

    def test_file_backed_ignores_y(self, tmp_path):
        fit_on, cells, times, lags, ys = deployment()
        path = tmp_path / "fc.csv"
        write_forecast_csv(path, [(t, region, flow, t % 7, t % 5)
                                  for t in times.tolist() for region, flow in cells])
        pred = self.check(lambda: FileBackedForecasts(path))
        assert pred.crossings > 0

    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_demand_raises_before_any_state_changes(self, tmp_path, kind, bad):
        fit_on, cells, times, lags, ys = deployment()
        path = tmp_path / "fc.csv"
        write_forecast_csv(path, [(t, region, flow, 1.0, 2.0)
                                  for t in times.tolist() for region, flow in cells])
        pred = make_predictor(PredictorSpec(kind=kind, path=str(path)), 0.2, 24).fit(fit_on)
        before = predictor_state(pred)
        cell = cells[1]
        y = ys[cell].copy()
        y[-1] = bad
        with pytest.raises(ValueError, match="demand must be finite and >= 0"):
            pred.predict_series(*cell, times, lags[cell], y=y)
        assert predictor_state(pred) == before

    @pytest.mark.parametrize("spec", [
        PredictorSpec(kind="seasonal_window", window_len=2, by_hour=True),
        PredictorSpec(kind="seasonal_window", window_len=2, by_hour=False),
        PredictorSpec(kind="online_pinball_linear", window_len=2),
    ], ids=["seasonal-by-hour", "seasonal", "online-pinball"])
    def test_bad_demand_outside_the_kept_window_raises_at_fit(self, spec):
        # window_len=2 keeps only each seasonal bucket's last two training values.
        stream = DemandStream(region_ids=(0,), history=np.ones((1, 2, 100)))
        stream.history[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"got nan at \(region=0, flow=in, t=0\)"):
            make_predictor(spec, 0.2, 24).fit(stream)


class TestPredictorSpec:
    def test_file_backed_requires_path(self):
        with pytest.raises(ValueError, match="path"):
            PredictorSpec(kind="file_backed")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            PredictorSpec(kind="oracle")

    def test_make_predictor_dispatch(self, tmp_path):
        assert isinstance(
            make_predictor(PredictorSpec(kind="seasonal_window"), 0.1, 24),
            SeasonalWindowPredictor,
        )
        assert isinstance(
            make_predictor(PredictorSpec(kind="online_pinball_linear"), 0.1, 24),
            OnlinePinballLinearPredictor,
        )
        path = tmp_path / "fc.csv"
        write_forecast_csv(path, [(0, 0, "in", 0, 1)])
        assert isinstance(
            make_predictor(PredictorSpec(kind="file_backed", path=str(path)), 0.1, 24),
            FileBackedForecasts,
        )

    def test_roundtrip_dict(self):
        spec = PredictorSpec(kind="online_pinball_linear", step_size=0.01, epochs=7)
        assert PredictorSpec.from_dict(spec.to_dict()) == spec

    def test_get_params(self):
        pred = SeasonalWindowPredictor(alpha=0.2, window_len=24)
        params = pred.get_params()
        assert params["alpha"] == 0.2 and params["window_len"] == 24
        pred.set_params(window_len=48)
        assert pred.window_len == 48
