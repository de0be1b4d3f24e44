"""Tests for synthetic stream generation, filtering, splits, and the CSV format."""

import logging
import re

import numpy as np
import pytest

from contina.errors import DataFormatError
from contina.streams import (
    DemandStream,
    Observation,
    StreamSpec,
    generate,
    parse_region,
    read_demand_csv,
    region_filter,
    region_sort_key,
    split,
    write_demand_csv,
)


class TestGenerateDeterminism:
    def test_equal_seeds_equal_streams(self):
        spec = StreamSpec(n_regions=4, horizon=300, seed=9, regime="stationary")
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.history, b.history)
        assert a.region_ids == b.region_ids

    def test_different_seeds_differ(self):
        a = generate(StreamSpec(n_regions=2, horizon=100, seed=1))
        b = generate(StreamSpec(n_regions=2, horizon=100, seed=2))
        assert not np.array_equal(a.history, b.history)

    def test_demand_nonnegative(self):
        spec = StreamSpec(n_regions=3, horizon=500, seed=3, sigma_frac=1.5)
        assert (generate(spec).history >= 0).all()


class TestRegimes:
    def test_abrupt_shift_doubles_mean(self):
        """Post-shift sample mean ~ 2x pre-shift mean, within 5% over 10^4 steps."""
        spec = StreamSpec(
            n_regions=1, horizon=20_000, seed=5, regime="abrupt_shift",
            shift_at=10_000, shift_scale=2.0, base_level=(10.0, 10.0),
            sigma_frac=0.1,
        )
        y = generate(spec).history[0, 0]
        ratio = y[10_000:].mean() / y[:10_000].mean()
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_k_dependent_autocorrelation_vanishes_past_lag(self):
        """Innovation autocorrelation ~0 beyond the dependence window."""
        k = 3
        spec = StreamSpec(
            n_regions=1, horizon=100_000, seed=6, regime="k_dependent", k_lag=k,
            base_level=(5.0, 5.0), sigma_frac=0.25,
        )
        y = generate(spec).history[0, 0]
        innov = (y - 5.0) / (0.25 * 5.0)  # level and sigma fixed by the generator parameters
        innov = innov - innov.mean()
        denom = float(innov @ innov)

        def rho(lag):
            return float(innov[:-lag] @ innov[lag:]) / denom

        assert rho(1) > 0.3  # inside the window the correlation is real
        for lag in range(k + 1, k + 8):
            assert abs(rho(lag)) < 0.02

    def test_heterogeneous_scales_span_range(self):
        spec = StreamSpec(
            n_regions=30, horizon=4000, seed=8, regime="heterogeneous",
            shift_at=0, scale_range=(1.0, 4.0), base_level=(10.0, 10.0),
            sigma_frac=0.01,
        )
        y = generate(spec).history
        end_over_start = y[:, 0, -50:].mean(axis=1) / y[:, 0, :50].mean(axis=1)
        assert end_over_start.max() > 2.5
        assert end_over_start.min() < 1.5

    def test_drift_grows_linearly(self):
        spec = StreamSpec(
            n_regions=1, horizon=1000, seed=9, regime="drift", drift_rate=0.001,
            base_level=(10.0, 10.0), sigma_frac=0.0,
        )
        y = generate(spec).history[0, 0]
        assert y[-1] == pytest.approx(10.0 * (1 + 0.001 * 999), rel=1e-9)

    def test_negative_binomial_counts_overdispersed(self):
        spec = StreamSpec(
            n_regions=1, horizon=50_000, seed=10, noise="negative_binomial",
            base_level=(20.0, 20.0), dispersion=3.0,
        )
        y = generate(spec).history[0, 0]
        assert np.array_equal(y, np.round(y))
        assert y.mean() == pytest.approx(20.0, rel=0.05)
        assert y.var() == pytest.approx(3.0 * 20.0, rel=0.15)

    def test_k_dependent_requires_gaussian(self):
        with pytest.raises(ValueError, match="gaussian"):
            StreamSpec(n_regions=1, horizon=10, seed=0, regime="k_dependent",
                       noise="negative_binomial")

    def test_keeps_values_as_checked(self):
        spec = StreamSpec(n_regions=2.0, horizon=10, seed=3.0, shift_scale=3, sigma_frac="0.5")
        assert (spec.n_regions, spec.seed, spec.shift_scale, spec.sigma_frac) == (2, 3, 3.0, 0.5)
        assert [type(v) for v in (spec.n_regions, spec.seed, spec.shift_scale)] == [
            int, int, float]
        for bad in ({"seed": -1}, {"seed": 1.5}, {"dispersion": float("nan")}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                StreamSpec(n_regions=1, horizon=10, **{"seed": 0, **bad})

    @pytest.mark.parametrize("name", ["scale_range", "base_level"])
    @pytest.mark.parametrize("value", [5, [1.0, 2.0, 3.0], [4.0], None])
    def test_bounds_must_be_a_pair(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a \\[lo, hi\\] pair"):
            StreamSpec(n_regions=1, horizon=10, seed=0, **{name: value})
        assert StreamSpec(n_regions=1, horizon=10, seed=0,
                          **{name: np.array([2, 3])}).to_dict()[name] == [2.0, 3.0]

    def test_shift_within_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            StreamSpec(n_regions=1, horizon=10, seed=0, regime="abrupt_shift",
                       shift_at=10)


class TestObservations:
    def test_lags_match_emitted_history(self):
        spec = StreamSpec(n_regions=2, horizon=30, seed=11)
        stream = generate(spec)
        obs = list(stream)
        by_cell = {}
        for o in obs:
            by_cell.setdefault((o.region, o.flow), []).append(o)
        for (region, flow), cell_obs in by_cell.items():
            ys = [o.y for o in cell_obs]
            for p, o in enumerate(cell_obs):
                expect = [ys[0]] * max(0, 6 - p) + ys[max(0, p - 6):p]
                assert list(o.lags) == expect

    def test_getitem_matches_iteration(self):
        stream = generate(StreamSpec(n_regions=2, horizon=10, seed=12))
        listed = list(stream)
        assert len(listed) == len(stream) == 10 * 2 * 2
        for k in (0, 7, len(stream) - 1):
            assert stream[k] == listed[k]

    def test_observation_validation(self):
        with pytest.raises(ValueError, match="lags"):
            Observation(0, 0, "in", 1.0, (1.0,) * 5)
        with pytest.raises(ValueError, match="flow"):
            Observation(0, 0, "up", 1.0, (1.0,) * 6)
        with pytest.raises(ValueError, match=">= 0"):
            Observation(0, 0, "in", -1.0, (1.0,) * 6)


class TestRegionFilter:
    def make_stream(self, means):
        y = np.stack([np.full((2, 100), m, dtype=np.float64) for m in means])
        return DemandStream(region_ids=tuple(range(len(means))), history=y)

    def test_low_usage_region_dropped(self):
        stream, dropped = region_filter(self.make_stream([1.0, 5.0]), threshold=2.0)
        assert dropped == [0]
        assert stream.region_ids == (1,)

    def test_boundary_mean_kept(self):
        stream, dropped = region_filter(self.make_stream([2.0, 5.0]), threshold=2.0)
        assert dropped == []

    def test_zero_threshold_is_identity(self):
        base = self.make_stream([0.5, 1.0])
        stream, dropped = region_filter(base, threshold=0.0)
        assert stream is base and dropped == []

    def test_all_dropped_raises(self):
        with pytest.raises(DataFormatError, match="threshold"):
            region_filter(self.make_stream([0.1, 0.2]), threshold=2.0)

    def test_per_flow_mode(self):
        y = np.zeros((1, 2, 10))
        y[0, 0] = 10.0  # inflow rich
        y[0, 1] = 0.5   # outflow sparse
        stream = DemandStream(region_ids=(0,), history=y)
        kept, _ = region_filter(stream, threshold=2.0, mode="joint")
        assert kept.region_ids == (0,)
        with pytest.raises(DataFormatError):
            region_filter(stream, threshold=2.0, mode="per_flow")


class TestSplit:
    def test_eleven_one_four(self):
        stream = generate(StreamSpec(n_regions=1, horizon=16, seed=13))
        train, calib, deploy = split(stream, 11 / 16, 1 / 16)
        assert (train.horizon, calib.horizon, deploy.horizon) == (11, 1, 4)
        assert (train.start, train.stop) == (0, 11)
        assert (calib.start, calib.stop) == (11, 12)

    def test_half_quarter(self):
        stream = generate(StreamSpec(n_regions=1, horizon=100, seed=14))
        parts = split(stream, 0.5, 0.25)
        assert tuple(p.horizon for p in parts) == (50, 25, 25)

    def test_rejects_degenerate_fractions(self):
        stream = generate(StreamSpec(n_regions=1, horizon=10, seed=15))
        with pytest.raises(ValueError):
            split(stream, 0.9, 0.2)
        with pytest.raises(ValueError):
            split(stream, -0.1, 0.2)
        with pytest.raises(ValueError):
            split(stream, float("nan"), 0.2)

    def test_preserves_every_observation_once(self):
        stream = generate(StreamSpec(n_regions=2, horizon=40, seed=16))
        parts = split(stream, 0.5, 0.25)
        merged = [o for part in parts for o in part]
        original = list(stream)
        assert [(o.t, o.region, o.flow, o.y) for o in merged] == [
            (o.t, o.region, o.flow, o.y) for o in original
        ]

    def test_segments_share_history_for_lags(self):
        stream = generate(StreamSpec(n_regions=1, horizon=40, seed=17))
        _, _, deploy = split(stream, 0.5, 0.25)
        first = next(iter(deploy))
        expect = stream.history[0, 0, deploy.start - 6 : deploy.start]
        assert np.allclose(first.lags, expect)


class TestDemandCsv:
    def test_roundtrip(self, tmp_path):
        stream = generate(StreamSpec(n_regions=3, horizon=25, seed=18))
        path = tmp_path / "demand.csv"
        write_demand_csv(stream, path)
        back = read_demand_csv(path)
        assert back.region_ids == stream.region_ids
        assert np.array_equal(back.history, stream.history)
        assert np.array_equal(back.window_times(), stream.window_times())

    def test_three_rows_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,region,inflow,outflow\n0,a,1,2\n1,a,3,4\n2,a,5,6\n")
        stream = read_demand_csv(path)
        assert len(stream) == 3 * 1 * 2
        assert stream.history[0, 0].tolist() == [1.0, 3.0, 5.0]

    def test_negative_demand_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,region,inflow,outflow\n0,a,1,2\n1,a,-3,4\n")
        with pytest.raises(DataFormatError, match=r"d\.csv:3"):
            read_demand_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,region,inflow,outflow\n0,a,1,2\noops,a,3\n")
        with pytest.raises(DataFormatError, match=":3"):
            read_demand_csv(path)

    def test_duplicate_cell_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,region,inflow,outflow\n0,a,1,2\n0,a,1,2\n")
        with pytest.raises(DataFormatError, match=r"duplicate \(t=0, region=a\)"):
            read_demand_csv(path)

    def test_gap_abort_names_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "t,region,inflow,outflow\n0,a,1,2\n0,b,1,2\n1,a,1,2\n2,a,1,2\n2,b,1,2\n"
        )
        with pytest.raises(DataFormatError, match="gap at t=1"):
            read_demand_csv(path, gap_policy="abort")

    def test_gap_drop_day_removes_affected_day(self, tmp_path, caplog):
        rows = ["t,region,inflow,outflow"]
        for t in range(8):
            if t == 2:
                continue  # whole step missing inside day 0
            rows.append(f"{t},a,1,2")
        path = tmp_path / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        with caplog.at_level(logging.WARNING):
            stream = read_demand_csv(path, gap_policy="drop_day", steps_per_day=4)
        assert "dropping" in caplog.text
        assert stream.window_times().tolist() == [4, 5, 6, 7]

    def test_drop_day_drops_only_days_with_gaps(self, tmp_path):
        # Three steps a day over five days: day 1 misses one region cell and
        # day 3 a whole step; days 0, 2 and 4 stay, with their values intact.
        rows = ["t,region,inflow,outflow"]
        for t in range(15):
            for region in ("a", "b"):
                if (t, region) == (4, "b") or t == 10:
                    continue
                rows.append(f"{t},{region},{t},{t + (100 if region == 'b' else 0)}")
        path = tmp_path / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        stream = read_demand_csv(path, gap_policy="drop_day", steps_per_day=3)
        kept = [0, 1, 2, 6, 7, 8, 12, 13, 14]
        assert stream.window_times().tolist() == kept
        assert stream.region_ids == ("a", "b")
        assert stream.history[:, 0].tolist() == [kept, kept]
        assert stream.history[:, 1].tolist() == [kept, [t + 100 for t in kept]]

    def test_bad_row_after_blank_and_crlf_lines_names_physical_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"t,region,inflow,outflow\r\n0,a,1,2\r\n\r\n\r\n1,a,oops,4\r\n")
        with pytest.raises(DataFormatError, match=r"d\.csv:5: "):
            read_demand_csv(path)

    def test_quoted_label_with_comma_is_one_region(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('t,region,inflow,outflow\n0,"a,b",1,2\n1,"a,b",3,4\n')
        stream = read_demand_csv(path)
        assert stream.region_ids == ("a,b",)
        assert stream.history[0].tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_padded_header_names_and_labels_are_stripped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(" t , region ,inflow,outflow \n0, 7 ,1, 2\n1,7 , 3 ,4\n")
        stream = read_demand_csv(path)
        assert stream.region_ids == (7,)
        assert stream.history[0].tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_header_checked(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,region,in,out\n0,a,1,2\n")
        with pytest.raises(DataFormatError, match="header"):
            read_demand_csv(path)


class TestRegionLabels:
    @pytest.mark.parametrize("label, want", [
        ("7", 7), ("-5", -5), ("0", 0), ("1234567890123", 1234567890123),
        ("007", "007"), ("-0", "-0"), ("--5", "--5"), ("+5", "+5"), ("5_0", "5_0"),
        (" 5", " 5"), ("\u00b2", "\u00b2"), ("\u0663", "\u0663"), ("a", "a"), ("", ""),
    ])
    def test_int_only_for_canonical_spelling(self, label, want):
        got = parse_region(label)
        assert got == want and type(got) is type(want)
        assert str(got) == label

    def test_sort_key_puts_ints_by_value_before_strings(self):
        labels = ["b", "007", 10, "--5", -3, 2, "a"]
        assert sorted(labels, key=region_sort_key) == [-3, 2, 10, "--5", "007", "a", "b"]

    def test_distinct_spellings_stay_distinct_regions(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("t,region,inflow,outflow\n"
                        "0,7,1,2\n0,007,3,4\n0,--5,5,6\n"
                        "1,7,1,2\n1,007,3,4\n1,--5,5,6\n")
        stream = read_demand_csv(path)
        assert stream.region_ids == (7, "--5", "007")
        assert stream.history[:, :, 0].tolist() == [[1, 2], [5, 6], [3, 4]]


    def test_demand_csv_round_trips_labels(self, tmp_path):
        labels = ("a,b", 'q"x', "a\nb", "in side", "007", "--5", "\u00e9", -5, 12)
        history = np.arange(len(labels) * 2 * 3, dtype=np.float64).reshape(len(labels), 2, 3)
        path = tmp_path / "demand.csv"
        write_demand_csv(DemandStream(region_ids=labels, history=history), path)
        back = read_demand_csv(path)
        assert sorted(back.region_ids, key=region_sort_key) == list(back.region_ids)
        assert set(back.region_ids) == set(labels)
        for i, region in enumerate(back.region_ids):
            assert back.history[i].tolist() == history[labels.index(region)].tolist()

    @pytest.mark.parametrize("labels, named", [
        ((" s", "s"), "' s'"), (("s ", "t"), "'s '"), (("\ts", "t"), "'\\ts'"),
        (("x\x00", "y"), "'x\\x00'"), (("", "a"), "region ''"),
        ((None, "a"), "region None would read back from a CSV file as ''"),
        ((7, "7"), "regions 7 and '7' share the label '7'"),
    ])
    def test_writer_refuses_labels_the_reader_would_change(self, tmp_path, labels, named):
        path = tmp_path / "demand.csv"
        stream = DemandStream(region_ids=labels, history=np.ones((2, 2, 3)))
        with pytest.raises(ValueError, match=re.escape(named)):
            write_demand_csv(stream, path)
        assert not path.exists()


class TestSpecRoundtrip:
    def test_dict_roundtrip(self):
        spec = StreamSpec(
            n_regions=5, horizon=100, seed=3, regime="heterogeneous",
            scale_range=(1.5, 3.0), season_amp=0.2,
        )
        assert StreamSpec.from_dict(spec.to_dict()) == spec
