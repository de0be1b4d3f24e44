"""End-to-end tests of the replay engine, ingestion, and report files.

The replay oracle here re-executes a small experiment with an independent,
slow loop built from the public object-path API (windows + interval objects +
pure update functions) and demands record-for-record agreement with the
engine's ledger.
"""

import csv
import filecmp
import functools
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from contina import harness, metrics
from contina.adaptation import AdaptHyperParams, RegionAdaptState, update_alpha_adaptive
from contina.errors import ConfigError, MissingForecastError
from contina.harness import (
    ExperimentConfig,
    ingest_csv,
    read_ledger_csv,
    report_from_dir,
    run_replay,
    verify_audit,
    write_report,
)
from contina.intervals import QuantileForecast, contains, interval_length
from contina.predictors import PredictorSpec, make_predictor, write_forecast_csv
from contina.streams import (
    FLOWS,
    DemandStream,
    Observation,
    StreamSpec,
    generate,
    split,
    write_demand_csv,
)
from contina.tracker import METHODS
from contina.windows import CalibrationWindow


def small_config(**kw):
    defaults = dict(
        synthetic=StreamSpec(n_regions=3, horizon=600, seed=21),
        seed=21,
        train_frac=0.4,
        calib_frac=0.2,
        steps_per_day=24,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def oracle_replay(config):
    """Slow reference replay over the object-path API.

    Records come out in (region, t, flow) order, the ledger's row order.
    """
    stream = generate(config.synthetic)
    train, calib, deploy = split(stream, config.train_frac, config.calib_frac)
    predictor = make_predictor(config.predictor, config.alpha, config.steps_per_day)
    predictor.fit(train)
    records = []
    hp = AdaptHyperParams(config.alpha, config.gamma1, config.beta, config.epsilon)
    for i, region in enumerate(stream.region_ids):
        windows = []
        for j, flow in enumerate(FLOWS):
            scores = []
            lags = calib.lags_matrix(i, j)
            for p, t in enumerate(calib.window_times()):
                fc = predictor.predict(region, flow, int(t), lags[p])
                if config.method == "cp":
                    fc = QuantileForecast(fc.midpoint, fc.midpoint)
                y = calib.cell_series(i, j)[p]
                scores.append(max(y - fc.hi, fc.lo - y))
            windows.append(CalibrationWindow(config.window or len(scores), scores))
        state = RegionAdaptState(region, alpha=config.alpha)
        lags = [deploy.lags_matrix(i, j) for j in (0, 1)]
        for p, t in enumerate(deploy.window_times()):
            level = 1.0 - (state.alpha if config.method in ("aci_fixed", "contina")
                           else config.alpha)
            hits = []
            for j, flow in enumerate(FLOWS):
                fc = predictor.predict(region, flow, int(t), lags[j][p])
                if config.method == "cp":
                    fc = QuantileForecast(fc.midpoint, fc.midpoint)
                y = float(deploy.cell_series(i, j)[p])
                q = windows[j].quantile_with_rules(level)
                from contina.intervals import build_interval_cp, build_interval_qcp

                clamp = config.clamp_nonnegative
                if config.method == "cp":
                    band = build_interval_cp(fc.lo, q, clamp_nonnegative=clamp)
                else:
                    band = build_interval_qcp(fc, q, clamp_nonnegative=clamp)
                cov = contains(band, y)
                records.append((int(t), region, flow, cov, interval_length(band),
                                band.empty))
                hits.append(cov)
                windows[j].push(max(y - fc.hi, fc.lo - y))
            if config.predictor_updates:
                for j, flow in enumerate(FLOWS):
                    predictor.update(Observation(int(t), region, flow,
                                                 float(deploy.cell_series(i, j)[p]),
                                                 tuple(lags[j][p])))
            err = 1.0 - (hits[0] + hits[1]) / 2.0
            if config.method == "contina":
                state = update_alpha_adaptive(state, err, hp)
            elif config.method == "aci_fixed":
                from contina.adaptation import update_alpha_fixed

                state = update_alpha_fixed(state, err, config.gamma, hp)
    return records


class TestReplayAgainstOracle:
    @pytest.mark.parametrize("method", ["cp", "qcp", "aci_fixed", "contina"])
    def test_ledger_matches_independent_replay(self, method):
        config = small_config(method=method)
        result = run_replay(config)
        want = sorted(oracle_replay(small_config(method=method)))
        got = sorted(result.ledger.records)
        assert got == want


class TestDeterminismAndParallelism:
    def test_same_config_same_ledger(self):
        a = run_replay(small_config())
        b = run_replay(small_config())
        assert np.array_equal(a.ledger.covered, b.ledger.covered)
        assert np.array_equal(a.ledger.length, b.ledger.length)

    def test_worker_count_does_not_change_reports(self, tmp_path):
        out = {}
        for workers in (1, 3):
            cfg = small_config(workers=workers,
                               synthetic=StreamSpec(n_regions=5, horizon=500, seed=5))
            result = run_replay(cfg)
            out[workers] = write_report(result, tmp_path / f"w{workers}")
        for name in ("ledger", "summary", "daily", "states"):
            assert filecmp.cmp(out[1][name], out[3][name], shallow=False)

    def test_region_relabeling_preserves_aggregates(self):
        cfg = small_config()
        base = run_replay(cfg)
        stream = generate(cfg.synthetic)
        perm = [2, 0, 1]
        permuted = DemandStream(
            region_ids=tuple(f"z{k}" for k in perm),
            history=stream.history[perm],
        )
        res2 = run_replay_on_stream(cfg, permuted)
        assert metrics.average_coverage(res2.ledger) == metrics.average_coverage(base.ledger)
        assert metrics.mean_length(res2.ledger) == pytest.approx(
            metrics.mean_length(base.ledger), rel=1e-12
        )
        assert metrics.min_regional_coverage(res2.ledger).value == \
            metrics.min_regional_coverage(base.ledger).value


def run_replay_on_stream(config, stream):
    """Run the engine on an explicit stream via a demand CSV round-trip."""
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "demand.csv")
        write_demand_csv(stream, path)
        cfg = ExperimentConfig(
            **{**config.to_dict(), "synthetic": None, "demand_csv": path,
               "predictor": config.predictor}
        )
        return run_replay(cfg)


class TestAudit:
    @pytest.mark.parametrize("method", ["qcp", "contina"])
    def test_audit_verifies(self, method):
        result = run_replay(small_config(method=method), audit=True)
        assert result.audit is not None
        assert verify_audit(result)

    def test_audit_with_online_predictor_updates(self):
        cfg = small_config(method="contina", predictor_updates=True,
                           synthetic=StreamSpec(n_regions=2, horizon=300, seed=33))
        result = run_replay(cfg, audit=True)
        assert verify_audit(result)

    def test_online_update_path_matches_frozen_when_updates_off(self):
        # predictor_updates=False must equal the vectorized path's output
        cfg_a = small_config(method="contina")
        res_a = run_replay(cfg_a)
        cfg_b = small_config(method="contina", workers=2)
        res_b = run_replay(cfg_b)
        assert np.array_equal(res_a.ledger.covered, res_b.ledger.covered)


class TestTelescopingIdentity:
    def test_update_sum_equals_alpha_displacement_per_region(self):
        result = run_replay(small_config(method="contina"))
        for s in result.states:
            assert s.alpha - 0.1 == pytest.approx(s.update_sum, abs=1e-9)

    def test_fixed_rate_telescopes_too(self):
        result = run_replay(small_config(method="aci_fixed"))
        for s in result.states:
            assert s.alpha - 0.1 == pytest.approx(s.update_sum, abs=1e-9)


class TestIngestion:
    def test_well_formed_roundtrip(self, tmp_path):
        stream = generate(StreamSpec(n_regions=2, horizon=50, seed=1))
        path = tmp_path / "demand.csv"
        write_demand_csv(stream, path)
        cfg = ExperimentConfig(demand_csv=str(path), train_frac=0.4, calib_frac=0.2)
        got, dropped = ingest_csv(cfg)
        assert dropped == []
        assert np.array_equal(got.history, stream.history)

    def test_region_threshold_applied(self, tmp_path):
        y = np.concatenate([np.full((1, 2, 50), 1.0), np.full((1, 2, 50), 9.0)])
        stream = DemandStream(region_ids=("low", "high"), history=y)
        path = tmp_path / "demand.csv"
        write_demand_csv(stream, path)
        cfg = ExperimentConfig(demand_csv=str(path), region_threshold=2.0)
        got, dropped = ingest_csv(cfg)
        assert dropped == ["low"]
        assert got.region_ids == ("high",)

    def test_full_run_from_csv(self, tmp_path):
        stream = generate(StreamSpec(n_regions=2, horizon=400, seed=2))
        path = tmp_path / "demand.csv"
        write_demand_csv(stream, path)
        cfg = ExperimentConfig(demand_csv=str(path), train_frac=0.4, calib_frac=0.2,
                               seed=2)
        result = run_replay(cfg)
        assert result.ledger.horizon == 400 - 160 - 80


class TestFileBackedRuns:
    def make_inputs(self, tmp_path, drop_cell=None):
        stream = generate(StreamSpec(n_regions=2, horizon=200, seed=4,
                                     base_level=(10.0, 10.0)))
        demand = tmp_path / "demand.csv"
        write_demand_csv(stream, demand)
        rows = []
        for t in range(80, 200):  # calibration + deployment cells only
            for region in stream.region_ids:
                for flow in FLOWS:
                    if (t, region, flow) == drop_cell:
                        continue
                    rows.append((t, region, flow, 5.0, 15.0))
        forecasts = tmp_path / "forecasts.csv"
        write_forecast_csv(forecasts, rows)
        return demand, forecasts

    def test_run_with_forecast_file(self, tmp_path):
        demand, forecasts = self.make_inputs(tmp_path)
        cfg = ExperimentConfig(demand_csv=str(demand), forecast_csv=str(forecasts),
                               train_frac=0.4, calib_frac=0.2, method="qcp")
        result = run_replay(cfg)
        assert metrics.average_coverage(result.ledger) > 0.5

    def test_missing_cell_aborts_with_identity(self, tmp_path):
        demand, forecasts = self.make_inputs(tmp_path, drop_cell=(150, 1, "out"))
        cfg = ExperimentConfig(demand_csv=str(demand), forecast_csv=str(forecasts),
                               train_frac=0.4, calib_frac=0.2)
        with pytest.raises(MissingForecastError, match=r"t=150, region=1, flow=out"):
            run_replay(cfg)


class TestEmptyIntervals:
    def test_persistent_hits_push_alpha_past_one_and_flag_empties(self, tmp_path):
        """Over-coverage walks alpha above 1; empty intervals are misses."""
        horizon = 1200
        stream = DemandStream(
            region_ids=(0,),
            history=np.full((1, 2, horizon), 5.0),
        )
        demand = tmp_path / "demand.csv"
        write_demand_csv(stream, demand)
        rows = [
            (t, 0, flow, 0.0, 10.0)
            for t in range(horizon // 2, horizon)
            for flow in FLOWS
        ]
        forecasts = tmp_path / "forecasts.csv"
        write_forecast_csv(forecasts, rows)
        cfg = ExperimentConfig(demand_csv=str(demand), forecast_csv=str(forecasts),
                               train_frac=0.5, calib_frac=0.1, method="contina")
        result = run_replay(cfg)
        rate = metrics.empty_rate(result.ledger)
        assert rate > 0.0
        ledger = result.ledger
        assert not ledger.covered[ledger.empty].any()
        assert (ledger.length[ledger.empty] == 0.0).all()


class TestReports:
    def test_all_covered_summary_row(self, tmp_path):
        recs = [
            (t, r, f, True, 4.0, False)
            for t in range(48)
            for r in ("a", "b")
            for f in FLOWS
        ]
        ledger = metrics.RunLedger.from_records(recs, region_ids=("a", "b"))
        result = run_replay(small_config())
        result = result.__class__(
            config=small_config(), ledger=ledger, states=[],
            window_capacity=8, crossings=0, dropped_regions=[],
        )
        paths = write_report(result, tmp_path / "out")
        lines = open(paths["summary"]).read().splitlines()
        avg = [ln for ln in lines if ln.startswith("AVG")][0]
        assert avg.split(",")[4] == "1.0"

    def test_summary_cov_consistent_with_daily_file(self, tmp_path):
        cfg = small_config(synthetic=StreamSpec(n_regions=3, horizon=960, seed=6),
                           train_frac=0.4, calib_frac=0.1)
        result = run_replay(cfg)
        assert result.ledger.horizon % cfg.steps_per_day == 0
        paths = write_report(result, tmp_path / "rep")
        daily = np.genfromtxt(paths["daily"], delimiter=",", names=True)
        mean_daily = float(np.mean(daily["coverage"]))
        summary = open(paths["summary"]).read().splitlines()
        avg_cov = float([ln for ln in summary if ln.startswith("AVG")][0].split(",")[4])
        assert mean_daily == pytest.approx(avg_cov, abs=1e-12)
        assert avg_cov == metrics.average_coverage(result.ledger)

    def test_manifest_replay_reproduces_files_byte_for_byte(self, tmp_path):
        cfg = small_config(method="contina")
        paths1 = write_report(run_replay(cfg), tmp_path / "one")
        manifest = json.load(open(paths1["manifest"]))
        cfg2 = ExperimentConfig.from_dict(manifest["config"])
        paths2 = write_report(run_replay(cfg2), tmp_path / "two")
        for name in ("ledger", "summary", "daily", "states", "manifest"):
            assert filecmp.cmp(paths1[name], paths2[name], shallow=False)

    def test_report_from_dir_rebuilds_summary(self, tmp_path):
        cfg = small_config()
        paths = write_report(run_replay(cfg), tmp_path / "rep")
        before = open(paths["summary"]).read()
        rebuilt = report_from_dir(tmp_path / "rep")
        assert open(rebuilt["summary"]).read() == before

    def test_ledger_csv_roundtrip(self, tmp_path):
        cfg = small_config()
        result = run_replay(cfg)
        paths = write_report(result, tmp_path / "rep")
        back = read_ledger_csv(paths["ledger"])
        assert sorted(back.records) == sorted(result.ledger.records)


LAYOUT_CASES = [
    (method, clamp, updates)
    for method in METHODS
    for clamp in (False, True)
    for updates in (False, True)
]


def layout_config(method, clamp, updates):
    # Low, noisy demand so widened lower bounds go negative and the clamp binds.
    return small_config(
        method=method, clamp_nonnegative=clamp, predictor_updates=updates,
        synthetic=StreamSpec(n_regions=3, horizon=400, seed=21,
                             base_level=(0.5, 3.0), sigma_frac=1.0),
    )


@functools.lru_cache(maxsize=None)
def layout_run(method, clamp, updates):
    return run_replay(layout_config(method, clamp, updates))


class TestLedgerLayout:
    """The dense ledger's long-format views keep the (region, t, flow) layout."""

    @pytest.mark.parametrize("method, clamp, updates", LAYOUT_CASES)
    def test_views_match_hand_built_layout_and_oracle(self, method, clamp, updates):
        ledger = layout_run(method, clamp, updates).ledger
        n, steps = ledger.n_regions, ledger.horizon
        assert np.array_equal(ledger.t, np.tile(np.repeat(ledger.times, 2), n))
        assert np.array_equal(ledger.region_idx, np.repeat(np.arange(n), 2 * steps))
        assert np.array_equal(ledger.flow_idx, np.tile([0, 1], n * steps))
        want = oracle_replay(layout_config(method, clamp, updates))
        assert ledger.records == want
        for k, name in ((3, "covered"), (4, "length"), (5, "empty")):
            column = getattr(ledger, name)
            assert column.tolist() == [r[k] for r in want]
            assert np.array_equal(getattr(ledger, f"{name}_grid"), column.reshape(n, steps, 2))

    @pytest.mark.parametrize("method", METHODS)
    def test_clamp_changes_the_layout_runs(self, method):
        off = layout_run(method, False, False).ledger
        on = layout_run(method, True, False).ledger
        assert not np.array_equal(off.length_grid, on.length_grid)


class TestReportRoundTrip:
    @pytest.mark.parametrize("method, clamp, updates", LAYOUT_CASES)
    def test_write_read_and_rewrite(self, tmp_path, method, clamp, updates):
        result = layout_run(method, clamp, updates)
        paths = write_report(result, tmp_path)
        back = read_ledger_csv(paths["ledger"])
        assert back.region_ids == result.ledger.region_ids
        for name in ("times", "covered_grid", "length_grid", "empty_grid"):
            assert np.array_equal(getattr(back, name), getattr(result.ledger, name))
        before = {k: open(paths[k], "rb").read() for k in ("summary", "daily")}
        rebuilt = report_from_dir(tmp_path)
        assert {k: open(rebuilt[k], "rb").read() for k in before} == before

    def test_labels_that_need_quoting_round_trip(self, tmp_path):
        regions = (7, " s ", "#h", "007", "a\nb", "c,d", 'q"x')
        recs = [(t, r, f, t % 2 == 0, 0.5 * t, False)
                for r in regions for t in range(3) for f in FLOWS]
        ledger = metrics.RunLedger.from_records(recs)
        path = tmp_path / "ledger.csv"
        harness._write_ledger(ledger, path)
        back = read_ledger_csv(path)
        assert back.region_ids == ledger.region_ids == regions
        assert back.records == ledger.records == recs

    @pytest.mark.parametrize("method, clamp, updates", LAYOUT_CASES)
    def test_period_cells_equal_exact_counts(self, tmp_path, method, clamp, updates):
        result = layout_run(method, clamp, updates)
        write_report(result, tmp_path)
        paths = report_from_dir(tmp_path, periods=2)
        with open(paths["summary"], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == ["P1", "P2", "AVG"]
        records = result.ledger.records
        for row in rows:
            lo, hi, steps = int(row[1]), int(row[2]), int(row[3])
            cells = [r for r in records if lo <= r[0] <= hi]
            assert len(cells) == 2 * steps * result.ledger.n_regions
            assert row[4] == repr(float(Fraction(sum(r[3] for r in cells), len(cells))))
            per_region = {
                region: Fraction(sum(r[3] for r in cells if r[1] == region), 2 * steps)
                for region in result.ledger.region_ids
            }
            worst = min(per_region.values())
            assert row[5] == repr(float(worst))
            assert row[6] == str(min(r for r, v in per_region.items() if v == worst))


class TestConfigValidation:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig().validate()
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(synthetic=StreamSpec(1, 10, 0),
                             demand_csv="x.csv").validate()

    def test_bad_method(self):
        with pytest.raises(ConfigError, match="method"):
            ExperimentConfig(method="magic",
                             synthetic=StreamSpec(1, 10, 0)).validate()

    def test_forecast_csv_conflicts_with_linear_predictor(self):
        cfg = ExperimentConfig(
            synthetic=StreamSpec(1, 10, 0), forecast_csv="fc.csv",
            predictor=PredictorSpec(kind="online_pinball_linear"),
        )
        with pytest.raises(ConfigError, match="conflicts"):
            cfg.validate()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"methodd": "qcp"})

    def test_roundtrip_to_from_dict(self):
        cfg = small_config(method="aci_fixed", gamma=0.01)
        clone = ExperimentConfig.from_dict(cfg.to_dict())
        assert clone.to_dict() == cfg.to_dict()
