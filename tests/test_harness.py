"""End-to-end tests of the replay engine, ingestion, and report files.

``harness.oracle_replay`` re-executes an experiment one step at a time
through the object-path API (``predict``, ``ConformalIntervalTracker.observe``
and ``update``), and the engine must agree with it record for record and in
every region's final state, bit for bit, over seeds, methods, the clamp,
online predictor updates, file inputs and the pinball predictor, and with the
regions replayed in one, two or three shares, the later ones in forked
children.
"""

import csv
import filecmp
import functools
import json
import os
import pathlib
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from contina import harness, metrics, shares
from contina.adaptation import alpha_path
from contina.cli import main as cli_main
from contina.errors import (
    ConfigError, DataFormatError, LedgerError, MissingForecastError, NotFittedError,
)
from contina.harness import (
    ExperimentConfig,
    ingest_csv,
    oracle_replay,
    read_ledger_csv,
    report_from_dir,
    run_replay,
    verify_audit,
    write_report,
)
from contina.intervals import QuantileForecast, conformity_score
from contina.predictors import PredictorSpec, write_forecast_csv
from contina.streams import (
    FLOWS,
    DemandStream,
    StreamSpec,
    generate,
    region_sort_key,
    write_demand_csv,
)
from contina.tracker import METHODS, ConformalIntervalTracker
from fake_cpus import forks, refuse_fork, use_cpus  # noqa: F401 (forks is a fixture)
from ledger_rows import records


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


def layout_config(method, clamp, updates, seed):
    # Low, noisy demand so widened lower bounds go negative and the clamp binds.
    return small_config(
        method=method, clamp_nonnegative=clamp, predictor_updates=updates, seed=seed,
        synthetic=StreamSpec(n_regions=3, horizon=400, seed=seed,
                             base_level=(0.5, 3.0), sigma_frac=1.0),
    )


@functools.lru_cache(maxsize=None)
def layout_run(method, clamp, updates, seed):
    return run_replay(layout_config(method, clamp, updates, seed))


def state_bits(states):
    return np.array([[s.alpha, s.moment, s.rate, s.update_sum] for s in states]).tobytes()


def assert_same_run(got, want):
    """Ledger records and final states equal, floats bit for bit."""
    assert records(got.ledger) == records(want.ledger)
    # == equates -0.0 with 0.0; the bytes do not.
    assert got.ledger.length_grid.tobytes() == want.ledger.length_grid.tobytes()
    assert [s.region for s in got.states] == [s.region for s in want.states]
    assert state_bits(got.states) == state_bits(want.states)
    assert (got.window_capacity, got.crossings, got.dropped_regions) == \
        (want.window_capacity, want.crossings, want.dropped_regions)


LAYOUT_CASES = [
    (method, clamp, updates)
    for method in METHODS
    for clamp in (False, True)
    for updates in (False, True)
]


class TestEngineAgainstOracle:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    @pytest.mark.parametrize("method, clamp, updates", LAYOUT_CASES)
    def test_engine_matches_oracle(self, method, clamp, updates, seed):
        want = oracle_replay(layout_config(method, clamp, updates, seed))
        assert_same_run(layout_run(method, clamp, updates, seed), want)

    def test_one_region_equals_its_slice_of_the_full_replay(self):
        full = layout_run("contina", True, True, 21)
        for i, region in enumerate(full.ledger.region_ids):
            one = oracle_replay(layout_config("contina", True, True, 21), region=region)
            assert one.ledger.region_ids == (region,)
            for name in ("covered_grid", "length_grid", "empty_grid"):
                assert getattr(one.ledger, name)[0].tobytes() == \
                    getattr(full.ledger, name)[i].tobytes()
            assert state_bits(one.states) == state_bits(full.states[i:i + 1])
        with pytest.raises(ValueError, match="not in the run"):
            oracle_replay(layout_config("contina", True, True, 21), region="nowhere")

    def test_file_backed_inputs(self, tmp_path):
        demand, forecasts = TestFileBackedRuns().make_inputs(tmp_path)

        def config():
            return ExperimentConfig(demand_csv=str(demand), forecast_csv=str(forecasts),
                                    train_frac=0.4, calib_frac=0.2, method="contina",
                                    clamp_nonnegative=True)

        assert_same_run(run_replay(config()), oracle_replay(config()))

    def test_online_pinball_with_updates(self):
        def config():
            return small_config(method="contina", predictor_updates=True,
                                predictor=PredictorSpec(kind="online_pinball_linear"))

        assert_same_run(run_replay(config()), oracle_replay(config()))

    def test_online_pinball_frozen(self):
        # The engine forecasts whole series, the oracle one step at a time.
        def config():
            return small_config(method="contina",
                                predictor=PredictorSpec(kind="online_pinball_linear"))

        assert_same_run(run_replay(config()), oracle_replay(config()))

    @pytest.mark.parametrize("method", ["aci_fixed", "contina"])
    @pytest.mark.parametrize("updates", [False, True])
    def test_high_rate_leaves_unit_interval_both_ways(self, method, updates, monkeypatch):
        # A rate this large moves alpha_t by at least 0.5 per step, so the
        # working level leaves [0, 1] on both sides; the clamp and a small
        # window are on as well.
        def config():
            return small_config(
                method=method, clamp_nonnegative=True, predictor_updates=updates,
                window=12, gamma=5.0, gamma1=5.0,
                synthetic=StreamSpec(n_regions=3, horizon=400, seed=21,
                                     base_level=(0.5, 3.0), sigma_frac=1.0),
            )

        levels = []
        predict = ConformalIntervalTracker.predict

        def spy(tracker, forecasts):
            levels.append(1.0 - tracker.alpha_t_)
            return predict(tracker, forecasts)

        monkeypatch.setattr(ConformalIntervalTracker, "predict", spy)
        want = oracle_replay(config())
        monkeypatch.undo()
        assert min(levels) < 0.0 and max(levels) > 1.0
        got = run_replay(config())
        assert got.ledger.empty.any()
        assert_same_run(got, want)
        # The levels alpha_path reads off the engine's ledger are the ones the
        # oracle's predict saw, region after region, and leave [0, 1] both ways.
        alpha = alpha_path(method, got.ledger.covered_grid, 5.0, config().hyperparams())[0]
        path_levels = 1.0 - alpha[:, :-1]
        assert path_levels.tobytes() == np.array(levels).tobytes()
        assert (path_levels > 1.0).any() and (path_levels < 0.0).any()

    @pytest.mark.parametrize("updates", [False, True])
    def test_a_day_of_10_9_steps_costs_the_series_not_the_day(self, updates):
        # Every deployment hour is cold, so each forecast is the fallback pair.
        def config():
            return small_config(steps_per_day=10**9, predictor_updates=updates)

        start = time.perf_counter()
        got = run_replay(config())
        assert time.perf_counter() - start < 10  # about 0.1 s; hours when a day's hours are listed
        assert_same_run(got, oracle_replay(config()))

    @pytest.mark.parametrize("updates", [False, True])
    def test_a_day_of_10_9_steps_raises_as_the_oracle_without_fallback(self, updates):
        def config():
            return small_config(steps_per_day=10**9, predictor_updates=updates,
                                predictor=PredictorSpec(fallback="error"))

        with pytest.raises(NotFittedError) as want:
            oracle_replay(config())
        with pytest.raises(NotFittedError) as got:
            run_replay(config())
        assert str(got.value) == str(want.value)
        assert "region=0, flow=in, hour=240)" in str(got.value)  # the first calibration step


class TestDeterminismAndParallelism:
    def test_same_config_same_ledger(self):
        a = run_replay(small_config())
        b = run_replay(small_config())
        assert np.array_equal(a.ledger.covered, b.ledger.covered)
        assert np.array_equal(a.ledger.length, b.ledger.length)

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


def share_configs(tmp_path):
    """Five-region runs, by name; each factory returns a fresh config."""
    synthetic = StreamSpec(n_regions=5, horizon=300, seed=31, base_level=(0.5, 3.0),
                           sigma_frac=1.0)
    demand, forecasts = TestFileBackedRuns().make_inputs(tmp_path, n_regions=5, crossed=True)
    return {
        "contina": lambda: small_config(method="contina", synthetic=synthetic),
        "aci_fixed_clamped": lambda: small_config(method="aci_fixed", clamp_nonnegative=True,
                                                  synthetic=synthetic),
        "seasonal_updates": lambda: small_config(
            method="contina", predictor_updates=True, synthetic=synthetic,
            predictor=PredictorSpec(window_len=3)),
        # A large step makes the heads cross in every region.
        "pinball_updates": lambda: small_config(
            method="contina", predictor_updates=True, synthetic=synthetic,
            predictor=PredictorSpec(kind="online_pinball_linear", step_size=3.0)),
        "file_backed_crossed": lambda: ExperimentConfig(
            demand_csv=str(demand), forecast_csv=str(forecasts), train_frac=0.4,
            calib_frac=0.2, method="contina", clamp_nonnegative=True),
    }


class TestRegionShares:
    """Region shares replayed in forked children give the serial replay's run."""

    @pytest.fixture(autouse=True)
    def one_step_floor(self, monkeypatch):
        """A share of one region-step, so that ``k`` usable CPUs give ``k`` shares."""
        monkeypatch.setattr(harness, "REPLAY_SHARE_MIN_STEPS", 1)

    @pytest.mark.parametrize("name", ["contina", "aci_fixed_clamped", "seasonal_updates",
                                      "pinball_updates", "file_backed_crossed"])
    def test_shares_match_one_share_and_oracle(self, tmp_path, monkeypatch, forks, name):
        config = share_configs(tmp_path)[name]
        want = oracle_replay(config())
        for k in (3, 2, 1):
            use_cpus(monkeypatch, k)
            if k == 1:
                assert len(forks) == 2 + 1
                monkeypatch.setattr(os, "fork", refuse_fork)
            assert_same_run(run_replay(config()), want)
        if name == "pinball_updates":
            # The last share's children count crossings that the sum must keep.
            last = want.ledger.region_ids[-1]
            assert oracle_replay(config(), region=last).crossings > 0

    @pytest.mark.parametrize("regions", [(4,), (0, 4), (1, 4)],
                             ids=["last", "first-and-last", "second-and-last"])
    def test_missing_forecast_raises_the_serial_error(self, tmp_path, monkeypatch, forks,
                                                       regions):
        # With five regions, 2 shares hold regions 0-1 and 2-4, and 3 shares
        # hold 0, 1-2 and 3-4: the failures fall in the parent's share, in
        # one child's, or in two children's.
        demand, forecasts = TestFileBackedRuns().make_inputs(
            tmp_path, n_regions=5, drop_cells=[(150 + r, r, "out") for r in regions])
        args = ["run", "--demand-csv", str(demand), "--forecast-csv", str(forecasts),
                "--train-frac", "0.4", "--calib-frac", "0.2"]
        want = f"t={150 + regions[0]}, region={regions[0]}, flow=out"
        messages = set()
        for k in (1, 2, 3):
            use_cpus(monkeypatch, k)
            with pytest.raises(MissingForecastError, match=want) as error:
                run_replay(ExperimentConfig(demand_csv=str(demand), forecast_csv=str(forecasts),
                                            train_frac=0.4, calib_frac=0.2))
            messages.add(str(error.value))
            result = CliRunner().invoke(cli_main, args)
            assert result.exit_code == 5
            assert f"error: {error.value}" in result.output
        assert len(messages) == 1
        assert len(forks) == 2 * (1 + 2)  # run_replay and the CLI, at 2 and 3 CPUs

    def test_no_child_or_pipe_outlives_the_replay(self, tmp_path, monkeypatch, forks):
        use_cpus(monkeypatch, 3)
        fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        run_replay(share_configs(tmp_path)["contina"]())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        demand, forecasts = TestFileBackedRuns().make_inputs(
            tmp_path, n_regions=5, drop_cells=[(150, 4, "out")])
        with pytest.raises(MissingForecastError):
            run_replay(ExperimentConfig(demand_csv=str(demand), forecast_csv=str(forecasts),
                                        train_frac=0.4, calib_frac=0.2))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if fds is not None:
            assert sorted(os.listdir("/proc/self/fd")) == fds
        assert len(forks) == 2 + 2

    def test_child_without_a_result_names_its_exit_status(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(shares, "_send_share", lambda fd, *args: os._exit(3))
        with pytest.raises(ChildProcessError, match="exit status 3 and no result"):
            run_replay(share_configs(tmp_path)["contina"]())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_fork_while_another_thread_is_alive(self, tmp_path, monkeypatch):
        config = share_configs(tmp_path)["seasonal_updates"]
        use_cpus(monkeypatch, 1)
        want = run_replay(config())
        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", refuse_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            got = run_replay(config())
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert_same_run(got, want)


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
    @pytest.mark.parametrize("method, clamp, updates", LAYOUT_CASES)
    def test_audit_verifies(self, method, clamp, updates):
        result = run_replay(layout_config(method, clamp, updates, 22), audit=True)
        assert result.audit in result.ledger.region_ids
        assert verify_audit(result)

    def test_audit_with_online_predictor_updates(self):
        cfg = small_config(method="contina", predictor_updates=True,
                           synthetic=StreamSpec(n_regions=2, horizon=300, seed=33))
        result = run_replay(cfg, audit=True)
        assert verify_audit(result)

    def test_audit_catches_a_wrong_fast_path_coverage(self, monkeypatch):
        series = ConformalIntervalTracker.observe_series

        def flipped(self, *args):
            cov1, *rest = series(self, *args)
            return ([not c for c in cov1], *rest)

        monkeypatch.setattr(ConformalIntervalTracker, "observe_series", flipped)
        result = run_replay(small_config(method="contina"), audit=True)
        assert verify_audit(result) is False

    def test_audit_catches_an_engine_moment_off_the_recurrence(self, monkeypatch):
        # Every step the audit re-derives still matches: the intervals read
        # alpha_t, not the moment. Only the final states give the engine away.
        series = ConformalIntervalTracker.observe_series

        def scaled(self, *args):
            out = series(self, *args)
            self.moment_ *= 1.5
            return out

        monkeypatch.setattr(ConformalIntervalTracker, "observe_series", scaled)
        result = run_replay(small_config(method="contina"), audit=True)
        assert verify_audit(result) is False

    def test_audit_catches_one_wrong_length_mid_run(self, monkeypatch):
        # One inflow length off at one step of each region: the coverage, and
        # so every final state, is untouched, and a check of any other single
        # step would pass.
        series = ConformalIntervalTracker.observe_series

        def lengthened(self, *args):
            cov1, len1, *rest = series(self, *args)
            len1[len(len1) // 2] += 1.0
            return (cov1, len1, *rest)

        monkeypatch.setattr(ConformalIntervalTracker, "observe_series", lengthened)
        result = run_replay(small_config(method="contina"), audit=True)
        assert verify_audit(result) is False


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
    def make_inputs(self, tmp_path, drop_cells=(), n_regions=2, crossed=False):
        stream = generate(StreamSpec(n_regions=n_regions, horizon=200, seed=4,
                                     base_level=(10.0, 10.0)))
        demand = tmp_path / "demand.csv"
        write_demand_csv(stream, demand)
        rows = []
        for t in range(80, 200):  # calibration + deployment cells only
            for region in stream.region_ids:
                for j, flow in enumerate(FLOWS):
                    if (t, region, flow) in drop_cells:
                        continue
                    # Bands that differ from cell to cell, so a forecast read
                    # for the wrong cell changes the outcome.
                    lo = 3.0 + (t + 2 * region + j) % 5
                    if crossed and (t + region + j) % 7 == 0:  # q_lo and q_hi swapped
                        rows.append((t, region, flow, lo + 9.0, lo))
                    else:
                        rows.append((t, region, flow, lo, lo + 9.0))
        forecasts = tmp_path / "forecasts.csv"
        write_forecast_csv(forecasts, rows)
        return demand, forecasts

    def test_run_with_forecast_file(self, tmp_path):
        demand, forecasts = self.make_inputs(tmp_path)
        cfg = ExperimentConfig(demand_csv=str(demand), forecast_csv=str(forecasts),
                               train_frac=0.4, calib_frac=0.2, method="qcp")
        result = run_replay(cfg)
        assert metrics.average_coverage(result.ledger) > 0.5

    @pytest.mark.parametrize("method", METHODS)
    def test_predictor_updates_on_and_off_write_identical_reports(self, tmp_path, method):
        # A file-backed predictor ignores updates, so the forecasts of the
        # update path must reproduce the frozen forecasts bit for bit.
        demand, forecasts = self.make_inputs(tmp_path)
        paths = {}
        for updates in (False, True):
            cfg = ExperimentConfig(demand_csv=str(demand), forecast_csv=str(forecasts),
                                   train_frac=0.4, calib_frac=0.2, method=method,
                                   predictor_updates=updates)
            result = run_replay(cfg, audit=True)
            assert verify_audit(result)
            paths[updates] = write_report(result, tmp_path / f"updates{updates}")
        for name in ("ledger", "summary", "daily", "states"):
            assert filecmp.cmp(paths[False][name], paths[True][name], shallow=False)

    def test_calibration_scores_keep_the_conformity_score_tie_rule(self, tmp_path,
                                                                  monkeypatch):
        # Zero demand under bands [-0.0, 0.0]: max(y - hi, lo - y) is
        # max(0.0, -0.0), which the builtin max resolves to +0.0.
        demand = tmp_path / "demand.csv"
        write_demand_csv(DemandStream(region_ids=(0,), history=np.zeros((1, 2, 40))), demand)
        forecasts = tmp_path / "forecasts.csv"
        write_forecast_csv(forecasts, [(t, 0, flow, -0.0 if t % 2 else -1.5, 0.0)
                                       for t in range(16, 40) for flow in FLOWS])
        seeded = []
        fit = ConformalIntervalTracker.fit

        def spy(tracker, scores_in, scores_out):
            seeded.extend([scores_in, scores_out])
            return fit(tracker, scores_in, scores_out)

        monkeypatch.setattr(ConformalIntervalTracker, "fit", spy)
        cfg = ExperimentConfig(demand_csv=str(demand), forecast_csv=str(forecasts),
                               train_frac=0.4, calib_frac=0.2, method="qcp")
        run_replay(cfg)
        want = np.array([conformity_score(0.0, QuantileForecast(-0.0 if t % 2 else -1.5, 0.0))
                         for t in range(16, 24)])
        assert len(seeded) == 2
        for scores in seeded:
            assert np.asarray(scores, dtype=np.float64).tobytes() == want.tobytes()

    def test_missing_cell_aborts_with_identity(self, tmp_path):
        demand, forecasts = self.make_inputs(tmp_path, drop_cells=[(150, 1, "out")])
        cfg = ExperimentConfig(demand_csv=str(demand), forecast_csv=str(forecasts),
                               train_frac=0.4, calib_frac=0.2)
        with pytest.raises(MissingForecastError, match=r"t=150, region=1, flow=out"):
            run_replay(cfg)

    @pytest.mark.parametrize("updates", [False, True])
    def test_missing_cells_name_the_inflow_cell_first(self, tmp_path, updates):
        # Both modes ask each cell for its whole deployment series, inflow
        # first, so the inflow cell's gap is named even though it is later.
        demand, forecasts = self.make_inputs(tmp_path,
                                             drop_cells=[(170, 1, "in"), (150, 1, "out")])
        cfg = ExperimentConfig(demand_csv=str(demand), forecast_csv=str(forecasts),
                               train_frac=0.4, calib_frac=0.2, predictor_updates=updates)
        with pytest.raises(MissingForecastError, match=r"t=170, region=1, flow=in"):
            run_replay(cfg)

    @pytest.mark.parametrize("updates", [False, True])
    def test_cold_seasonal_hours_name_the_inflow_cell_first(self, tmp_path, updates):
        # A day longer than the training window leaves hours 80.. without
        # history; with fallback disabled the first one asked for raises, and
        # the inflow cell is always asked first.
        demand, _ = self.make_inputs(tmp_path)
        cfg = ExperimentConfig(demand_csv=str(demand), train_frac=0.4, calib_frac=0.2,
                               steps_per_day=200, predictor_updates=updates,
                               predictor=PredictorSpec(fallback="error"))
        with pytest.raises(NotFittedError, match=r"region=0, flow=in, hour=80\)"):
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
        assert sorted(records(back)) == sorted(records(result.ledger))


def linspace_slices(horizon, periods):
    """``_period_slices`` spelled with every bound, through ``np.linspace``."""
    bounds = np.linspace(0, horizon, periods + 1).astype(int)
    return [(f"P{p + 1}", int(bounds[p]), int(bounds[p + 1])) for p in range(periods)
            if bounds[p + 1] > bounds[p]]


@pytest.mark.parametrize("horizon", [0, 1, 2, 3, 7, 24, 97, 160, 1000, 2001])
def test_period_slices_match_the_linspace_spelling(horizon):
    for periods in [*range(1, 40), 96, 97, 98, 159, 160, 161, 999, 1000, 1001, 2000, 2001,
                    2002, 4096, 10**5 + 3]:
        got = harness._period_slices(horizon, periods)
        assert [(label, int(a), int(b)) for label, a, b in got] == \
            linspace_slices(horizon, periods), periods


def test_period_slices_cost_follows_the_horizon():
    got = harness._period_slices(160, 10**12)
    assert len(got) == 160
    assert [b - a for _, a, b in got] == [1] * 160
    assert got[-1] == ("P1000000000000", 159, 160)


class TestLedgerLayout:
    """The dense ledger's long-format views keep the (region, t, flow) layout."""

    @pytest.mark.parametrize("method, clamp, updates", LAYOUT_CASES)
    def test_views_match_hand_built_layout(self, method, clamp, updates):
        ledger = layout_run(method, clamp, updates, 21).ledger
        n, steps = ledger.n_regions, ledger.horizon
        assert np.array_equal(ledger.t, np.tile(np.repeat(ledger.times, 2), n))
        assert np.array_equal(ledger.region_idx, np.repeat(np.arange(n), 2 * steps))
        assert np.array_equal(ledger.flow_idx, np.tile([0, 1], n * steps))
        rows = records(ledger)
        for k, name in ((3, "covered"), (4, "length"), (5, "empty")):
            column = getattr(ledger, name)
            assert column.tolist() == [r[k] for r in rows]
            assert np.array_equal(getattr(ledger, f"{name}_grid"), column.reshape(n, steps, 2))

    @pytest.mark.parametrize("method", METHODS)
    def test_clamp_changes_the_layout_runs(self, method):
        off = layout_run(method, False, False, 21).ledger
        on = layout_run(method, True, False, 21).ledger
        assert not np.array_equal(off.length_grid, on.length_grid)


class TestReportRoundTrip:
    @pytest.mark.parametrize("method, clamp, updates", LAYOUT_CASES)
    def test_write_read_and_rewrite(self, tmp_path, method, clamp, updates):
        result = layout_run(method, clamp, updates, 21)
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
        assert records(back) == records(ledger) == recs

    @pytest.mark.parametrize("method, clamp, updates", LAYOUT_CASES)
    def test_period_cells_equal_exact_counts(self, tmp_path, method, clamp, updates):
        result = layout_run(method, clamp, updates, 21)
        write_report(result, tmp_path)
        paths = report_from_dir(tmp_path, periods=2)
        with open(paths["summary"], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == ["P1", "P2", "AVG"]
        ledger_cells = records(result.ledger)
        for row in rows:
            lo, hi, steps = int(row[1]), int(row[2]), int(row[3])
            cells = [r for r in ledger_cells if lo <= r[0] <= hi]
            assert len(cells) == 2 * steps * result.ledger.n_regions
            assert row[4] == repr(float(Fraction(sum(r[3] for r in cells), len(cells))))
            per_region = {
                region: Fraction(sum(r[3] for r in cells if r[1] == region), 2 * steps)
                for region in result.ledger.region_ids
            }
            worst = min(per_region.values())
            assert row[5] == repr(float(worst))
            assert row[6] == str(min(r for r, v in per_region.items() if v == worst))


MIRROR_LABELS = {
    "integers": (-5, 0, 3, 12),
    "quoted": ("a\nb", "c,d", 'q"x', " s "),
    "leading-zero": (7, "007", "7a"),
    "numpy-integers": tuple(np.arange(-2, 2)),  # JSON holds no numpy integer
}


def mirror_ledger(labels, horizon=5):
    """A ledger of ``labels`` in canonical order, with signed-zero, subnormal and large lengths."""
    regions = tuple(sorted(labels, key=region_sort_key))
    shape = (len(regions), horizon, 2)
    k = np.arange(np.prod(shape)).reshape(shape)
    lengths = np.resize([0.0, -0.0, 5e-324, 0.1, 1e300, 2.5], shape)
    return metrics.RunLedger(regions, np.arange(horizon) * 3 - 7, k % 2 == 0, lengths,
                             k % 3 == 0)


def summary_bytes(out_dir):
    paths = report_from_dir(out_dir)
    return {k: pathlib.Path(paths[k]).read_bytes() for k in ("summary", "daily")}


def flip_bit(path, offset, bit=0):
    data = bytearray(path.read_bytes())
    data[offset] ^= 1 << bit
    path.write_bytes(bytes(data))


class TestLedgerMirror:
    """ledger.bin gives the ledger that ledger.csv gives, or is not used."""

    @pytest.fixture
    def run_dir(self, tmp_path):
        write_report(run_replay(small_config()), tmp_path / "run")
        return tmp_path / "run"

    @pytest.mark.parametrize("kind", MIRROR_LABELS)
    def test_mirror_reads_as_the_csv_reads(self, tmp_path, kind):
        ledger = mirror_ledger(MIRROR_LABELS[kind])
        result = run_replay(small_config())
        result = result.__class__(config=small_config(periods=2), ledger=ledger, states=[],
                                  window_capacity=8, crossings=0, dropped_regions=[])
        paths = write_report(result, tmp_path)
        got, want = harness._read_mirror(tmp_path), read_ledger_csv(paths["ledger"])
        assert got.region_ids == want.region_ids == ledger.region_ids
        assert [type(r) for r in got.region_ids] == [type(r) for r in want.region_ids]
        for name in ("times", "covered_grid", "length_grid", "empty_grid"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert a.flags.aligned
        with_mirror = summary_bytes(tmp_path)
        os.remove(paths["mirror"])
        assert summary_bytes(tmp_path) == with_mirror

    def test_report_reads_the_mirror_and_not_the_csv(self, run_dir, monkeypatch):
        before = {k: (run_dir / f).read_bytes()
                  for k, f in (("summary", "summary.csv"), ("daily", "daily_coverage.csv"))}

        def refuse(path):
            raise AssertionError("ledger.csv was parsed")

        monkeypatch.setattr(harness, "read_ledger_csv", refuse)
        assert summary_bytes(run_dir) == before

    @pytest.mark.parametrize("damage", [
        "no-mirror", "other-run", "csv-bit", "payload-bit", "float-horizon", "header-bit",
        "truncated",
    ])
    def test_an_untrusted_mirror_gives_the_csv_reports(self, run_dir, tmp_path, damage):
        mirror = run_dir / "ledger.bin"
        if damage == "no-mirror":
            mirror.unlink()
        elif damage == "other-run":
            other = small_config(synthetic=StreamSpec(n_regions=3, horizon=600, seed=22))
            write_report(run_replay(other), tmp_path / "other")
            mirror.write_bytes((tmp_path / "other" / "ledger.bin").read_bytes())
        elif damage == "csv-bit":
            # The last digit of a length: still a valid ledger, one that reads differently.
            text = (run_dir / "ledger.csv").read_bytes()
            flip_bit(run_dir / "ledger.csv", text.index(b"\r\n", 200) - 3)
        elif damage == "payload-bit":
            flip_bit(mirror, mirror.stat().st_size - 1)
        elif damage == "float-horizon":
            # Checksum-valid: only the type of the horizon is not one _write_mirror writes.
            line, payload = mirror.read_bytes().split(b"\n", 1)
            meta = {k: v for k, v in json.loads(line).items() if k != "payload_sha256"}
            meta["horizon"] = float(meta["horizon"])
            digest = harness._mirror_meta_sha256(meta)
            digest.update(payload)
            head = json.dumps({**meta, "payload_sha256": digest.hexdigest()}, sort_keys=True)
            mirror.write_bytes(head.encode("ascii") + b"\n" + payload)
        elif damage == "header-bit":
            flip_bit(mirror, mirror.read_bytes().index(b'"horizon": ') + 11)
        else:
            mirror.write_bytes(mirror.read_bytes()[:-1])
        assert harness._read_mirror(run_dir) is None
        got = summary_bytes(run_dir)
        if mirror.exists():
            mirror.unlink()
        assert got == summary_bytes(run_dir)

    def test_every_header_bit_and_payload_byte_is_checked(self, tmp_path):
        ledger = mirror_ledger(MIRROR_LABELS["quoted"], horizon=3)
        digest = harness._write_ledger(ledger, tmp_path / "ledger.csv")
        harness._write_mirror(ledger, digest, tmp_path / "ledger.bin")
        mirror = tmp_path / "ledger.bin"
        good = mirror.read_bytes()
        header = good.index(b"\n") + 1
        flips = [(k, bit) for k in range(header) for bit in range(8)]
        flips += [(k, k % 8) for k in range(header, len(good))]
        for k, bit in flips:
            flip_bit(mirror, k, bit)
            assert harness._read_mirror(tmp_path) is None, (k, bit)
            mirror.write_bytes(good)
        for size in (0, header - 1, header, len(good) - 1):
            mirror.write_bytes(good[:size])
            assert harness._read_mirror(tmp_path) is None, size
        mirror.write_bytes(good + b"\0")
        assert harness._read_mirror(tmp_path) is None

    def test_missing_ledger_csv_keeps_its_error(self, run_dir):
        (run_dir / "ledger.csv").unlink()
        with pytest.raises(DataFormatError) as with_mirror:
            report_from_dir(run_dir)
        (run_dir / "ledger.bin").unlink()
        with pytest.raises(DataFormatError) as without:
            report_from_dir(run_dir)
        assert str(with_mirror.value) == str(without.value)

    @pytest.mark.parametrize("regions, horizon", [
        (("b", "a"), 48), ((3, 1), 48), ((1, "1"), 48), (("a",), 0), ((), 48),
        (("a\0b", "c"), 48),
    ], ids=["unsorted", "unsorted-ints", "one-label", "no-steps", "no-regions", "nul-label"])
    def test_ledger_that_reads_back_otherwise_is_refused(self, tmp_path, regions, horizon):
        # report_from_dir would read ("b", "a") back as ("a", "b"), (1, "1") as one
        # region, and an empty ledger or a label holding a NUL not at all.
        shape = (len(regions), horizon, 2)
        ledger = metrics.RunLedger(regions, np.arange(horizon), np.ones(shape, bool),
                                   np.full(shape, 4.0), np.zeros(shape, bool))
        result = harness.RunResult(config=small_config(), ledger=ledger, states=[],
                                   window_capacity=8, crossings=0, dropped_regions=[])
        with pytest.raises(LedgerError, match="would not read back as written"):
            write_report(result, tmp_path / "rep")
        assert not (tmp_path / "rep").exists()

    def test_report_bytes_repeat_at_every_share_count(self, tmp_path, monkeypatch, forks):
        # Floors of one region-step and one row: k usable CPUs give k shares.
        monkeypatch.setattr(harness, "REPLAY_SHARE_MIN_STEPS", 1)
        monkeypatch.setattr(harness, "LEDGER_SHARE_MIN_ROWS", 1)
        reports = []
        for k in (1, 2, 3):
            use_cpus(monkeypatch, k)
            paths = write_report(run_replay(small_config()), tmp_path / f"k{k}")
            reports.append({name: pathlib.Path(p).read_bytes() for name, p in paths.items()})
        assert "mirror" in reports[0]
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert len(forks) == 2 * (1 + 2)  # the replay and the ledger writer, at 2 and 3 CPUs


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
