"""CLI tests: subcommands, config/flag precedence, exit codes."""

import json
import logging
import tracemalloc

import pytest
from click.testing import CliRunner

from contina.cli import main
from contina.predictors import write_forecast_csv
from contina.streams import FLOWS, DemandStream, StreamSpec, generate, write_demand_csv


@pytest.fixture
def runner():
    return CliRunner()


def run_cli(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestGenerate:
    def test_writes_deterministic_csv(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["generate", "--regions", "3", "--horizon", "40", "--seed", "5"]
        assert run_cli(runner, args + ["--out", str(a)]).exit_code == 0
        assert run_cli(runner, args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "t,region,inflow,outflow"

    def test_invalid_spec_exits_with_config_code(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["generate", "--regions", "0", "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2
        assert "error:" in result.output


class TestRun:
    def test_synthetic_run_writes_reports(self, runner, tmp_path):
        out = tmp_path / "run1"
        result = run_cli(runner, [
            "run", "--regions", "3", "--horizon", "400", "--seed", "9",
            "--method", "contina", "--train-frac", "0.4", "--calib-frac", "0.2",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        for name in ("ledger.csv", "summary.csv", "daily_coverage.csv",
                     "states.csv", "manifest.json"):
            assert (out / name).exists()
        assert "cov=" in result.output

    def test_flags_override_config_file(self, runner, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(
            "method: qcp\n"
            "alpha: 0.2\n"
            "seed: 3\n"
            "train_frac: 0.4\n"
            "calib_frac: 0.2\n"
            "synthetic:\n"
            "  n_regions: 2\n"
            "  horizon: 300\n"
            "  seed: 3\n"
        )
        out = tmp_path / "run2"
        result = run_cli(runner, [
            "run", "--config", str(cfg), "--alpha", "0.1", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 0.1
        assert manifest["config"]["method"] == "qcp"

    def test_runs_from_demand_csv(self, runner, tmp_path):
        demand = tmp_path / "demand.csv"
        assert run_cli(runner, [
            "generate", "--regions", "2", "--horizon", "300", "--seed", "4",
            "--out", str(demand),
        ]).exit_code == 0
        result = run_cli(runner, [
            "run", "--demand-csv", str(demand), "--train-frac", "0.4",
            "--calib-frac", "0.2", "--method", "aci_fixed",
        ])
        assert result.exit_code == 0, result.output

    def test_audit_flag_reports_verified_step(self, runner, tmp_path):
        result = run_cli(runner, [
            "run", "--regions", "2", "--horizon", "300", "--seed", "11",
            "--train-frac", "0.4", "--calib-frac", "0.2", "--audit",
        ])
        assert result.exit_code == 0, result.output
        assert "audit ok" in result.output

    def test_missing_data_source_is_config_error(self, runner):
        result = runner.invoke(main, ["run", "--method", "qcp"])
        assert result.exit_code == 2

    def test_workers_key_and_flag_are_config_errors(self, runner, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("workers: 2\nsynthetic:\n  n_regions: 2\n  horizon: 300\n")
        result = runner.invoke(main, ["run", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "unknown config keys: ['workers']" in result.output
        result = runner.invoke(main, ["run", "--regions", "2", "--workers", "2"])
        assert result.exit_code == 2

    def test_conflicting_sources_rejected(self, runner, tmp_path):
        demand = tmp_path / "demand.csv"
        run_cli(runner, ["generate", "--regions", "1", "--horizon", "60",
                         "--out", str(demand)])
        result = runner.invoke(main, [
            "run", "--demand-csv", str(demand), "--regions", "2",
            "--horizon", "100",
        ])
        assert result.exit_code == 2


class TestReport:
    def test_rebuild_identical(self, runner, tmp_path):
        out = tmp_path / "run3"
        run_cli(runner, [
            "run", "--regions", "2", "--horizon", "400", "--seed", "8",
            "--train-frac", "0.4", "--calib-frac", "0.2", "--out", str(out),
        ])
        before = (out / "summary.csv").read_bytes()
        result = run_cli(runner, ["report", str(out)])
        assert result.exit_code == 0
        assert (out / "summary.csv").read_bytes() == before

    def test_periods_override(self, runner, tmp_path):
        out = tmp_path / "run4"
        run_cli(runner, [
            "run", "--regions", "2", "--horizon", "400", "--seed", "8",
            "--train-frac", "0.4", "--calib-frac", "0.2", "--out", str(out),
        ])
        run_cli(runner, ["report", str(out), "--periods", "2"])
        lines = (out / "summary.csv").read_text().splitlines()
        labels = [ln.split(",")[0] for ln in lines[1:]]
        assert labels == ["P1", "P2", "AVG"]


def small_run(runner, out):
    result = run_cli(runner, [
        "run", "--regions", "3", "--horizon", "400", "--seed", "8",
        "--train-frac", "0.4", "--calib-frac", "0.2", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output


class TestMalformedLedger:
    """A damaged ledger.csv ends in exit 3 with its line or exit 6 with its cell."""

    @pytest.fixture
    def run_dir(self, runner, tmp_path):
        out = tmp_path / "run"
        small_run(runner, out)
        return out

    def rewrite(self, run_dir, edit):
        path = run_dir / "ledger.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\r\n".join(edit(lines)) + "\r\n", encoding="utf-8")

    def report(self, runner, run_dir):
        result = runner.invoke(main, ["report", str(run_dir)])
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        return result

    @pytest.mark.parametrize("field, value", [
        (4, "1.2.3"), (0, "12.5"), (2, "inn"), (3, "2"), (5, "yes"),
    ])
    def test_bad_field_names_its_line(self, runner, run_dir, field, value):
        def edit(lines):
            row = lines[9].split(",")
            row[field] = value
            lines[9] = ",".join(row)
            return lines

        self.rewrite(run_dir, edit)
        result = self.report(runner, run_dir)
        assert result.exit_code == 3
        assert "ledger.csv:10:" in result.output

    def test_short_row_names_its_line(self, runner, run_dir):
        def edit(lines):
            lines[20] = lines[20].rsplit(",", 1)[0]
            return lines

        self.rewrite(run_dir, edit)
        result = self.report(runner, run_dir)
        assert result.exit_code == 3
        assert "ledger.csv:21: expected 6 fields, got 5" in result.output

    def test_missing_cell_names_step_and_region(self, runner, run_dir):
        def edit(lines):
            return [ln for ln in lines if not ln.startswith("300,1,")]

        self.rewrite(run_dir, edit)
        result = self.report(runner, run_dir)
        assert result.exit_code == 6
        assert "ledger incomplete at (t=300, region=1): 0 of 2 flow records" in result.output

    def test_duplicated_row_names_step_and_region(self, runner, run_dir):
        def edit(lines):
            return lines[:30] + [lines[29]] + lines[30:]

        self.rewrite(run_dir, edit)
        t, region = (run_dir / "ledger.csv").read_text().splitlines()[29].split(",")[:2]
        result = self.report(runner, run_dir)
        assert result.exit_code == 6
        assert f"(t={t}, region={region}): 3 of 2 flow records" in result.output

    def test_invalid_utf8_is_a_format_error(self, runner, run_dir):
        path = run_dir / "ledger.csv"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] = 0xFF
        path.write_bytes(bytes(data))
        result = self.report(runner, run_dir)
        assert result.exit_code == 3
        assert "ledger.csv" in result.output

    def test_header_only_is_a_format_error(self, runner, run_dir):
        self.rewrite(run_dir, lambda lines: lines[:1])
        result = self.report(runner, run_dir)
        assert result.exit_code == 3
        assert "no records" in result.output


class TestMalformedInputs:
    """Damaged or missing input files end in their exit code, never a traceback."""

    def inputs(self, tmp_path):
        stream = generate(StreamSpec(n_regions=2, horizon=300, seed=4))
        demand, forecasts = tmp_path / "demand.csv", tmp_path / "forecast.csv"
        write_demand_csv(stream, demand)
        write_forecast_csv(forecasts, [(t, region, flow, 0.0, 20.0) for t in range(120, 300)
                                       for region in stream.region_ids for flow in FLOWS])
        return {"demand": demand, "forecast": forecasts}

    def run(self, runner, files, *extra):
        return runner.invoke(main, [
            "run", "--demand-csv", str(files["demand"]), "--forecast-csv",
            str(files["forecast"]), "--train-frac", "0.4", "--calib-frac", "0.2", *extra,
        ])

    def test_inputs_run(self, runner, tmp_path):
        result = self.run(runner, self.inputs(tmp_path), "--audit")
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("damaged", ["demand", "forecast"])
    def test_invalid_utf8_is_a_format_error(self, runner, tmp_path, damaged):
        files = self.inputs(tmp_path)
        data = bytearray(files[damaged].read_bytes())
        data[len(data) // 2] = 0xFF
        files[damaged].write_bytes(bytes(data))
        result = self.run(runner, files)
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 3
        assert f"{damaged}.csv:" in result.output

    @pytest.mark.parametrize("missing", ["demand_csv", "predictor path"])
    def test_missing_input_file_in_config_is_a_config_error(self, runner, tmp_path, missing):
        files = self.inputs(tmp_path)
        gone = tmp_path / "gone.csv"
        demand = gone if missing == "demand_csv" else files["demand"]
        forecasts = gone if missing == "predictor path" else files["forecast"]
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(f"demand_csv: {demand}\ntrain_frac: 0.4\ncalib_frac: 0.2\n"
                       f"predictor:\n  kind: file_backed\n  path: {forecasts}\n")
        result = runner.invoke(main, ["run", "--config", str(cfg)])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2
        assert str(gone) in result.output

    def test_report_without_manifest_is_not_a_run_directory(self, runner, tmp_path):
        result = runner.invoke(main, ["report", str(tmp_path)])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 3
        assert "not a run directory" in result.output

    @pytest.mark.parametrize("edit, fault", [
        (lambda text: text[:-5], "Expecting"),
        (lambda text: f"[{text}]", 'a JSON object with a "config" object'),
        (lambda text: text.replace('"config"', '"settings"'), '"config" object'),
        (lambda text: text.replace('"alpha": 0.1', '"alpha": "x"'), "target_alpha"),
    ], ids=["not-json", "list", "no-config", "alpha-not-a-number"])
    def test_malformed_manifest_is_a_format_error(self, runner, tmp_path, edit, fault):
        small_run(runner, tmp_path / "run")
        manifest = tmp_path / "run" / "manifest.json"
        manifest.write_text(edit(manifest.read_text()))
        # The manifest is checked before the ledger is read.
        (tmp_path / "run" / "ledger.csv").unlink()
        result = runner.invoke(main, ["report", str(tmp_path / "run")])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 3, result.output
        assert f"error: {manifest}: malformed manifest: " in result.output
        assert fault in result.output


class TestGapCheckMemory:
    """The demand gap check needs memory for the rows, not for the span of t."""

    @pytest.fixture
    def jump(self, tmp_path):
        # One day at t = 0 and one at t = 1000008 (day 41667): 48 rows.
        path = tmp_path / "jump.csv"
        steps = [*range(24), *range(1_000_008, 1_000_032)]
        path.write_text("t,region,inflow,outflow\n"
                        + "".join(f"{t},a,{t % 5},{t % 3}\n" for t in steps))
        return path

    def run_traced(self, runner, path, policy):
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["run", "--demand-csv", str(path),
                                          "--gap-policy", policy])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    def test_abort_names_the_first_missing_step(self, runner, jump):
        result, peak = self.run_traced(runner, jump, "abort")
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 3
        assert "gap at t=24 (missing region a)" in result.output
        assert peak < 8 * 2**20

    def test_drop_day_keeps_the_two_whole_days(self, runner, jump, caplog):
        with caplog.at_level(logging.WARNING):
            result, peak = self.run_traced(runner, jump, "drop_day")
        assert result.exit_code == 0, result.output
        assert "dropping 41666 day(s) with gaps: 1..41666" in caplog.text
        assert peak < 8 * 2**20


class TestRegionLabels:
    """Labels that only look numeric stay distinct regions end to end."""

    @pytest.mark.parametrize("labels", [("--5", "x"), ("007", "7")])
    def test_run_and_report_keep_distinct_regions(self, runner, tmp_path, labels):
        stream = generate(StreamSpec(n_regions=2, horizon=300, seed=4))
        demand = tmp_path / "demand.csv"
        write_demand_csv(DemandStream(region_ids=labels, history=stream.history), demand)
        out = tmp_path / "run"
        result = run_cli(runner, [
            "run", "--demand-csv", str(demand), "--train-frac", "0.4",
            "--calib-frac", "0.2", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        states = (out / "states.csv").read_text().splitlines()[1:]
        assert sorted(row.split(",")[0] for row in states) == sorted(labels)
        names = ("summary.csv", "daily_coverage.csv")
        before = {name: (out / name).read_bytes() for name in names}
        result = run_cli(runner, ["report", str(out)])
        assert result.exit_code == 0, result.output
        assert {name: (out / name).read_bytes() for name in names} == before


def write_config(path, **values):
    """A valid small synthetic config, with ``values`` (key -> YAML text) set on top."""
    entries = {"synthetic": "{n_regions: 3, horizon: 200, seed: 1}",
               "train_frac": "0.4", "calib_frac": "0.2", **values}
    path.write_text("".join(f"{key}: {text}\n" for key, text in entries.items()))


RUN_CONFIG = ["run", "--config", "{tmp}/exp.yaml", "--audit", "--out", "{tmp}/out"]


def synthetic(extra):
    return {"synthetic": "{n_regions: 3, horizon: 200, seed: 1, %s}" % extra}


class TestMalformedConfig:
    """A malformed setting ends in exit 2 with its message, never in a traceback."""

    @pytest.mark.parametrize("args, values", [
        pytest.param(RUN_CONFIG, {"predictor": "{kind: bogus}"}, id="predictor-kind"),
        pytest.param(RUN_CONFIG, synthetic("bogus: 2"), id="synthetic-key"),
        pytest.param(RUN_CONFIG, {"train_frac": "0.9"}, id="fractions-sum"),
        pytest.param(RUN_CONFIG, {"train_frac": "abc"}, id="fraction-text"),
        pytest.param(RUN_CONFIG, {"train_frac": ".nan"}, id="fraction-nan"),
        pytest.param(RUN_CONFIG, {"region_threshold": "abc"}, id="threshold-text"),
        pytest.param(RUN_CONFIG, {"region_threshold": ".nan"}, id="threshold-nan"),
        pytest.param(RUN_CONFIG, {"forecast_csv": "''"}, id="forecast-csv-empty"),
        pytest.param(RUN_CONFIG, {"synthetic": "null", "demand_csv": "[a.csv]"},
                     id="demand-csv-list"),
        pytest.param(RUN_CONFIG, {"clamp_nonnegative": "'false'"}, id="clamp-text"),
        pytest.param(RUN_CONFIG, {"predictor_updates": "'no'"}, id="updates-text"),
        pytest.param(RUN_CONFIG, {"predictor": "{by_hour: 'no'}"}, id="by-hour-text"),
        pytest.param(RUN_CONFIG, {"window": "2.5"}, id="window-fraction"),
        pytest.param(RUN_CONFIG, {"window": ".inf"}, id="window-inf"),
        pytest.param(RUN_CONFIG, {"seed": "1.5"}, id="seed-fraction"),
        pytest.param(RUN_CONFIG, {"seed": "-1"}, id="seed-negative"),
        pytest.param(RUN_CONFIG, synthetic("seed: 1.5"), id="synthetic-seed"),
        pytest.param(RUN_CONFIG, synthetic("sigma_frac: .nan"), id="sigma-frac-nan"),
        pytest.param(RUN_CONFIG, synthetic("shift_scale: .inf"), id="shift-scale-inf"),
        pytest.param(RUN_CONFIG, synthetic("drift_rate: .nan"), id="drift-rate-nan"),
        pytest.param(RUN_CONFIG, synthetic("dispersion: .nan"), id="dispersion-nan"),
        pytest.param(RUN_CONFIG, synthetic("regime: abrupt_shift, shift_at: 1.5"),
                     id="shift-at-fraction"),
        pytest.param(RUN_CONFIG, synthetic("scale_range: [1, .inf]"), id="scale-range-inf"),
        pytest.param(RUN_CONFIG, synthetic("base_level: [5, .inf]"), id="base-level-inf"),
        pytest.param(["run", "--regions", "0"], None, id="regions-0"),
        pytest.param(["run", "--regions", "3", "--horizon", "200", "--seed", "-1"], None,
                     id="run-seed-negative"),
        pytest.param(["generate", "--regions", "3", "--horizon", "200", "--seed", "-1",
                      "--out", "{tmp}/demand.csv"], None, id="generate-seed-negative"),
        pytest.param(["report", "{tmp}/run", "--steps-per-day", "0"], None,
                     id="report-steps-per-day-0"),
        pytest.param(["report", "{tmp}/run", "--periods", "-3"], None, id="report-periods-neg"),
        pytest.param(["report", "{tmp}/run", "--periods", "0"], None, id="report-periods-0"),
    ])
    def test_exits_with_config_code(self, runner, tmp_path, args, values):
        if values is not None:
            write_config(tmp_path / "exp.yaml", **values)
        if args[0] == "report":
            small_run(runner, tmp_path / "run")
        result = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2, result.output
        assert "error:" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("key", ["scale_range", "base_level"])
    @pytest.mark.parametrize("text", ["5", "[1, 2, 3]"])
    def test_synthetic_bounds_that_are_not_a_pair_name_the_key(self, runner, tmp_path, key,
                                                               text):
        write_config(tmp_path / "exp.yaml", **synthetic(f"{key}: {text}"))
        result = runner.invoke(main, ["run", "--config", str(tmp_path / "exp.yaml")])
        assert result.exit_code == 2, result.output
        assert f"error: {key} must be a [lo, hi] pair, got {text}" in result.output

    @pytest.mark.parametrize("key, text, recorded", [
        ("epsilon", "1e-8", 1e-08),  # PyYAML reads 1e-8, without a dot, as text
        ("periods", "2.0", 2),
        ("steps_per_day", "24.0", 24),
        ("gamma", "1", 1.0),
        ("window", "40.0", 40),
        ("train_frac", "'0.4'", 0.4),
        ("region_threshold", "'1'", 1.0),
    ])
    def test_manifest_records_values_as_checked(self, runner, tmp_path, key, text, recorded):
        write_config(tmp_path / "exp.yaml", **{key: text})
        result = run_cli(runner, ["run", "--config", str(tmp_path / "exp.yaml"),
                                  "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        text = (tmp_path / "out" / "manifest.json").read_text()
        value = json.loads(text)["config"][key]
        assert value == recorded and type(value) is type(recorded)
        assert f'"{key}": {json.dumps(recorded)}' in text
        assert run_cli(runner, ["report", str(tmp_path / "out")]).exit_code == 0
