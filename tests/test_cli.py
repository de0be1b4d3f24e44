"""CLI tests: subcommands, config/flag precedence, exit codes."""

import json
import logging
import re
import tracemalloc
from dataclasses import fields

import pytest
from click.testing import CliRunner

from contina.cli import main
from contina.predictors import PREDICTOR_KINDS, write_forecast_csv
from contina.streams import (
    FLOWS, GAP_POLICIES, NOISES, REGIMES, DemandStream, StreamSpec, generate, write_demand_csv,
)
from contina.tracker import METHODS


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

    def test_out_in_a_missing_directory_exits_with_config_code(self, runner, tmp_path):
        out = tmp_path / "missing_dir" / "g.csv"
        result = runner.invoke(main, ["generate", "--regions", "2", "--horizon", "50",
                                      "--out", str(out)])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2
        assert result.output == f"error: {out}: No such file or directory\n"

    def test_flag_defaults_are_the_stream_spec_defaults(self):
        flags = {p.name: p.default for p in main.commands["generate"].params}
        spec = {f.name: f.default for f in fields(StreamSpec)}
        for name in ("regime", "noise", "shift_at", "shift_scale", "drift_rate", "k_lag",
                     "sigma_frac", "season_amp", "steps_per_day"):
            assert flags[name] == spec[name], name
        assert (flags["scale_min"], flags["scale_max"]) == spec["scale_range"]
        assert (flags["base_min"], flags["base_max"]) == spec["base_level"]


# Each flag of ``run``, with the name of its click type and its choices.
RUN_FLAGS = {
    "--config": ("Path", None), "--out": ("Path", None), "--audit": ("BoolParamType", None),
    "--method": ("Choice", METHODS), "--predictor": ("Choice", PREDICTOR_KINDS),
    "--gap-policy": ("Choice", GAP_POLICIES), "--regime": ("Choice", REGIMES),
    "--noise": ("Choice", NOISES),
    **{f"--{name}": ("FloatParamType", None) for name in (
        "alpha", "gamma", "gamma1", "beta", "epsilon", "train-frac", "calib-frac",
        "region-threshold", "shift-scale", "drift-rate", "season-amp")},
    **{f"--{name}": ("IntParamType", None) for name in (
        "window", "seed", "steps-per-day", "periods", "regions", "horizon", "shift-at", "k")},
    "--demand-csv": ("Path", None), "--forecast-csv": ("Path", None),
}


class TestRun:
    def test_help_lists_every_flag_with_its_type(self, runner):
        params = main.commands["run"].params
        assert {p.opts[0]: (type(p.type).__name__, getattr(p.type, "choices", None))
                for p in params} == RUN_FLAGS
        shown = re.findall(r"^  (--[\w-]+)", run_cli(runner, ["run", "--help"]).output, re.M)
        assert sorted(shown) == sorted([*RUN_FLAGS, "--help"])

    @pytest.mark.parametrize("flag, key", [("--demand-csv", "demand_csv"),
                                           ("--forecast-csv", "forecast_csv")])
    @pytest.mark.parametrize("name, fault", [("nope.csv", "does not exist"),
                                             ("", "is a directory")])
    def test_input_file_flag_without_a_file_is_a_config_error(self, runner, tmp_path, flag,
                                                              key, name, fault):
        path = tmp_path / name
        args = ["--regions", "2", "--horizon", "300"] if key == "forecast_csv" else []
        result = runner.invoke(main, ["run", flag, str(path), *args])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2
        assert result.output == f"error: {key}: input file '{path}' {fault}\n"

    @pytest.mark.parametrize("steps_per_day", ["24", "12"])
    def test_generated_csv_replays_as_the_inline_stream(self, runner, tmp_path, steps_per_day):
        stream = ["--regions", "3", "--horizon", "480", "--seed", "7", "--season-amp", "0.5",
                  "--steps-per-day", steps_per_day]
        run = ["--train-frac", "0.4", "--calib-frac", "0.2", "--steps-per-day", steps_per_day]
        demand = tmp_path / "demand.csv"
        assert run_cli(runner, ["generate", *stream, "--out", str(demand)]).exit_code == 0
        result = run_cli(runner, ["run", "--demand-csv", str(demand), "--seed", "7", *run,
                                  "--out", str(tmp_path / "csv")])
        assert result.exit_code == 0, result.output
        result = run_cli(runner, ["run", *stream, *run, "--out", str(tmp_path / "inline")])
        assert result.exit_code == 0, result.output
        for name in ("ledger.csv", "summary.csv", "daily_coverage.csv", "states.csv",
                     "ledger.bin"):
            assert (tmp_path / "csv" / name).read_bytes() == \
                (tmp_path / "inline" / name).read_bytes(), name

    def test_synthetic_seed_defaults_to_the_run_seed(self, runner, tmp_path):
        ledgers = []
        for i, seed in enumerate(["", ", seed: 5"]):
            write_config(tmp_path / "exp.yaml", seed="5",
                         synthetic="{n_regions: 3, horizon: 200%s}" % seed)
            out = tmp_path / f"run{i}"
            result = run_cli(runner, ["run", "--config", str(tmp_path / "exp.yaml"),
                                      "--out", str(out)])
            assert result.exit_code == 0, result.output
            assert json.loads((out / "manifest.json").read_text())["config"]["synthetic"][
                "seed"] == 5
            ledgers.append((out / "ledger.csv").read_bytes())
        assert ledgers[0] == ledgers[1]

    def test_out_under_a_file_exits_before_the_replay(self, runner, tmp_path, monkeypatch):
        (tmp_path / "some_file").write_text("")
        out = tmp_path / "some_file" / "sub"

        def no_replay(*args, **kwargs):
            raise AssertionError("replayed before --out was checked")

        monkeypatch.setattr("contina.cli.run_replay", no_replay)
        result = runner.invoke(main, ["run", "--regions", "2", "--horizon", "300",
                                      "--out", str(out)])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2
        assert result.output == f"error: {out}: Not a directory\n"

    def test_unwritable_report_file_exits_with_config_code(self, runner, tmp_path):
        out = tmp_path / "run"
        (out / "ledger.csv").mkdir(parents=True)
        result = runner.invoke(main, ["run", "--regions", "2", "--horizon", "300",
                                      "--out", str(out)])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == f"error: {out / 'ledger.csv'}: Is a directory"

    def test_os_error_without_a_path_is_not_an_out_error(self, runner, tmp_path, monkeypatch):
        def lost_share(result, out_dir):
            raise ChildProcessError("a share ended with exit status 1 and no result")

        monkeypatch.setattr("contina.cli.write_report", lost_share)
        result = runner.invoke(main, ["run", "--regions", "2", "--horizon", "300",
                                      "--out", str(tmp_path / "run")])
        assert isinstance(result.exception, ChildProcessError)
        assert "error:" not in result.output

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

    def test_manifest_synthetic_section_without_seed_is_read(self, runner, tmp_path):
        small_run(runner, tmp_path / "run")
        manifest = tmp_path / "run" / "manifest.json"
        data = json.loads(manifest.read_text())
        del data["config"]["synthetic"]["seed"]
        manifest.write_text(json.dumps(data))
        before = (tmp_path / "run" / "summary.csv").read_bytes()
        assert run_cli(runner, ["report", str(tmp_path / "run")]).exit_code == 0
        assert (tmp_path / "run" / "summary.csv").read_bytes() == before

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

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_periods_past_the_horizon(self, runner, tmp_path, command):
        # 10**12 periods of 160 deployment steps: 160 one-step periods and the average.
        out = tmp_path / "run"
        periods = ["--periods", str(10**12)]
        result = run_cli(runner, [
            "run", "--regions", "2", "--horizon", "400", "--seed", "8",
            "--train-frac", "0.4", "--calib-frac", "0.2", "--out", str(out),
            *(periods if command == "run" else []),
        ])
        if command == "report":
            result = run_cli(runner, ["report", str(out), *periods])
        assert result.exit_code == 0
        rows = [ln.split(",") for ln in (out / "summary.csv").read_text().splitlines()[1:]]
        assert [row[3] for row in rows] == ["1"] * 160 + ["160"]
        assert [row[0] for row in rows[-2:]] == ["P1000000000000", "AVG"]


def small_run(runner, out):
    result = run_cli(runner, [
        "run", "--regions", "3", "--horizon", "400", "--seed", "8",
        "--train-frac", "0.4", "--calib-frac", "0.2", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output


class TestMalformedLedger:
    """A damaged ledger.csv ends in exit 3 with its line or exit 6 with its cell.

    The run directory keeps its ledger.bin, whose recorded hash the damage
    breaks, so ``report`` parses the damaged ledger.csv.
    """

    @pytest.fixture
    def run_dir(self, runner, tmp_path):
        out = tmp_path / "run"
        small_run(runner, out)
        assert (out / "ledger.bin").is_file()
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

    def test_unclosed_quote_names_the_line_it_opens_on(self, runner, run_dir):
        def edit(lines):
            t, rest = lines[2].split(",", 1)
            lines[2] = f'{t},"{rest}'
            return lines

        self.rewrite(run_dir, edit)
        result = self.report(runner, run_dir)
        assert result.exit_code == 3
        assert "ledger.csv:3: expected 6 fields, got 2" in result.output

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

    @pytest.mark.parametrize("lost, fault", [
        ("region", "the ledger's region at position 1 is 2, manifest.json's 1 (2 and 3 regions)"),
        ("step", "the ledger holds 159 deployment steps, manifest.json 160"),
    ])
    def test_ledger_that_differs_from_the_manifest_is_a_ledger_error(self, runner, run_dir,
                                                                      lost, fault):
        # Without region 1's rows, or the last step's, the rest is a complete grid:
        # only the manifest's regions and deploy_steps tell it apart.
        def edit(lines):
            last = lines[-1].split(",")[0]
            return [ln for ln in lines if (ln.split(",")[1] != "1" if lost == "region"
                                           else ln.split(",")[0] != last)]

        self.rewrite(run_dir, edit)
        result = self.report(runner, run_dir)
        assert result.exit_code == 6
        assert result.output == f"error: {run_dir}: {fault}\n"

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

    @pytest.mark.parametrize("missing", ["demand_csv", pytest.param("predictor.path",
                                                                    id="predictor path"),
                                         "forecast_csv"])
    def test_missing_input_file_in_config_is_a_config_error(self, runner, tmp_path, missing):
        files = self.inputs(tmp_path)
        gone = tmp_path / "gone.csv"
        demand = gone if missing == "demand_csv" else files["demand"]
        forecasts = files["forecast"] if missing == "demand_csv" else gone
        source = (f"forecast_csv: {forecasts}\n" if missing == "forecast_csv" else
                  f"predictor:\n  kind: file_backed\n  path: {forecasts}\n")
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(f"demand_csv: {demand}\ntrain_frac: 0.4\ncalib_frac: 0.2\n{source}")
        result = runner.invoke(main, ["run", "--config", str(cfg)])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2
        assert f"error: {missing}: input file '{gone}' does not exist" in result.output

    def test_report_without_manifest_is_not_a_run_directory(self, runner, tmp_path):
        result = runner.invoke(main, ["report", str(tmp_path)])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 3
        assert "not a run directory" in result.output

    @pytest.mark.parametrize("edit, fault", [
        (lambda text: text[:-5], "Expecting"),
        (lambda text: f"[{text}]", 'a JSON object with a "config" object'),
        (lambda text: text.replace('"config"', '"settings"'), '"config" object'),
        (lambda text: text.replace('"alpha": 0.1', '"alpha": "x"'), "alpha must be a number"),
        (lambda text: text.replace('"alpha": 0.1', '"alpha": null'),
         "alpha must be a number, got None"),
        (lambda text: json.dumps({**json.loads(text), "regions": "0,1,2"}), '"regions" list'),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "deploy_steps"}),
         "deploy_steps must be an integer >= 1, got None"),
        (lambda text: json.dumps({**json.loads(text), "deploy_steps": "160"}),
         "deploy_steps must be an integer >= 1, got '160'"),
    ], ids=["not-json", "list", "no-config", "alpha-not-a-number", "alpha-null", "regions-text",
            "no-deploy-steps", "deploy-steps-text"])
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

# An online predictor whose step size is text and whose epoch count is a float.
ONLINE_TEXT = "{kind: online_pinball_linear, step_size: '0.1', epochs: 2.0}"


def synthetic(extra):
    return {"synthetic": "{n_regions: 3, horizon: 200, seed: 1, %s}" % extra}


BIG = str(10**30)
GENERATE = ["--regions", "3", "--horizon", "200"]  # click keeps the last value of a flag


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
        pytest.param(RUN_CONFIG, synthetic("k_lag: abc"), id="k-lag-text"),
        pytest.param(RUN_CONFIG, synthetic("k_lag: 1.5"), id="k-lag-fraction"),
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

    @pytest.mark.parametrize("args, values, message", [
        pytest.param(RUN_CONFIG, {"predictor": "{bogus: 2}"}, "unknown predictor keys: ['bogus']",
                     id="predictor-unknown"),
        pytest.param(RUN_CONFIG, {"synthetic": "[1, 2]"},
                     "synthetic must be a mapping, got [1, 2]", id="synthetic-list"),
        pytest.param(RUN_CONFIG, {"synthetic": "{n_regions: 2}"},
                     "missing synthetic keys: ['horizon']", id="synthetic-missing"),
        pytest.param(RUN_CONFIG, {"1": "2", "bogus": "3"}, "unknown config keys: [1, 'bogus']",
                     id="config-int-key"),
        pytest.param(["run", "--k", "0"], None, "missing synthetic keys: ['n_regions', 'horizon']",
                     id="flag-without-regions"),
        pytest.param(["run", "--config", "{tmp}/exp.yaml", "--predictor", "seasonal_window"],
                     {"predictor": "[1, 2]"}, "predictor must be a mapping, got [1, 2]",
                     id="predictor-flag-on-a-list"),
        pytest.param(["run", "--config", "{tmp}/exp.yaml", "--regions", "2"],
                     {"synthetic": "abc"}, "synthetic must be a mapping, got 'abc'",
                     id="regions-flag-on-text"),
        pytest.param(["run", "--config", "{tmp}/exp.yaml", "--predictor", "seasonal_window"],
                     {"predictor": "null"}, "predictor must be a mapping, got None",
                     id="predictor-flag-on-null"),
        pytest.param(["run", "--config", "{tmp}/exp.yaml", "--regions", "2"],
                     {"synthetic": "null", "demand_csv": "demand.csv"},
                     "synthetic must be a mapping, got None", id="regions-flag-on-null"),
    ])
    def test_malformed_sections_name_the_section_and_the_key(self, runner, tmp_path, args,
                                                             values, message):
        if values is not None:
            write_config(tmp_path / "exp.yaml", **values)
        result = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2, result.output
        assert f"error: {message}\n" in result.output

    @pytest.mark.parametrize("key, value, message", [
        ("predictor", {"bogus": 2}, "unknown predictor keys: ['bogus']"),
        ("synthetic", [1, 2], "synthetic must be a mapping, got [1, 2]"),
        ("synthetic", {"n_regions": 2}, "missing synthetic keys: ['horizon']"),
        ("predictor", None, "predictor must be a mapping, got None"),
    ], ids=["predictor-unknown", "synthetic-list", "synthetic-missing", "predictor-null"])
    def test_malformed_manifest_sections_name_the_section_and_the_key(self, runner, tmp_path,
                                                                      key, value, message):
        small_run(runner, tmp_path / "run")
        manifest = tmp_path / "run" / "manifest.json"
        data = json.loads(manifest.read_text())
        data["config"][key] = value
        manifest.write_text(json.dumps(data))
        result = runner.invoke(main, ["report", str(tmp_path / "run")])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 3, result.output
        assert f"error: {manifest}: malformed manifest: {message}\n" in result.output

    @pytest.mark.parametrize("args, values, key", [
        pytest.param(RUN_CONFIG, {"steps_per_day": BIG}, "steps_per_day", id="steps-per-day"),
        pytest.param(RUN_CONFIG, synthetic(f"steps_per_day: {BIG}"), "steps_per_day",
                     id="synthetic-steps-per-day"),
        pytest.param(RUN_CONFIG, {"synthetic": f"{{n_regions: {BIG}, horizon: 200, seed: 1}}"},
                     "n_regions", id="synthetic-n-regions"),
        pytest.param(RUN_CONFIG, {"synthetic": f"{{n_regions: 3, horizon: {BIG}, seed: 1}}"},
                     "horizon", id="synthetic-horizon"),
        pytest.param(["run", "--regions", "3", "--horizon", "200", "--steps-per-day", BIG], None,
                     "steps_per_day", id="run-steps-per-day"),
        pytest.param(["run", "--regions", "3", "--horizon", "200", "--periods", BIG,
                      "--out", "{tmp}/out"], None, "periods", id="run-periods"),
        *(pytest.param(["generate", *GENERATE, flag, BIG, "--out", "{tmp}/demand.csv"], None,
                       key, id=f"generate{flag}")
          for flag, key in (("--regions", "n_regions"), ("--horizon", "horizon"),
                            ("--steps-per-day", "steps_per_day"), ("--k", "k_lag"))),
        pytest.param(["report", "{tmp}/run", "--periods", BIG], None, "periods",
                     id="report-periods"),
        pytest.param(["report", "{tmp}/run", "--steps-per-day", BIG], None, "steps_per_day",
                     id="report-steps-per-day"),
    ])
    def test_oversized_integers_name_the_key(self, runner, tmp_path, args, values, key):
        # 10**30 is past what numpy can index, so it is refused before numpy sees it.
        if values is not None:
            write_config(tmp_path / "exp.yaml", **values)
        if args[0] == "report":
            small_run(runner, tmp_path / "run")
        result = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2, result.output
        assert f"error: {key} must be at most 9223372036854775807, got {BIG}" in result.output

    @pytest.mark.parametrize("values, key, shown", [
        ({"synthetic": "null", "demand_csv": "0"}, "demand_csv", "0"),
        ({"forecast_csv": BIG}, "forecast_csv", BIG),
        ({"forecast_csv": "1.5"}, "forecast_csv", "1.5"),
        ({"predictor": "{kind: file_backed, path: [a.csv]}"}, "predictor.path", "['a.csv']"),
    ], ids=["demand-csv-int", "forecast-csv-big", "forecast-csv-float", "predictor-path-list"])
    def test_path_settings_that_are_not_text_name_the_key(self, runner, tmp_path, values, key,
                                                          shown):
        # os.path.isfile(0) asks about file descriptor 0, which can be a regular file.
        write_config(tmp_path / "exp.yaml", **values)
        result = runner.invoke(main, ["run", "--config", str(tmp_path / "exp.yaml")])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2, result.output
        assert f"error: {key} must be a file path, got {shown}" in result.output

    @pytest.mark.parametrize("key, text", [
        ("seed", "true"), ("window", "yes"), ("periods", "true"),
        ("synthetic", "{n_regions: true, horizon: 200, seed: 1}"),
    ])
    def test_boolean_integer_settings_name_the_key(self, runner, tmp_path, key, text):
        # YAML reads true and yes as booleans, which equal 1 but count nothing.
        write_config(tmp_path / "exp.yaml", **{key: text})
        result = runner.invoke(main, ["run", "--config", str(tmp_path / "exp.yaml")])
        assert result.exit_code == 2, result.output
        name = "n_regions" if key == "synthetic" else key
        assert f"error: {name} must be an integer >= " in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("key, message", [
        ("k_lag", "must be an integer >= 1, got 'abc'"),
        ("season_amp", "must be a number, got 'abc'"),
    ])
    def test_synthetic_text_settings_name_the_key(self, runner, tmp_path, key, message):
        write_config(tmp_path / "exp.yaml", **synthetic(f"{key}: abc"))
        result = runner.invoke(main, ["run", "--config", str(tmp_path / "exp.yaml")])
        assert result.exit_code == 2, result.output
        assert f"error: {key} {message}" in result.output

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
        ("predictor.step_size", ONLINE_TEXT, 0.1),
        ("predictor.epochs", ONLINE_TEXT, 2),
        ("predictor.window_len", "{window_len: 24.0}", 24),
        ("synthetic.k_lag", "{n_regions: 3, horizon: 200, seed: 1, regime: k_dependent, "
                            "k_lag: 2.0}", 2),
        ("synthetic.season_amp", "{n_regions: 3, horizon: 200, seed: 1, season_amp: '0.5'}",
         0.5),
    ])
    def test_manifest_records_values_as_checked(self, runner, tmp_path, key, text, recorded):
        section, _, name = key.rpartition(".")  # "predictor.epochs" is a nested key
        write_config(tmp_path / "exp.yaml", **{section or name: text})
        result = run_cli(runner, ["run", "--config", str(tmp_path / "exp.yaml"),
                                  "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        text = (tmp_path / "out" / "manifest.json").read_text()
        config = json.loads(text)["config"]
        value = config[section][name] if section else config[name]
        assert value == recorded and type(value) is type(recorded)
        assert f'"{name}": {json.dumps(recorded)}' in text
        assert run_cli(runner, ["report", str(tmp_path / "out")]).exit_code == 0
