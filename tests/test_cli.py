"""CLI tests: subcommands, config/flag precedence, exit codes."""

import json

import pytest
from click.testing import CliRunner

from contina.cli import main
from contina.streams import DemandStream, StreamSpec, generate, write_demand_csv


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
