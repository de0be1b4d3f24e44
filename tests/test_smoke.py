"""Whole ``contina`` runs at the real share floors, checked byte for byte.

Each command goes through click's ``CliRunner`` in-process. At two usable
CPUs the CSV reader, the region replay and the ledger writer each fork a
share once their per-share floor is met twice over; at one usable CPU each
works in one pass. Both write the same bytes to every run file, and
``contina report`` rewrites its files unchanged.
"""

import json
import os

import pytest
from click.testing import CliRunner

import test_harness
from contina.cli import main
from contina.streams import DemandStream, StreamSpec, generate, region_sort_key, write_demand_csv
from fake_cpus import forks, refuse_fork, use_cpus  # noqa: F401 (forks is a fixture)

RUN_FILES = ("ledger.csv", "summary.csv", "daily_coverage.csv", "states.csv", "manifest.json",
             "ledger.bin")
REPORT_FILES = ("summary.csv", "daily_coverage.csv")


def contina(*args):
    """``contina *args`` in-process; any exception but SystemExit propagates."""
    return CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)


def read(out, names=RUN_FILES):
    return {name: (out / name).read_bytes() for name in names}


def generated_demand(path):
    # A body of two 512 KiB floors, 20 000 deployment region-steps (four
    # 4 500-step floors) and a 40 000-row ledger (five 8 000-row floors).
    assert contina("generate", "--regions", 40, "--horizon", 2000, "--seed", 2,
                   "--out", path).exit_code == 0
    return list(range(40))


def wide_label_demand(path):
    # Labels of 43 to 105 characters, past the reader's first label width, in
    # a file of two 512 KiB floors: each share widens the label column itself.
    stream = generate(StreamSpec(n_regions=20, horizon=1500, seed=3))
    labels = tuple(f"district-{i:02d}-" + "north-east-quarter-of-the-city-" * (1 + i % 3)
                   for i in range(20))
    write_demand_csv(DemandStream(region_ids=labels, history=stream.history), path)
    assert path.stat().st_size > 1 << 20
    return sorted(labels, key=region_sort_key)


@pytest.mark.parametrize("demand, forked", [
    (generated_demand, ["read_csv_table", "_replay_regions", "_write_ledger"]),
    (wide_label_demand, ["read_csv_table"]),
], ids=["generated", "wide-labels"])
def test_one_and_two_cpus_write_the_same_bytes(tmp_path, monkeypatch, forks, demand, forked):
    labels = demand(tmp_path / "demand.csv")
    runs = {}
    for k in (2, 1):
        use_cpus(monkeypatch, k)
        if k == 1:
            assert forks == forked  # one fork per fork user at two CPUs, none by report
            monkeypatch.setattr(os, "fork", refuse_fork)
        out = tmp_path / f"cpus{k}"
        result = contina("run", "--demand-csv", tmp_path / "demand.csv", "--out", out)
        assert result.exit_code == 0, result.output
        runs[k] = read(out)
        assert json.loads(runs[k]["manifest.json"])["regions"] == labels
        assert contina("report", out).exit_code == 0
        assert read(out, REPORT_FILES) == {name: runs[k][name] for name in REPORT_FILES}
    assert runs[1] == runs[2]


@pytest.mark.parametrize("method", ["contina", "aci_fixed", "cp"])
def test_file_backed_audited_runs_repeat_their_bytes(tmp_path, monkeypatch, method):
    demand, forecasts = test_harness.TestFileBackedRuns().make_inputs(
        tmp_path, n_regions=3, crossed=True)
    runs = []
    for k in (2, 1):
        use_cpus(monkeypatch, k)
        out = tmp_path / f"cpus{k}"
        result = contina("run", "--demand-csv", demand, "--forecast-csv", forecasts,
                         "--train-frac", "0.4", "--calib-frac", "0.2", "--method", method,
                         "--audit", "--out", out)
        assert result.exit_code == 0, result.output
        assert "audit ok on region " in result.output
        runs.append(read(out))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("updates", ["false", "true"])
def test_cold_hour_without_fallback_exits_naming_it(tmp_path, updates):
    # 15 training steps leave hour 15 without history: the first calibration
    # step asks for it.
    demand = tmp_path / "demand.csv"
    assert contina("generate", "--regions", 3, "--horizon", 300, "--seed", 1,
                   "--out", demand).exit_code == 0
    config = tmp_path / "cold.yaml"
    config.write_text(f"demand_csv: {demand}\ntrain_frac: 0.05\n"
                      f"predictor_updates: {updates}\npredictor: {{fallback: error}}\n")
    result = contina("run", "--config", config)
    assert result.exit_code == 1
    assert result.output == ("error: no history for (region=0, flow=in, hour=15) "
                             "and fallback is disabled\n")
