"""A sweep of malformed settings and damaged input files through ``contina``.

Every run goes through click's ``CliRunner`` in-process and must end in an
exit code of the README's table, with no exception but ``SystemExit``
escaping. A setting refused with exit 2 must be named in the message. A null
must be refused so, unless the setting's default is None. The settings are
the leaves of ``ExperimentConfig(...).to_dict()``, so a new setting is swept
without an edit here; the files are small demand, forecast and ledger files
with seeded byte mutations.
"""

import math

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from contina import streams
from contina.cli import main
from contina.harness import ExperimentConfig
from contina.predictors import write_forecast_csv
from contina.streams import FLOWS, DemandStream, StreamSpec, generate, write_demand_csv
from fake_cpus import forks, use_cpus  # noqa: F401 (forks is a fixture)

EXIT_CODES = {0, 1, 2, 3, 4, 5, 6}  # the README's exit-code table

# One value of each malformed kind: a boolean, text, null, a list, a mapping,
# a non-finite and a negative number, and an integer past what numpy can index.
BAD_VALUES = [True, "abc", None, [1, 2], {"a": 1}, math.nan, -1, 10**30]

BASE = ExperimentConfig(synthetic=StreamSpec(n_regions=2, horizon=120, seed=1),
                        train_frac=0.4, calib_frac=0.2)
SECTIONS = ("predictor", "synthetic")
# The settings that may be null, those whose default is None; any other null exits 2.
NULLABLE = {(None, "window"), (None, "synthetic"), (None, "demand_csv"), (None, "forecast_csv"),
            ("predictor", "path"), ("synthetic", "shift_at")}
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)  # libyaml's, where it is built


def leaves(config):
    """``(section, key)`` of every setting in ``config.to_dict()``; the sections are leaves too."""
    d = config.to_dict()
    out = [(None, key) for key in d]
    return out + [(section, key) for section in SECTIONS for key in d[section]]


def checked(result, key=None):
    """Assert that ``result`` exited with a documented code, named ``key`` at exit 2."""
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception))
    assert result.exit_code in EXIT_CODES, result.output
    assert "Traceback" not in result.output
    if key is not None and result.exit_code == 2:
        assert key in result.output, result.output
    return result.exit_code


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.mark.parametrize("section, key", leaves(BASE),
                         ids=[".".join(filter(None, leaf)) for leaf in leaves(BASE)])
def test_malformed_values_of_a_setting(runner, tmp_path, section, key):
    path = tmp_path / "exp.yaml"
    for value in BAD_VALUES:
        d = BASE.to_dict()
        (d[section] if section else d)[key] = value
        path.write_text(yaml.dump(d, Dumper=DUMPER))
        code = checked(runner.invoke(main, ["run", "--config", str(path)]), key)
        if value is None and (section, key) not in NULLABLE:
            assert code == 2, (section, key)


def mutate(data: bytes, rng) -> bytes:
    """One seeded damage: a flipped byte, an inserted quote, comma or line
    break, a deleted span, or two lines swapped, repeated or cut off."""
    kind = int(rng.integers(8))
    at = int(rng.integers(len(data)))
    if kind == 0:
        return data[:at] + bytes([int(rng.integers(256))]) + data[at + 1:]
    if kind in (1, 2, 3):
        return data[:at] + (b'"', b",", b"\n")[kind - 1] + data[at:]
    if kind == 4:
        return data[:at] + data[at + int(rng.integers(1, 40)):]
    lines = data.splitlines(keepends=True)
    i, j = sorted(int(k) for k in rng.integers(1, len(lines), size=2))
    if kind == 5:
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 6:
        lines.insert(i, lines[j])
    else:
        del lines[i:]
    return b"".join(lines)


LABELS = (0, "a,b", 'say "hi"')  # labels that need quoting


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, runner):
    """A small demand file, its forecast file, and a run directory made from them."""
    work = tmp_path_factory.mktemp("inputs")
    stream = generate(StreamSpec(n_regions=len(LABELS), horizon=120, seed=2))
    write_demand_csv(DemandStream(region_ids=LABELS, history=stream.history),
                     work / "demand.csv")
    write_forecast_csv(work / "forecast.csv", [(t, region, flow, 1.0, 30.0) for t in range(48, 120)
                                               for region in LABELS for flow in FLOWS])
    files = {name: (work / f"{name}.csv").read_bytes() for name in ("demand", "forecast")}
    result = runner.invoke(main, [*run_args(work), "--out", str(work / "run")])
    assert result.exit_code == 0, result.output
    files["ledger"] = (work / "run" / "ledger.csv").read_bytes()
    return work, files


def run_args(work):
    return ["run", "--demand-csv", str(work / "demand.csv"), "--forecast-csv",
            str(work / "forecast.csv"), "--train-frac", "0.4", "--calib-frac", "0.2"]


@pytest.mark.parametrize("name", ["demand", "forecast", "ledger"])
def test_seeded_byte_mutations(runner, inputs, name):
    work, files = inputs
    rng = np.random.default_rng(["demand", "forecast", "ledger"].index(name))
    target = work / "run" / "ledger.csv" if name == "ledger" else work / f"{name}.csv"
    args = ["report", str(work / "run")] if name == "ledger" else run_args(work)
    codes = set()
    try:
        for _ in range(40):
            target.write_bytes(mutate(files[name], rng))
            codes.add(checked(runner.invoke(main, args)))
    finally:
        target.write_bytes(files[name])
    assert 3 in codes


def test_unclosed_quote_in_a_file_of_two_share_floors(runner, tmp_path, monkeypatch, forks):
    # A body of two SHARE_MIN_BYTES floors would be read in two shares on two
    # CPUs, but a quote byte could hide a line break, so it is read in one pass.
    # The quote opened three quarters in runs on past csv's field limit.
    use_cpus(monkeypatch, 2)
    rows = 2 * streams.SHARE_MIN_BYTES // 12
    quoted = rows * 3 // 4
    lines = [b"%d,a,%d,%d\r\n" % (t, t % 7, t % 5) for t in range(rows)]
    lines[quoted] = b'%d,"a,1,2\r\n' % quoted
    path = tmp_path / "demand.csv"
    path.write_bytes(b"t,region,inflow,outflow\r\n" + b"".join(lines))
    assert path.stat().st_size > 2 * streams.SHARE_MIN_BYTES
    result = runner.invoke(main, ["run", "--demand-csv", str(path)])
    assert checked(result) == 3
    assert f"error: {path}:{quoted + 2}: field larger than field limit (131072)" in result.output
    assert not forks
