"""Config validation maps bad hyperparameters to the config error category."""

import re

import numpy as np
import pytest

from contina.errors import ConfigError
from contina.harness import ExperimentConfig
from contina.streams import StreamSpec
from contina.validation import MAX_SIZE, check_positive_int


def base(**kw):
    return ExperimentConfig(synthetic=StreamSpec(2, 100, 0), **kw)


@pytest.mark.parametrize(
    "kw",
    [
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"gamma": -0.1},
        {"gamma1": 0.0},
        {"beta": 1.0},
        {"epsilon": 0.0},
        {"window": 0},
        {"periods": 0},
        {"steps_per_day": 0},
        {"region_threshold": -1.0},
        {"filter_mode": "sometimes"},
        {"gap_policy": "ignore"},
    ],
)
def test_bad_values_raise_config_error(kw):
    with pytest.raises(ConfigError):
        base(**kw).validate()


def test_valid_config_passes():
    base().validate()


SYNTHETIC = {"n_regions": 2, "horizon": 100, "seed": 0}


@pytest.mark.parametrize("d, key", [
    ({"synthetic": SYNTHETIC, "seed": True}, "seed"),
    ({"synthetic": SYNTHETIC, "window": True}, "window"),
    ({"synthetic": SYNTHETIC, "periods": True}, "periods"),
    ({"synthetic": {**SYNTHETIC, "n_regions": True}}, "n_regions"),
    ({"synthetic": {**SYNTHETIC, "seed": False}}, "seed"),
    ({"synthetic": SYNTHETIC, "seed": np.True_}, "seed"),
])
def test_boolean_integer_settings_raise_config_error(d, key):
    # True == 1 and False == 0, but a boolean is no count, seed or size.
    with pytest.raises(ConfigError, match=rf"^{key} must be an integer"):
        ExperimentConfig.from_dict(d).validate()


@pytest.mark.parametrize("d, key", [
    ({"synthetic": SYNTHETIC, "gamma": True}, "gamma"),
    ({"synthetic": SYNTHETIC, "gamma1": True}, "gamma1"),
    ({"synthetic": SYNTHETIC, "epsilon": True}, "epsilon"),
    ({"synthetic": SYNTHETIC, "predictor": {"step_size": True}}, "step_size"),
    ({"synthetic": {**SYNTHETIC, "sigma_frac": True}}, "sigma_frac"),
    ({"synthetic": SYNTHETIC, "gamma": np.True_}, "gamma"),
    ({"synthetic": SYNTHETIC, "region_threshold": False}, "region_threshold"),
])
def test_boolean_float_settings_raise_config_error(d, key):
    # float(True) == 1.0, but a boolean is no rate, size or level.
    with pytest.raises(ConfigError, match=rf"^{key} must be a number, got "):
        ExperimentConfig.from_dict(d).validate()


@pytest.mark.parametrize("d, key", [
    ({"synthetic": SYNTHETIC, "window": 10**30}, "window"),
    ({"synthetic": SYNTHETIC, "periods": MAX_SIZE + 1}, "periods"),
    ({"synthetic": {**SYNTHETIC, "k_lag": 10**30}}, "k_lag"),
    ({"synthetic": SYNTHETIC, "predictor": {"epochs": 10**30}}, "epochs"),
])
def test_counts_past_what_numpy_can_index_raise_config_error(d, key):
    with pytest.raises(ConfigError, match=rf"^{key} must be at most {MAX_SIZE}, got "):
        ExperimentConfig.from_dict(d).validate()


def test_counts_up_to_what_numpy_can_index_pass_the_check():
    assert check_positive_int(MAX_SIZE, "periods") == MAX_SIZE == np.iinfo(np.intp).max
    # A seed is no count or size: SeedSequence takes any non-negative int.
    assert ExperimentConfig.from_dict({"synthetic": SYNTHETIC, "seed": 10**30}).validate()


@pytest.mark.parametrize("key, message", [
    ("method", "method must be one of ('cp', 'qcp', 'aci_fixed', 'contina'), got None"),
    ("alpha", "alpha must be a number, got None"),
    ("gamma", "gamma must be a number, got None"),
    ("clamp_nonnegative", "clamp_nonnegative must be true or false, got None"),
    ("seed", "seed must be an integer >= 0, got None"),
    ("periods", "periods must be an integer >= 1, got None"),
    ("train_frac", "train_frac must be a number, got None"),
    ("gap_policy", "gap_policy must be one of ('abort', 'drop_day'), got None"),
])
def test_null_settings_are_refused_by_their_own_check(key, message):
    # null stands for the default only where the default is None.
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict({"synthetic": SYNTHETIC, key: None}).validate()


@pytest.mark.parametrize("top, spec, want", [
    ({}, {}, (0, 24)),
    ({"seed": 4, "steps_per_day": 12}, {}, (4, 12)),
    ({"seed": 4, "steps_per_day": 12}, {"seed": 9, "steps_per_day": 6}, (9, 6)),
], ids=["defaults", "the-run-s", "the-section-s"])
def test_synthetic_seed_and_day_length_default_to_the_run_s(top, spec, want):
    config = ExperimentConfig.from_dict({**top, "synthetic": {"n_regions": 2, "horizon": 100,
                                                              **spec}})
    assert (config.synthetic.seed, config.synthetic.steps_per_day) == want


def test_null_settings_whose_default_is_none_pass():
    config = ExperimentConfig.from_dict({
        "synthetic": {**SYNTHETIC, "shift_at": None}, "window": None, "demand_csv": None,
        "forecast_csv": None, "predictor": {"path": None}}).validate()
    assert config == base()
    config = ExperimentConfig.from_dict({"synthetic": None, "demand_csv": "demand.csv"})
    assert config.validate().synthetic is None  # validate reads no file


@pytest.mark.parametrize("d, message", [
    ({"synthetic": SYNTHETIC, "predictor": {"bogus": 2}}, "unknown predictor keys: ['bogus']"),
    ({"synthetic": [1, 2]}, "synthetic must be a mapping, got [1, 2]"),
    ({"synthetic": {"n_regions": 2}}, "missing synthetic keys: ['horizon']"),
    ({"synthetic": {**SYNTHETIC, 1: 2, "zz": 3}}, "unknown synthetic keys: [1, 'zz']"),
    ({"synthetic": SYNTHETIC, "predictor": "global"}, "predictor must be a mapping, got 'global'"),
    ({"synthetic": SYNTHETIC, "predictor": None}, "predictor must be a mapping, got None"),
    ({"synthetic": SYNTHETIC, 1: 2, "bogus": 3}, "unknown config keys: [1, 'bogus']"),
    ([("synthetic", SYNTHETIC)], "config must be a mapping, got [('synthetic', "),
], ids=["predictor-unknown", "synthetic-list", "synthetic-missing", "synthetic-int-key",
        "predictor-text", "predictor-null", "config-int-key", "config-list"])
def test_malformed_sections_name_the_section_and_the_key(d, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        ExperimentConfig.from_dict(d)
