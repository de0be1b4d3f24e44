"""Config validation maps bad hyperparameters to the config error category."""

import pytest

from contina.errors import ConfigError
from contina.harness import ExperimentConfig
from contina.streams import StreamSpec


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
