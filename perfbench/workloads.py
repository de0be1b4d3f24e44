"""The benchmark's workloads: their sizes, seeds, inputs and CLI commands.

Each workload is a function of (seed, size). ``materialise`` writes its inputs
with contina's own writers, ``run_args`` and ``report_args`` give the
``contina`` command lines a repetition drives, and ``config`` gives the
``ExperimentConfig`` that the same command line builds, for the check pass.

Sizes keep the shape of the paper-scale runs (region count, regime, method,
split proportions and calibration window) with shorter horizons, so that one
repetition takes a second or two and a run holds several of them. ``toy``
sizes are for the self-test only.
"""

from __future__ import annotations

import os

import numpy as np
import yaml

from contina import (
    ExperimentConfig,
    SeasonalWindowPredictor,
    StreamSpec,
    generate,
    split,
    write_demand_csv,
)
from contina.predictors import write_forecast_csv
from contina.streams import FLOWS

# Share of forecast rows written with q_lo and q_hi swapped, so the
# file-backed loader's crossing repair runs.
CROSSED_SHARE = 0.02


class Workload:
    name = ""
    default_seed = 0
    oracle = True
    # Whether the timed ``contina run`` writes a run directory (``--out``).
    writes_run_dir = False
    sizes: dict = {}

    def __init__(self, seed: int, size: str = "bench"):
        self.seed = int(seed)
        self.size_name = size
        self.size = dict(self.sizes[size])
        self.dir = os.path.join(".perfbench_work", self.name)

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def materialise(self) -> None:
        raise NotImplementedError

    def run_args(self, out=None) -> list:
        raise NotImplementedError

    def config(self) -> ExperimentConfig:
        raise NotImplementedError

    def rep_run_args(self) -> list:
        """The timed ``contina run`` of one repetition."""
        return self.run_args(out=self.path("run") if self.writes_run_dir else None)

    def rep_report_args(self) -> list:
        """The timed ``contina report`` of one repetition.

        Workloads whose run writes no run directory re-read the one the
        check pass's CLI rerun wrote for the same config.
        """
        run_dir = self.path("run") if self.writes_run_dir else self.path("rerun")
        return ["report", run_dir, "--periods", "2"]


class CsvQuickstart(Workload):
    """The README quickstart from files: demand CSV plus forecast CSV."""

    name = "csv_quickstart"
    default_seed = 7
    writes_run_dir = True
    # horizon 23000 with the shift at 3000 at paper scale.
    sizes = {
        "bench": {"regions": 20, "horizon": 2300, "shift_at": 300},
        "toy": {"regions": 5, "horizon": 460, "shift_at": 60},
    }
    train_frac = 0.087
    calib_frac = 0.0435

    def materialise(self):
        s = self.size
        spec = StreamSpec(n_regions=s["regions"], horizon=s["horizon"], seed=self.seed,
                          regime="heterogeneous", shift_at=s["shift_at"])
        stream = generate(spec)
        write_demand_csv(stream, self.path("demand.csv"))
        train, calib, deploy = split(stream, self.train_frac, self.calib_frac)
        predictor = SeasonalWindowPredictor(alpha=0.1).fit(train)
        times = np.concatenate([calib.window_times(), deploy.window_times()])
        n_cells = stream.n_regions * len(FLOWS)
        lo = np.empty((len(times), n_cells))
        hi = np.empty((len(times), n_cells))
        for i, region in enumerate(stream.region_ids):
            for j, flow in enumerate(FLOWS):
                lo[:, 2 * i + j], hi[:, 2 * i + j] = predictor.predict_series(region, flow, times)
        crossed = np.random.default_rng([self.seed, 0xC055]).random(lo.shape) < CROSSED_SHARE
        lo[crossed], hi[crossed] = hi[crossed], lo[crossed]
        write_forecast_csv(self.path("forecast.csv"), (
            (t, region, flow, lo[p, 2 * i + j], hi[p, 2 * i + j])
            for p, t in enumerate(times)
            for i, region in enumerate(stream.region_ids)
            for j, flow in enumerate(FLOWS)
        ))

    def _raw(self) -> dict:
        return {
            "demand_csv": self.path("demand.csv"),
            "forecast_csv": self.path("forecast.csv"),
            "method": "contina",
            "train_frac": self.train_frac,
            "calib_frac": self.calib_frac,
            "seed": self.seed,
        }

    def run_args(self, out=None):
        raw = self._raw()
        args = ["run", "--demand-csv", raw["demand_csv"], "--forecast-csv", raw["forecast_csv"],
                "--method", raw["method"], "--train-frac", repr(raw["train_frac"]),
                "--calib-frac", repr(raw["calib_frac"]), "--seed", str(raw["seed"])]
        return args + ["--out", out] if out else args

    def config(self):
        return ExperimentConfig.from_dict(self._raw())


class ConfigWorkload(Workload):
    """``contina run --config`` with no ``--out``: everything in memory."""

    def experiment(self) -> ExperimentConfig:
        raise NotImplementedError

    def materialise(self):
        with open(self.path("config.yaml"), "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.experiment().to_dict(), fh, sort_keys=True)

    def run_args(self, out=None):
        args = ["run", "--config", self.path("config.yaml")]
        return args + ["--out", out] if out else args

    def config(self):
        with open(self.path("config.yaml"), "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(yaml.safe_load(fh))


class KdepWide(ConfigWorkload):
    """Most regions and the widest calibration window, k-dependent noise."""

    name = "kdep_wide"
    default_seed = 11
    # train 2000, calibration window 2000, deploy 16000 at paper scale.
    sizes = {
        "bench": {"regions": 50, "train": 2000, "calib": 2000, "deploy": 2000},
        "toy": {"regions": 8, "train": 200, "calib": 200, "deploy": 200},
    }

    def experiment(self):
        s = self.size
        horizon = s["train"] + s["calib"] + s["deploy"]
        return ExperimentConfig(
            method="contina", seed=self.seed,
            train_frac=s["train"] / horizon, calib_frac=s["calib"] / horizon,
            synthetic=StreamSpec(n_regions=s["regions"], horizon=horizon, seed=self.seed,
                                 regime="k_dependent", k_lag=24),
        )


class OnlineUpdates(ConfigWorkload):
    """Per-step predictor predict/update in time order, fixed-rate ACI, clamped."""

    name = "online_updates"
    default_seed = 3
    oracle = False
    # train 1000, calibration 500, deploy 10000 at paper scale.
    sizes = {
        "bench": {"regions": 10, "train": 1000, "calib": 500, "deploy": 2500},
        "toy": {"regions": 4, "train": 200, "calib": 100, "deploy": 200},
    }

    def experiment(self):
        s = self.size
        horizon = s["train"] + s["calib"] + s["deploy"]
        return ExperimentConfig(
            method="aci_fixed", seed=self.seed, predictor_updates=True,
            clamp_nonnegative=True,
            train_frac=s["train"] / horizon, calib_frac=s["calib"] / horizon,
            synthetic=StreamSpec(n_regions=s["regions"], horizon=horizon, seed=self.seed,
                                 regime="heterogeneous"),
        )


WORKLOADS = {w.name: w for w in (CsvQuickstart, KdepWide, OnlineUpdates)}
