"""Command-line interface: ``generate``, ``run``, and ``report`` subcommands.

Configuration precedence for ``run``: built-in defaults, then the YAML config
file given with --config, then explicit command-line flags. Exit codes follow
the error categories in :mod:`contina.errors` (0 on success).
"""

from __future__ import annotations

import functools
import sys

import click
import yaml

from . import metrics
from .errors import ConfigError, ContinaError
from .harness import ExperimentConfig, report_from_dir, run_replay, write_report
from .predictors import PREDICTOR_KINDS
from .streams import REGIMES, NOISES, StreamSpec, generate as generate_stream, write_demand_csv
from .tracker import METHODS


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ContinaError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(e.exit_code)

    return wrapper


@click.group()
def main():
    """Adaptive conformal prediction intervals for demand streams."""


@main.command()
@click.option("--regions", type=int, default=20, show_default=True)
@click.option("--horizon", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--regime", type=click.Choice(REGIMES), default="stationary", show_default=True)
@click.option("--noise", type=click.Choice(NOISES), default="gaussian", show_default=True)
@click.option("--shift-at", type=int, default=None, help="Step of the abrupt shift.")
@click.option("--shift-scale", type=float, default=2.0, show_default=True)
@click.option("--drift-rate", type=float, default=0.0, show_default=True)
@click.option("--scale-min", type=float, default=1.0, show_default=True,
              help="Smallest per-region shift scale (heterogeneous regime).")
@click.option("--scale-max", type=float, default=4.0, show_default=True)
@click.option("--k", "k_lag", type=int, default=1, show_default=True,
              help="Dependence window of the k_dependent regime.")
@click.option("--base-min", type=float, default=5.0, show_default=True)
@click.option("--base-max", type=float, default=25.0, show_default=True)
@click.option("--sigma-frac", type=float, default=0.25, show_default=True)
@click.option("--season-amp", type=float, default=0.0, show_default=True)
@click.option("--steps-per-day", type=int, default=24, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="Demand CSV to write.")
@_handle_errors
def generate(regions, horizon, seed, regime, noise, shift_at, shift_scale,
             drift_rate, scale_min, scale_max, k_lag, base_min, base_max,
             sigma_frac, season_amp, steps_per_day, out):
    """Write a seeded synthetic demand stream as a demand CSV."""
    try:
        spec = StreamSpec(
            n_regions=regions, horizon=horizon, seed=seed, regime=regime,
            noise=noise, shift_at=shift_at, shift_scale=shift_scale,
            drift_rate=drift_rate, scale_range=(scale_min, scale_max),
            k_lag=k_lag, base_level=(base_min, base_max), sigma_frac=sigma_frac,
            season_amp=season_amp, steps_per_day=steps_per_day,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None
    write_demand_csv(generate_stream(spec), out)
    click.echo(f"wrote {regions} regions x {horizon} steps to {out}")


_RUN_FLAGS = [
    ("method", click.Choice(METHODS)),
    ("alpha", float),
    ("gamma", float),
    ("gamma1", float),
    ("beta", float),
    ("epsilon", float),
    ("window", int),
    ("seed", int),
    ("train-frac", float),
    ("calib-frac", float),
    ("steps-per-day", int),
    ("periods", int),
    ("region-threshold", float),
    ("gap-policy", click.Choice(["abort", "drop_day"])),
    ("demand-csv", click.Path(exists=True, dir_okay=False)),
    ("forecast-csv", click.Path(exists=True, dir_okay=False)),
]

_SYNTH_FLAGS = [
    ("regions", int),
    ("horizon", int),
    ("regime", click.Choice(REGIMES)),
    ("noise", click.Choice(NOISES)),
    ("shift-at", int),
    ("shift-scale", float),
    ("drift-rate", float),
    ("k", int),
    ("season-amp", float),
]


def _run_options(fn):
    for name, kind in reversed(_RUN_FLAGS + _SYNTH_FLAGS):
        fn = click.option(f"--{name}", type=kind, default=None)(fn)
    return fn


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="YAML config file; flags override its values.")
@click.option("--predictor", type=click.Choice(PREDICTOR_KINDS), default=None,
              help="Base predictor kind.")
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="Directory for report files.")
@click.option("--audit/--no-audit", default=False,
              help="Snapshot one random step and re-derive it after the run.")
@_run_options
@_handle_errors
def run(config_path, predictor, out, audit, **flags):
    """Replay one experiment and write its reports."""
    raw: dict = {}
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{config_path}: config must be a mapping")
        raw.update(loaded)

    synth_keys = {"regions": "n_regions", "horizon": "horizon", "regime": "regime",
                  "noise": "noise", "shift-at": "shift_at", "shift-scale": "shift_scale",
                  "drift-rate": "drift_rate", "k": "k_lag", "season-amp": "season_amp"}
    synth_overrides = {}
    for name, _ in _SYNTH_FLAGS:
        v = flags.pop(name.replace("-", "_"))
        if v is not None:
            synth_overrides[synth_keys[name]] = v
    for key, value in flags.items():
        if value is not None:
            raw[key] = value
    if predictor is not None:
        pred = dict(raw.get("predictor") or {})
        pred["kind"] = predictor
        raw["predictor"] = pred
    if synth_overrides:
        synth = dict(raw.get("synthetic") or {})
        synth.update(synth_overrides)
        synth.setdefault("seed", raw.get("seed", 0))
        raw["synthetic"] = synth
    if raw.get("synthetic") and raw.get("demand_csv"):
        raise ConfigError("choose either synthetic data or a demand CSV, not both")

    config = ExperimentConfig.from_dict(raw)
    result = run_replay(config, audit=audit)
    if audit:
        from .harness import verify_audit

        if not verify_audit(result):
            raise ContinaError("audit failed: the replayed step or the final states "
                               "do not match the run's log")
        click.echo(f"audit ok at t={result.audit.t}, region={result.audit.region}")
    cov = metrics.average_coverage(result.ledger)
    min_rc = metrics.min_regional_coverage(result.ledger)
    length = metrics.mean_length(result.ledger)
    click.echo(f"cov={cov:.4f} minRC={min_rc.value:.4f} "
               f"(region {min_rc.region}) length={length:.4f}")
    if out:
        paths = write_report(result, out)
        click.echo(f"reports written to {out}")
        for name in sorted(paths):
            click.echo(f"  {name}: {paths[name]}")


@main.command()
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--steps-per-day", type=int, default=None)
@click.option("--periods", type=int, default=None)
@_handle_errors
def report(run_dir, steps_per_day, periods):
    """Recompute summary and daily-coverage files from a run directory."""
    paths = report_from_dir(run_dir, steps_per_day=steps_per_day, periods=periods)
    for name in sorted(paths):
        click.echo(f"{name}: {paths[name]}")


if __name__ == "__main__":
    main()
