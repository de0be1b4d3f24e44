"""Adaptive conformal prediction intervals for multivariate demand streams."""

__version__ = "0.1.0"

from .adaptation import AdaptHyperParams, alpha_drift_bounds, alpha_path, alpha_step, coverage_error
from .errors import (
    ConfigError,
    ContinaError,
    DataFormatError,
    EmptyCalibrationError,
    LedgerError,
    MissingForecastError,
    NotFittedError,
)
from .harness import (
    ExperimentConfig,
    RunResult,
    ingest_csv,
    report_from_dir,
    run_replay,
    verify_audit,
    write_report,
)
from .intervals import (
    PredictionInterval,
    QuantileForecast,
    build_interval_qcp,
    conformity_score,
    contains,
    interval_length,
)
from .metrics import (
    BoundParams,
    RunLedger,
    average_coverage,
    coverage_gap_constant,
    mean_length,
    min_regional_coverage,
    worst_region_bound,
)
from .predictors import (
    FileBackedForecasts,
    OnlinePinballLinearPredictor,
    PredictorSpec,
    SeasonalWindowPredictor,
    make_predictor,
)
from .streams import (
    DemandStream,
    Observation,
    StreamSpec,
    generate,
    read_demand_csv,
    region_filter,
    split,
    write_demand_csv,
)
from .tracker import ConformalIntervalTracker, StepOutcome
from .windows import CalibrationWindow, quantile_rank

__all__ = [
    "AdaptHyperParams",
    "BoundParams",
    "CalibrationWindow",
    "ConfigError",
    "ConformalIntervalTracker",
    "ContinaError",
    "DataFormatError",
    "DemandStream",
    "EmptyCalibrationError",
    "ExperimentConfig",
    "FileBackedForecasts",
    "LedgerError",
    "MissingForecastError",
    "NotFittedError",
    "Observation",
    "OnlinePinballLinearPredictor",
    "PredictionInterval",
    "PredictorSpec",
    "QuantileForecast",
    "RunLedger",
    "RunResult",
    "SeasonalWindowPredictor",
    "StepOutcome",
    "StreamSpec",
    "alpha_drift_bounds",
    "alpha_path",
    "alpha_step",
    "average_coverage",
    "build_interval_qcp",
    "conformity_score",
    "contains",
    "coverage_error",
    "coverage_gap_constant",
    "generate",
    "ingest_csv",
    "interval_length",
    "make_predictor",
    "mean_length",
    "min_regional_coverage",
    "quantile_rank",
    "read_demand_csv",
    "region_filter",
    "report_from_dir",
    "run_replay",
    "split",
    "verify_audit",
    "worst_region_bound",
    "write_demand_csv",
    "write_report",
]
