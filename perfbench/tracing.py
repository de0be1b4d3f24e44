"""Spans and counters taken around contina's public names, from outside.

``Tracer.install`` replaces module attributes and class methods with
wrappers and ``uninstall`` puts the originals back; contina itself is not
modified. Coarse calls get a timed span each. Calls made once per region-step
(``observe_fast``, ``CalibrationWindow.quantile``) are never timed: timing
each of them would cost more than the work they time, so their time shows up
as the self time of the span that encloses them (``run_replay``). They are
counted only with ``install(count_steps=True)``, because even counting adds
about a microsecond per call to that self time.

Spans are kept in memory as ``[name, parent, start, end]`` and written out
by ``dump``. A layer's self time is its span's duration minus that of its
child spans.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from time import perf_counter

import contina.cli
import contina.harness
import contina.metrics
from contina.metrics import RunLedger
from contina.predictors import (
    FileBackedForecasts,
    OnlinePinballLinearPredictor,
    SeasonalWindowPredictor,
)
from contina.tracker import ConformalIntervalTracker
from contina.windows import CalibrationWindow

PREDICTOR_CLASSES = (SeasonalWindowPredictor, OnlinePinballLinearPredictor, FileBackedForecasts)

# Span names whose self time is reported, and the metric each one feeds.
TIMED = {
    "cli": "cli.self_s",
    "streams.read_demand_csv": "streams.read_demand_csv_s",
    "streams.generate": "streams.generate_s",
    "predictors.load": "predictors.load_s",
    "predictors.fit": "predictors.fit_s",
    "predictors.predict_series": "predictors.predict_series_s",
    "predictors.predict": "predictors.predict_s",
    "predictors.update": "predictors.update_s",
    "tracker.fit": "tracker.fit_s",
    "harness.run_replay": "harness.replay_loop_s",
    "harness.write_report": "harness.write_report_s",
    "harness.report_from_dir": "harness.report_from_dir_s",
    "harness.read_ledger_csv": "harness.read_ledger_csv_s",
    "metrics.headline": "metrics.headline_s",
    "metrics.daily": "metrics.daily_s",
}
# Span names whose call count is reported.
CALLS = {
    "predictors.predict_series": "predictors.predict_series_calls",
    "predictors.predict": "predictors.predict_calls",
    "predictors.update": "predictors.update_calls",
}
# Counters that depend only on the inputs and the algorithm; they must repeat
# exactly between repetitions of the same code.
DETERMINISTIC = (
    "tracker.observe_fast_calls",
    "tracker.inflated_steps",
    "tracker.empty_steps",
    "windows.quantile_calls",
    "metrics.validate_complete_calls",
    "predictors.crossings",
    "streams.dropped_regions",
    "streams.rows_read",
    "harness.ledger_rows",
    "harness.report_bytes",
    "region_steps",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []
        self._saved = []
        self.last = ([], Counter())

    def reset(self):
        """Start a new repetition; the previous one's spans stay for ``dump``."""
        self.last = (self.spans, self.counts)
        self.spans = []
        self.counts = Counter()

    # -- wrappers --------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a timed span; ``after(result)`` runs once it has ended."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, open_ = tracer.spans, tracer._open
            idx = len(spans)
            spans.append([name, open_[-1] if open_ else -1, perf_counter(), None])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = perf_counter()
                open_.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _observe_fast(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(tracker, *args):
            counts = tracer.counts
            counts["tracker.observe_fast_calls"] += 1
            level = 1.0 - tracker.alpha_t_
            if level > 1.0:
                counts["tracker.inflated_steps"] += 1
            elif level < 0.0:
                counts["tracker.empty_steps"] += 1
            return fn(tracker, *args)

        return wrapper

    def _counted(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks ----------------------------------------------------

    def _after_run_replay(self, result):
        self.counts["predictors.crossings"] += result.crossings
        self.counts["streams.dropped_regions"] += len(result.dropped_regions)
        self.counts["harness.ledger_rows"] += len(result.ledger.t)
        self.counts["region_steps"] += result.ledger.n_regions * result.ledger.horizon

    def _after_read_demand_csv(self, stream):
        # Rows kept after ingest; equal to the rows read when no day is dropped.
        self.counts["streams.rows_read"] += stream.history.shape[0] * stream.history.shape[2]

    def _after_write_report(self, paths):
        self.counts["harness.report_bytes"] += sum(os.path.getsize(p) for p in paths.values())

    # -- install / uninstall --------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, count_steps=False):
        h, cli, m = contina.harness, contina.cli, contina.metrics
        self._patch(h, "read_demand_csv", self.span(
            "streams.read_demand_csv", h.read_demand_csv, self._after_read_demand_csv))
        self._patch(h, "generate", self.span("streams.generate", h.generate))
        self._patch(h, "make_predictor", self.span("predictors.load", h.make_predictor))
        self._patch(h, "read_ledger_csv", self.span("harness.read_ledger_csv", h.read_ledger_csv))
        self._patch(cli, "run_replay", self.span(
            "harness.run_replay", cli.run_replay, self._after_run_replay))
        self._patch(cli, "write_report", self.span(
            "harness.write_report", cli.write_report, self._after_write_report))
        self._patch(cli, "report_from_dir", self.span(
            "harness.report_from_dir", cli.report_from_dir))
        for cls in PREDICTOR_CLASSES:
            for method in ("fit", "predict_series", "predict", "update"):
                self._patch(cls, method, self.span(f"predictors.{method}", getattr(cls, method)))
        self._patch(ConformalIntervalTracker, "fit",
                    self.span("tracker.fit", ConformalIntervalTracker.fit))
        if count_steps:
            self._patch(ConformalIntervalTracker, "observe_fast",
                        self._observe_fast(ConformalIntervalTracker.observe_fast))
            self._patch(CalibrationWindow, "quantile",
                        self._counted("windows.quantile_calls", CalibrationWindow.quantile))
        self._patch(RunLedger, "validate_complete",
                    self._counted("metrics.validate_complete_calls", RunLedger.validate_complete))
        for fn in ("average_coverage", "min_regional_coverage", "mean_length", "empty_rate"):
            self._patch(m, fn, self.span("metrics.headline", getattr(m, fn)))
        self._patch(m, "daily_regional_coverage",
                    self.span("metrics.daily", m.daily_regional_coverage))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Self times, call counts and counters of the spans recorded so far."""
        self_s = dict.fromkeys(TIMED, 0.0)
        calls = Counter()
        for name, parent, start, end in self.spans:
            dur = end - start
            self_s[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        out = {metric: self_s[name] for name, metric in TIMED.items()}
        out.update({metric: calls[name] for name, metric in CALLS.items()})
        out.update({key: self.counts[key] for key in DETERMINISTIC})
        return out

    def dump(self, path):
        """Write the last finished repetition's spans and counters."""
        spans, counts = self.last
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": dict(counts)}, fh)
