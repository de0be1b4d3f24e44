"""Per-region online conformal interval tracker.

One tracker owns a region's two calibration windows (inflow, outflow) and its
adaptive state, and runs the per-step cycle: build intervals at the current
working quantile level, observe the realized demand, push the new conformity
scores, and update the working miscoverage level alpha_t.

Methods
-------
``cp``         static absolute-residual intervals around the forecast midpoint
``qcp``        static quantile-conformal intervals at level 1 - alpha
``aci_fixed``  online alpha_t with a fixed learning rate ``gamma``
``contina``    online alpha_t with the per-region adaptive rate
               gamma1 / (sqrt(v_t) + epsilon)

The tracker follows the scikit-learn estimator protocol (``fit`` seeds the
windows from calibration scores; ``get_params``/``set_params`` work as usual).

Two paths
---------
``observe`` is the specification of one step. It composes ``predict`` (each
window's ``quantile_with_rules``, a float or None, widened by
``build_interval_qcp``), ``contains``, ``conformity_score``,
``CalibrationWindow.push`` and :func:`contina.adaptation.alpha_step`, and
never calls the engine.

``observe_series`` is the engine: it runs a whole segment of steps in one
call on raw float sequences. Conformity scores depend only on forecasts and
demand, never on alpha_t, so it computes them for the segment first; the
per-step loop then inlines the window quantile, the out-of-range level rules,
the clamp, the FIFO eviction and the alpha update over plain Python lists.
Tests, ``harness.oracle_replay`` and ``harness.verify_audit`` check it
against ``observe``, bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from ._params import ParamsMixin
from .adaptation import AdaptHyperParams, alpha_step, coverage_error, learning_rate
from .errors import EmptyCalibrationError, NotFittedError
from .intervals import (
    QuantileForecast,
    build_interval_qcp,
    conformity_score,
    contains,
)
from .validation import check_bool, check_in_range, check_positive, check_positive_int
from .windows import _RANK_SLACK, CalibrationWindow

METHODS = ("cp", "qcp", "aci_fixed", "contina")


@dataclass(frozen=True)
class StepOutcome:
    """Everything one observe step produced, in object form."""

    intervals: tuple
    covered: tuple
    scores: tuple
    err: float


def conformity_scores(lo, hi, y) -> np.ndarray:
    """``conformity_score`` over arrays, bit for bit, for calibration and deployment.

    np.where keeps the builtin max's tie rule: for zeros of opposite sign
    np.maximum returns its second argument, max its first.
    """
    above = y - hi
    below = lo - y
    return np.where(below > above, below, above)


class ConformalIntervalTracker(ParamsMixin):
    """Online conformal intervals for one region's inflow/outflow pair.

    Parameters
    ----------
    method : {"cp", "qcp", "aci_fixed", "contina"}
    alpha : float
        Target miscoverage level in (0, 1).
    gamma : float
        Fixed learning rate (aci_fixed only).
    gamma1, beta, epsilon : float
        Adaptive-rate hyperparameters (contina only).
    window : int or None
        Calibration window capacity; None keeps the size of the initial
        calibration score set.
    clamp_nonnegative : bool
        Floor interval lower bounds at zero (off by default; the evaluation
        metrics are defined on unclamped intervals).
    """

    def __init__(self, method="contina", alpha=0.1, gamma=0.005, gamma1=0.005,
                 beta=0.99, epsilon=1e-8, window=None, clamp_nonnegative=False):
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {method!r}")
        self.method = method
        self.alpha = check_in_range(alpha, "alpha", 0.0, 1.0)
        self.gamma = check_positive(gamma, "gamma")
        self.gamma1 = check_positive(gamma1, "gamma1")
        self.beta = check_in_range(beta, "beta", 0.0, 1.0)
        self.epsilon = check_positive(epsilon, "epsilon")
        self.window = None if window is None else check_positive_int(window, "window")
        self.clamp_nonnegative = check_bool(clamp_nonnegative, "clamp_nonnegative")
        self.windows_ = None

    # -- fitting ---------------------------------------------------------

    def fit(self, calib_scores_in, calib_scores_out):
        """Seed the two calibration windows and reset the adaptive state."""
        scores = (np.asarray(calib_scores_in, dtype=np.float64),
                  np.asarray(calib_scores_out, dtype=np.float64))
        for flow, s in zip(("in", "out"), scores):
            if not s.size:
                raise EmptyCalibrationError(f"no calibration scores for flow {flow!r}")
        self.windows_ = tuple(
            CalibrationWindow(self.window or len(s), s) for s in scores
        )
        self.alpha_t_ = float(self.alpha)
        self.moment_ = 0.0
        self.update_sum_ = 0.0
        return self

    def _check_fitted(self):
        if self.windows_ is None:
            raise NotFittedError("tracker must be fitted with calibration scores first")

    @property
    def rate_(self) -> float:
        """Learning rate in effect for the next update (0 for static methods)."""
        self._check_fitted()
        return float(learning_rate(self.method, self.moment_, self.gamma, self._hyperparams()))

    def _hyperparams(self) -> AdaptHyperParams:
        return AdaptHyperParams(self.alpha, self.gamma1, self.beta, self.epsilon)

    # -- object-path API ---------------------------------------------------

    def _effective_pair(self, forecasts) -> tuple:
        """cp collapses the forecast band to its midpoint; others pass through."""
        if self.method == "cp":
            return tuple(QuantileForecast(f.midpoint, f.midpoint) for f in forecasts)
        return tuple(forecasts)

    def _bands(self, lo, hi):
        """``_effective_pair`` over arrays of band bounds, bit for bit."""
        if self.method == "cp":
            lo = hi = 0.5 * (lo + hi)
        return lo, hi

    def scores(self, lo, hi, y) -> np.ndarray:
        """Calibration scores of demand ``y`` against raw forecast bands (arrays)."""
        return conformity_scores(*self._bands(lo, hi), y)

    def predict(self, forecasts) -> tuple:
        """Intervals for the two flows at the current working level.

        ``forecasts`` is the (inflow, outflow) pair of QuantileForecast. The
        tracker state is not modified.
        """
        self._check_fitted()
        level = 1.0 - self.alpha_t_
        return tuple(
            build_interval_qcp(fc, win.quantile_with_rules(level),
                               clamp_nonnegative=self.clamp_nonnegative)
            for fc, win in zip(self._effective_pair(forecasts), self.windows_)
        )

    def observe(self, forecasts, ys) -> StepOutcome:
        """Full per-step cycle: predict, score both flows, adapt alpha_t.

        The object-path specification of a step, built without the segment
        engine. Both flows' scores are checked before either is pushed, so a
        non-finite score raises ValueError and changes no state.
        """
        self._check_fitted()
        intervals = self.predict(forecasts)
        covered = tuple(bool(contains(band, y)) for band, y in zip(intervals, ys))
        scores = tuple(conformity_score(y, fc)
                       for y, fc in zip(ys, self._effective_pair(forecasts)))
        for s in scores:
            if not math.isfinite(s):
                raise ValueError(f"score must be finite, got {s!r}")
        for win, s in zip(self.windows_, scores):
            win.push(s)
        err = coverage_error(covered[0], covered[1])
        alpha, moment, step = alpha_step(self.method, self.alpha_t_, self.moment_, err,
                                         self.gamma, self._hyperparams())
        self.alpha_t_, self.moment_ = float(alpha), float(moment)
        self.update_sum_ += float(step)
        return StepOutcome(intervals=intervals, covered=covered, scores=scores, err=err)

    # -- hot path ----------------------------------------------------------

    def observe_fast(self, lo1, hi1, lo2, hi2, y1, y2):
        """One step of :meth:`observe_series` on raw floats.

        Returns (covered1, length1, empty1, covered2, length2, empty2, err).
        Nothing in contina calls it, the replay included, so the level counts
        of the benchmark's tracer (``perfbench/tracing.py``), which wraps it by
        name, read 0: ``alpha_path`` gives them. ROADMAP item 1(d) deletes it.
        """
        c1, l1, e1, c2, l2, e2 = self.observe_series(
            (lo1,), (hi1,), (lo2,), (hi2,), (y1,), (y2,)
        )
        return c1[0], l1[0], e1[0], c2[0], l2[0], e2[0], 1.0 - (c1[0] + c2[0]) / 2.0

    def observe_series(self, lo1, hi1, lo2, hi2, y1, y2):
        """Run a segment of deployment steps in one call.

        Each argument is a per-step sequence (inflow band, outflow band,
        realized demand), the bands raw for every method: cp collapses them to
        their midpoints here, as :meth:`predict` does. Returns six per-step
        lists: covered1, length1, empty1, covered2, length2, empty2.
        The tracker ends in the state that running the steps one at a time
        leaves, and each step's outcome is that of the intervals predict()
        builds from the state before it; the replay audit replays a whole
        region through ``observe`` to enforce that.

        Scores are computed up front for the whole segment: they depend on
        the base forecast and the demand, never on alpha_t, and are pushed
        whether or not the emitted interval was empty. A non-finite score
        raises ValueError before any state changes.
        """
        self._check_fitted()
        segment = (lo1, hi1, lo2, hi2, y1, y2)
        if len({len(a) for a in segment}) != 1:
            raise ValueError("observe_series takes six sequences of one length")
        data = np.array(segment, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("observe_series takes six 1-D sequences")
        lo, hi = self._bands(data[0:4:2], data[1:4:2])  # (flow, step)
        scores = conformity_scores(lo, hi, data[4:])
        finite = np.isfinite(scores)
        if not finite.all():
            k = int(np.argmin(finite.all(axis=0)))
            bad = scores[0, k] if not finite[0, k] else scores[1, k]
            raise ValueError(f"score must be finite, got {float(bad)!r}")
        (lo1, lo2), (hi1, hi2), (y1, y2) = lo.tolist(), hi.tolist(), data[4:].tolist()
        s1, s2 = scores.tolist()

        n_steps = len(s1)
        # Defaults are the empty-interval outcome; only non-empty steps write.
        cov1, len1, emp1 = [False] * n_steps, [0.0] * n_steps, [True] * n_steps
        cov2, len2, emp2 = [False] * n_steps, [0.0] * n_steps, [True] * n_steps

        w1, w2 = self.windows_
        fifo1, sorted1 = w1.buffers()
        fifo2, sorted2 = w2.buffers()
        cap1, cap2 = w1.capacity, w2.capacity
        n1, n2 = len(sorted1), len(sorted2)
        clamp = self.clamp_nonnegative
        contina = self.method == "contina"
        fixed = self.method == "aci_fixed"
        target, gamma, gamma1 = self.alpha, self.gamma, self.gamma1
        beta, epsilon = self.beta, self.epsilon
        alpha_t, moment, update_sum = self.alpha_t_, self.moment_, self.update_sum_
        sqrt, ceil = math.sqrt, math.ceil

        for p in range(n_steps):
            level = 1.0 - alpha_t
            c1 = c2 = False
            if level >= 0.0:
                if level > 1.0:
                    v1 = 2.0 * sorted1[-1]
                    v2 = 2.0 * sorted2[-1]
                else:
                    m = ceil(level * n1 - _RANK_SLACK)
                    v1 = sorted1[m - 1 if m > 1 else 0]
                    m = ceil(level * n2 - _RANK_SLACK)
                    v2 = sorted2[m - 1 if m > 1 else 0]
                low = lo1[p] - v1
                up = hi1[p] + v1
                if not low > up:
                    if clamp:
                        low = low if low > 0.0 else 0.0
                        up = up if up > low else low
                    cov1[p] = c1 = low <= y1[p] <= up
                    len1[p] = up - low
                    emp1[p] = False
                low = lo2[p] - v2
                up = hi2[p] + v2
                if not low > up:
                    if clamp:
                        low = low if low > 0.0 else 0.0
                        up = up if up > low else low
                    cov2[p] = c2 = low <= y2[p] <= up
                    len2[p] = up - low
                    emp2[p] = False

            s = s1[p]
            if n1 < cap1:
                n1 += 1
            else:
                del sorted1[bisect_left(sorted1, fifo1.popleft())]
            fifo1.append(s)
            insort(sorted1, s)
            s = s2[p]
            if n2 < cap2:
                n2 += 1
            else:
                del sorted2[bisect_left(sorted2, fifo2.popleft())]
            fifo2.append(s)
            insort(sorted2, s)

            if contina:
                err = 1.0 - (c1 + c2) / 2.0
                innov = err - target
                moment = beta * moment + (1.0 - beta) * innov * innov
                delta = (gamma1 / (sqrt(moment) + epsilon)) * (target - err)
                alpha_t += delta
                update_sum += delta
            elif fixed:
                delta = gamma * (target - (1.0 - (c1 + c2) / 2.0))
                alpha_t += delta
                update_sum += delta

        self.alpha_t_, self.moment_, self.update_sum_ = alpha_t, moment, update_sum
        return cov1, len1, emp1, cov2, len2, emp2

