"""Per-region online updates of the working miscoverage level alpha_t.

Two update rules are provided:

* fixed rate:     alpha' = alpha + gamma * (target - err)
* adaptive rate:  v' = beta * v + (1 - beta) * (err - target)^2
                  alpha' = alpha - gamma1 / (sqrt(v') + epsilon) * (err - target)

The adaptive rule refreshes the second-moment accumulator v with the current
step's error *before* the alpha step; that ordering is part of the contract.
State fields may be scalars or numpy arrays of independent trajectories: the
arithmetic is elementwise either way, so bulk invariant checks exercise the
same code path as the scalar engine.

``alpha_drift_bounds`` gives the envelope the adaptive rule can never leave:
with k = min(1, (0.5 - a)^2 / a^2, (1 - a)^2 / a^2) and
B = gamma1 / (a * sqrt((1 - beta) * k) + epsilon), alpha_t stays within
[-B, 1 + B] for all t. At a = 0.5 the envelope degenerates (k = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .validation import check_in_range, check_positive


@dataclass(frozen=True)
class AdaptHyperParams:
    """Hyperparameters of the online alpha updates.

    Parameters
    ----------
    target_alpha : float
        Target miscoverage level in (0, 1); 0.1 aims at 90% coverage.
    gamma1 : float
        Base learning rate of the adaptive rule.
    beta : float
        Exponential decay of the second-moment accumulator, in (0, 1).
    epsilon : float
        Guard against division by zero in the adaptive rate.
    """

    target_alpha: float = 0.1
    gamma1: float = 0.005
    beta: float = 0.99
    epsilon: float = 1e-8

    def __post_init__(self):
        check_in_range(self.target_alpha, "target_alpha", 0.0, 1.0, inclusive=False)
        check_positive(self.gamma1, "gamma1")
        check_in_range(self.beta, "beta", 0.0, 1.0, inclusive=False)
        check_positive(self.epsilon, "epsilon")


@dataclass(frozen=True)
class RegionAdaptState:
    """One region's adaptive state: working alpha and second moment.

    ``alpha`` may drift outside [0, 1]; the interval builder's out-of-range
    quantile rules absorb that. ``moment`` stays in [0, 1) for any sequence of
    admissible errors. Fields may be numpy arrays for bulk simulation.
    """

    region_id: object
    alpha: float
    moment: float = 0.0


class DriftBounds(NamedTuple):
    lower: float
    upper: float
    k: float


def coverage_error(hit_inflow, hit_outflow):
    """Fraction of a region's two flows missed this step: 0, 0.5 or 1."""
    return 1.0 - (hit_inflow + hit_outflow) / 2.0


def update_alpha_fixed(
    state: RegionAdaptState, err, gamma: float, hp: AdaptHyperParams
) -> RegionAdaptState:
    """Fixed-rate update; the second moment is left untouched."""
    return replace(state, alpha=state.alpha + gamma * (hp.target_alpha - err))


def update_moment(state: RegionAdaptState, err, hp: AdaptHyperParams) -> RegionAdaptState:
    """Decay the second moment toward the squared error innovation."""
    innov = err - hp.target_alpha
    return replace(state, moment=hp.beta * state.moment + (1.0 - hp.beta) * innov * innov)


def adaptive_rate(moment, hp: AdaptHyperParams):
    """Per-step learning rate gamma1 / (sqrt(moment) + epsilon)."""
    return hp.gamma1 / (np.sqrt(moment) + hp.epsilon)


def update_alpha_adaptive(
    state: RegionAdaptState, err, hp: AdaptHyperParams
) -> RegionAdaptState:
    """Adaptive-rate update: refresh the moment, then step alpha.

    Returns a new state; identical inputs produce bit-identical outputs.
    """
    refreshed = update_moment(state, err, hp)
    innov = err - hp.target_alpha
    alpha = state.alpha - adaptive_rate(refreshed.moment, hp) * innov
    return replace(refreshed, alpha=alpha)


def alpha_drift_bounds(hp: AdaptHyperParams) -> DriftBounds:
    """Envelope [-B, 1 + B] that adaptive updates can never push alpha out of.

    B = gamma1 / (target * sqrt((1 - beta) * k) + epsilon) with
    k = min(1, (0.5 - target)^2 / target^2, (1 - target)^2 / target^2).
    At target 0.5, k = 0 and the envelope degenerates to gamma1 / epsilon.
    """
    a = hp.target_alpha
    k = min(1.0, (0.5 - a) ** 2 / a**2, (1.0 - a) ** 2 / a**2)
    bound = hp.gamma1 / (a * np.sqrt((1.0 - hp.beta) * k) + hp.epsilon)
    return DriftBounds(lower=-bound, upper=1.0 + bound, k=k)
