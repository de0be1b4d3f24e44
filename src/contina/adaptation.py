"""Per-region online updates of the working miscoverage level alpha_t.

:func:`alpha_step` is the one specification of the update, per method:

* ``aci_fixed``:  alpha' = alpha + gamma * (target - err)
* ``contina``:    v' = beta * v + (1 - beta) * (err - target)^2
                  alpha' = alpha - gamma1 / (sqrt(v') + epsilon) * (err - target)
* ``cp``, ``qcp``: alpha and v stay as they are

The adaptive rule refreshes the second-moment accumulator v with the current
step's error *before* the alpha step; that ordering is part of the contract.
:func:`learning_rate` gives each method's rate. Both take scalars or numpy
arrays of independent regions: the arithmetic is elementwise either way, so
the state audit and the bulk invariant checks run the same code as a
tracker's ``observe``.

``alpha_drift_bounds`` gives the envelope the adaptive rule can never leave:
with k = min(1, (0.5 - a)^2 / a^2, (1 - a)^2 / a^2) and
B = gamma1 / (a * sqrt((1 - beta) * k) + epsilon), alpha_t stays within
[-B, 1 + B] for all t. At a = 0.5 the envelope degenerates (k = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
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
        check_in_range(self.target_alpha, "target_alpha", 0.0, 1.0)
        check_positive(self.gamma1, "gamma1")
        check_in_range(self.beta, "beta", 0.0, 1.0)
        check_positive(self.epsilon, "epsilon")


class DriftBounds(NamedTuple):
    lower: float
    upper: float
    k: float


def coverage_error(hit_inflow, hit_outflow):
    """Fraction of a region's two flows missed this step: 0, 0.5 or 1."""
    return 1.0 - (hit_inflow + hit_outflow) / 2.0


def learning_rate(method, moment, gamma, hp: AdaptHyperParams):
    """``method``'s learning rate for the next update of alpha_t.

    contina's adaptive gamma1 / (sqrt(moment) + epsilon), aci_fixed's fixed
    ``gamma``, and 0 for cp and qcp. ``moment`` (finite) may hold an array of
    independent regions; the rate then has its shape.
    """
    if method == "contina":
        return hp.gamma1 / (np.sqrt(moment) + hp.epsilon)
    return (gamma if method == "aci_fixed" else 0.0) + 0.0 * moment


def alpha_step(method, alpha, moment, err, gamma, hp: AdaptHyperParams):
    """``method``'s update of alpha_t: (alpha, moment, step).

    contina refreshes the moment with this step's error, then steps alpha at
    the adaptive rate; aci_fixed steps alpha at ``gamma`` and keeps the
    moment; cp and qcp keep both. The step, which the tracker adds to its
    update sum, is rate * (target - err), computed on its own as the engine
    computes it, not as a difference of alphas. ``alpha``, ``moment`` and
    ``err`` may hold arrays of independent regions.
    """
    if method == "contina":
        innov = err - hp.target_alpha
        moment = hp.beta * moment + (1.0 - hp.beta) * innov * innov
        rate = learning_rate(method, moment, gamma, hp)
        return alpha - rate * innov, moment, rate * (hp.target_alpha - err)
    if method == "aci_fixed":
        step = gamma * (hp.target_alpha - err)
        return alpha + step, moment, step
    return alpha, moment, 0.0 * err


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
