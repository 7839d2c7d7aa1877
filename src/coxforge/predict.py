"""Predictive spatial distributions and the marginalized likelihood split.

For a shoe with contact surface C the model's intensity factorizes as
lambda_{s,a} = exp(beta_shoe_s) * exp(eta1_a(C, theta)): the shoe effect
scales every cell equally and cancels in the normalized field

    q_a = exp(eta1_a) / sum_a' exp(eta1_a'),

so where accidentals land on a shoe is determined by the contact surface
alone. The joint count likelihood then splits into a Poisson factor for
the total (with the shoe effect integrated out numerically) and a
multinomial factor for the allocation given the total.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .design import ModelSpec
from .errors import ConfigError, NumericError
from .grids import ShoeRecord
from .model import Design

log = logging.getLogger("coxforge.predict")


@dataclass(frozen=True)
class PredictiveField:
    """Normalized spatial distribution q and its shoe-free predictor."""

    q: np.ndarray        # (n_cells,), sums to 1
    eta1: np.ndarray     # (n_cells,)
    grid_shape: tuple[int, int]  # (ny, nx)

    def q_grid(self) -> np.ndarray:
        return self.q.reshape(self.grid_shape)


def predictive_q(theta_point, shoe: ShoeRecord, spec: ModelSpec) -> PredictiveField:
    """Softmax of the shoe-effect-free predictor over the shoe's cells.

    ``theta_point`` is a parameter vector laid out per the spec, with or
    without the leading per-shoe block, which cancels anyway. A fit is
    applied to records through ``crossval.score_shoes``.
    """
    theta = np.asarray(theta_point, dtype=float).reshape(-1)
    design = Design([shoe], spec)
    # the last n_total - 1 entries are the shared blocks; the one shoe
    # effect is set to 0, which adds exactly nothing to the predictor
    n_shared = design.layout.n_total - 1
    if theta.size < n_shared:
        raise ConfigError(f"theta has {theta.size} entries but the spec needs at least {n_shared}")
    eta1 = design.eta(np.concatenate(([0.0], theta[theta.size - n_shared:])))[0]

    m = eta1.max()
    if not np.isfinite(m):
        raise NumericError(f"degenerate predictive field for shoe {shoe.shoe_id!r}: "
                           "every cell has predictor -inf")
    w = np.exp(eta1 - m)
    return PredictiveField(q=w / w.sum(), eta1=eta1, grid_shape=shoe.contact.shape)


def log_multinomial(counts, q, include_coefficient: bool = False) -> float:
    """Log probability of the cell allocation: sum_a y_a log q_a.

    With ``include_coefficient`` the multinomial coefficient
    log N! - sum log y_a! is added. A positive count in a zero-probability
    cell yields -inf (flagged in the log, since it usually means the model
    assigns no mass where data fall).
    """
    y = np.asarray(counts, dtype=float).reshape(-1)
    qv = np.asarray(getattr(q, "q", q), dtype=float).reshape(-1)
    if y.shape != qv.shape:
        raise ConfigError(f"counts {y.shape} and q {qv.shape} differ in length")
    occ = y > 0
    if np.any(qv[occ] == 0.0):
        log.warning(
            "%d occupied cells carry zero predictive mass; log-probability is -inf",
            int((qv[occ] == 0.0).sum()),
        )
        return -np.inf
    out = float(y[occ] @ np.log(qv[occ]))
    if include_coefficient:
        out += float(gammaln(y.sum() + 1.0) - gammaln(y + 1.0).sum())
    return out


def poisson_marginal(
    total: int,
    lambda1: float,
    tau_s: float,
    grid_d: int = 1024,
    half_width: float = 8.0,
) -> float:
    """log P(N_s = total) with the shoe effect integrated out.

    Evaluates log of the integral of Poisson(total; e^b * lambda1) times
    the N(0, 1/tau_s) density of b by the trapezoid rule on
    b in [-half_width * sd, +half_width * sd], accumulated with
    logsumexp. The integrand decays like a squared exponential, so the
    trapezoid rule converges spectrally in grid_d.
    """
    if total < 0 or tau_s <= 0 or grid_d < 2:
        raise ConfigError("need total >= 0, tau_s > 0, grid_d >= 2")
    if lambda1 <= 0:
        return 0.0 if total == 0 else -np.inf
    sd = 1.0 / np.sqrt(tau_s)
    b = np.linspace(-half_width * sd, half_width * sd, grid_d + 1)
    step = b[1] - b[0]
    log_f = (
        total * (b + np.log(lambda1))
        - np.exp(b) * lambda1
        - gammaln(total + 1.0)
        - 0.5 * tau_s * b * b
        - 0.5 * np.log(2 * np.pi / tau_s)
    )
    log_w = np.full(b.shape, np.log(step))
    log_w[[0, -1]] -= np.log(2.0)
    return float(logsumexp(log_f + log_w))


def factorized_log_prob(
    theta, shoe: ShoeRecord, spec: ModelSpec, tau_s: float
) -> tuple[float, float]:
    """The two factors of the marginalized count likelihood for one shoe's counts.

    Returns (log Poisson part for the total with the shoe effect
    integrated out, log multinomial part for the allocation without the
    coefficient). Adding the multinomial coefficient to their sum gives
    the full marginal log probability of the count vector.
    """
    field = predictive_q(theta, shoe, spec)
    total = int(shoe.counts.sum())
    lambda1 = float(np.exp(field.eta1).sum())
    log_poisson = poisson_marginal(total, lambda1, tau_s)
    log_multi = 0.0 if total == 0 else log_multinomial(shoe.counts, field.q)
    return log_poisson, log_multi
