"""Per-shoe predictive scoring and model-comparison statistics.

A shoe's score is the average log predictive density of its accidental
locations, expressed per accidental and corrected for grid coarseness:

    m = (sum_a y_a log q_a) / N  -  log(cell area),

so values are comparable across grid resolutions (the area term converts
cell probabilities to a density over the shoe sole). Models are compared
pairwise by the median loss ratio across shoes and the geometric-mean
gain across cross-validation folds, and calibration of predicted versus
realized totals uses the concordance correlation coefficient.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grids import GridSpec

log = logging.getLogger("coxforge.metrics")


@dataclass(frozen=True)
class ShoeMetric:
    shoe_id: str
    value: float
    n_accidentals: int


@dataclass(frozen=True)
class ComparisonStats:
    """Pairwise comparison of two models' per-shoe metrics."""

    median_loss_ratio: float   # percent, R
    fold_gain: float           # percent, g
    ccc: float
    pearson: float
    scale_ratio: float         # nu = s_x / s_y
    location_shift: float      # u

    def to_json_dict(self) -> dict:
        def clean(v: float):
            return v if np.isfinite(v) else None

        return {
            "median_loss_ratio": clean(self.median_loss_ratio),
            "fold_gain": clean(self.fold_gain),
            "ccc": clean(self.ccc),
            "pearson": clean(self.pearson),
            "scale_ratio": clean(self.scale_ratio),
            "location_shift": clean(self.location_shift),
        }


def uniform_metric(spec: GridSpec) -> float:
    """Score of the cell-uniform prediction: -log(n_cells * cell_area)."""
    return float(-np.log(spec.n_cells * spec.cell_area))


def shoe_metric(counts, q, spec: GridSpec) -> float:
    """Per-accidental log predictive density, grid-coarseness corrected.

    Returns NaN for a shoe with zero accidentals — the caller excludes
    such shoes rather than scoring them.
    """
    y = np.asarray(getattr(counts, "counts", counts), dtype=float).reshape(-1)
    qv = np.asarray(getattr(q, "q", q), dtype=float).reshape(-1)
    if y.shape != qv.shape:
        raise ConfigError(f"counts {y.shape} and q {qv.shape} differ in length")
    n = y.sum()
    if n == 0:
        return float("nan")
    occ = y > 0
    with np.errstate(divide="ignore"):
        lq = np.log(qv[occ])
    return float((y[occ] @ lq) / n - np.log(spec.cell_area))


def median_loss_ratio(metrics_m1, metrics_m2) -> float:
    """R = 100 * median over shoes of exp(m1 - m2).

    Values below 100 favor the second model. Not anti-symmetric in
    general: the median shoe can differ between orderings.
    """
    a = np.asarray(metrics_m1, dtype=float)
    b = np.asarray(metrics_m2, dtype=float)
    if a.shape != b.shape:
        raise ConfigError(f"metric lists differ in length: {a.shape} vs {b.shape}")
    return float(100.0 * np.median(np.exp(a - b)))


def fold_gain(per_fold_avg_m1, per_fold_avg_m2) -> float:
    """g = 100 * exp(mean over folds of (avg_m2 - avg_m1)).

    Above 100 means the second model's fold-average metric is higher.
    """
    a = np.asarray(per_fold_avg_m1, dtype=float)
    b = np.asarray(per_fold_avg_m2, dtype=float)
    if a.shape != b.shape:
        raise ConfigError(f"fold averages differ in length: {a.shape} vs {b.shape}")
    return float(100.0 * np.exp(np.mean(b - a)))


def _near_constant(v: np.ndarray, s: float) -> bool:
    """True when the spread is at rounding level — variance is not real.

    A vector like (N*c)/N over varying N reproduces the constant c up to
    one ulp per entry; treating that as signal produces absurd scale
    ratios, so anything within ~1e-12 of relative spread counts as
    constant.
    """
    return s <= 1e-12 * max(1.0, float(np.max(np.abs(v))))


def _concordance(xv: np.ndarray, yv: np.ndarray) -> tuple[float, float, float, float]:
    """(pearson, nu, u, ccc) of two equal-length vectors.

    NaNs when fewer than two points or either input has (numerically)
    zero variance, where the statistics are undefined.
    """
    sx = xv.std(ddof=1) if xv.size > 1 else 0.0
    sy = yv.std(ddof=1) if yv.size > 1 else 0.0
    if xv.size < 2 or _near_constant(xv, sx) or _near_constant(yv, sy):
        return (float("nan"),) * 4
    rho = float(np.corrcoef(xv, yv)[0, 1])
    nu = float(sx / sy)
    u = float((xv.mean() - yv.mean()) / np.sqrt(sx * sy))
    return rho, nu, u, float(rho * 2.0 / (nu + 1.0 / nu + u * u))


def ccc(x, y) -> float:
    """Concordance correlation: Pearson rho scaled by accuracy.

    rho * 2 / (nu + 1/nu + u^2) with nu the ratio of sample standard
    deviations and u the standardized mean difference. NaN when either
    input has zero variance (or a non-finite entry).
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ConfigError("ccc wants two equal-length vectors")
    if xv.size < 2:
        raise ConfigError("ccc needs at least two points")
    c = _concordance(xv, yv)[3]
    if np.isnan(c):
        log.warning("ccc undefined: an input has (numerically) zero variance "
                    "or a non-finite entry")
    return c


def compare(
    metrics_m1, metrics_m2, per_fold_avg_m1, per_fold_avg_m2
) -> ComparisonStats:
    """Bundle the pairwise statistics for one ordered model pair."""
    rho, nu, u, c = _concordance(
        np.asarray(metrics_m1, dtype=float), np.asarray(metrics_m2, dtype=float)
    )
    return ComparisonStats(
        median_loss_ratio=median_loss_ratio(metrics_m1, metrics_m2),
        fold_gain=fold_gain(per_fold_avg_m1, per_fold_avg_m2),
        ccc=c,
        pearson=rho,
        scale_ratio=nu,
        location_shift=u,
    )
