"""Laplace-approximate posterior inference for the latent Gaussian model.

The posterior over the latent vector given precisions psi is approximated
by a Gaussian at its mode; the mode is found by damped Newton iteration
restricted to the sum-to-zero subspaces of the spatial-field blocks.

The Newton iteration has one stopping rule and no setting. With ``g`` the
projected gradient and ``delta`` the constrained Newton step, half the
Newton decrement ``g'delta / 2`` is the ascent the quadratic model still
predicts; it is affine-invariant (Boyd & Vandenberghe, *Convex
Optimization*, §9.5.1), and the iteration has converged once it is at
most ``DECREMENT_RTOL`` times max(1, |value|, sum log y!), the size of
the log-joint's largest terms (at large counts y eta and log y! cancel),
so the rule does not depend on the scale of the data. The backtracking
line search accepts a step that loses at most ``ROUNDING_RTOL`` times
that, the log-joint's rounding level (the slack of Hager & Zhang's
approximate Wolfe conditions), since near the mode the true ascent falls
below what the log-joint can resolve.

Each iterate factors the negative Hessian ``H`` — positive definite on
the whole space, since the shoe and fixed-effect priors are proper — in
the arrow form the model gives it in (:class:`coxforge.model.ArrowMatrix`).
The coordinates of the constrained blocks form a field block ``F``, which
the model orders to a narrow band and which is factored by banded
Cholesky; the remaining coordinates (shoe and fixed effects) form a small
dense border, factored through its Schur complement ``B - C'F^-1 C``.
The sum-to-zero rows ``A`` are then imposed by conditioning by kriging
(Rue & Held 2005, §2.3.3): with ``V = H^-1 A'``, ``M = A V`` and ``g``
the gradient projected onto A x = 0,

    step           delta_c = H^-1 g - V M^-1 A H^-1 g
    log-determinant of H on the subspace
                   log det H + log det M - log det(AA')
    covariance     H^-1 - V M^-1 V'

so one factorization per iterate yields the step, the constrained
log-determinant and, at the mode, the marginal variances. The field
block's share of diag(H^-1), diag(F^-1), comes by selected inversion: a
block Takahashi recursion on the band factor (Takahashi, Fagan & Chin
1973; Rue & Martino 2007, J. Statist. Plann. Inference 137, §2), as INLA
computes its marginal variances, in O(n_f kd^2) time for a field block of
n_f coordinates and band width kd.

The hyperparameter posterior uses the standard Laplace identity
p(psi|y) ∝ p(y|th*) p(th*|psi) p(psi) / N(th*; th*, H^-1), maximized by
a damped Newton ascent in log-precision space whose gradient and Hessian
come from central differences of that log posterior, as R-INLA finds its
mode (Rue, Martino & Chopin 2009, JRSS-B 71, §6.5) (empirical Bayes), or
summed over a centered grid with log-scale Jacobian weights. Both score
a point by :func:`_score`.

The search runs over the free log-precisions x, and every routine takes
a point as that vector. Any object with the
:class:`coxforge.model.ShoeModel` likelihood/prior surface (``n_total``,
``n_free``, ``constraint_blocks``, ``log_y_factorial``, ``lik_parts``,
``prior_at``, ``prior_tangents``, and optionally ``cold_start``) can be
driven by these routines; only :func:`fit` asks a ``ShoeModel`` for
more, to name the precisions in its result. ``prior_at(x)`` gives the
prior precision Sigma with the log prior's terms in x alone, and the
engine treats Sigma as opaque: ``find_mode`` takes it once per mode
search and only passes it back to ``lik_parts(theta, sigma)``, which
returns the log-joint less its psi-only terms, its gradient, and the
negative Hessian as ``ArrowMatrix``, factored as given. ``find_mode``
evaluates each point once, so a line-search candidate's value comes with
the gradient and negative Hessian that the next iteration steps from.
The test suite uses small synthetic problems with closed-form answers,
whose prior precisions are dense matrices, through the same entry
points.
"""

from __future__ import annotations

import itertools
import logging
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .design import ModelSpec, index_to_string
from .errors import ConfigError, InputDataError, NumericError
from .grids import GridSpec, ShoeRecord
from .model import ArrowMatrix, Hyperparams, PriorSpec, ShoeModel, ThetaLayout
from .util import check_threads, parallel_map

log = logging.getLogger("coxforge.inference")

# the empirical-Bayes Newton search over the free log-precisions: the
# finite-difference step, the predicted ascent in nats at which it stops,
# the longest Newton step it tries first, and the box its steps are clipped
# to. The central gradient errs by h^2 f'''/6, which moves the point where it
# vanishes by about that over f''; h = 0.01 keeps this near 2e-5 in
# log-precision on the two-precision oracle toy (7e-5 at h = 0.02)
SEARCH_H = 0.01
SEARCH_TOL = 1e-6
SEARCH_MAX_STEP = 6.0
SEARCH_BOUNDS = (-12.0, 12.0)
# eigenvalues of the negative Hessian below this fraction of the largest
# are raised to it, so that every step is an ascent direction
SEARCH_EIG_FLOOR = 1e-6
# a search converges in under ten iterations; fifty only end one that does not
SEARCH_MAX_ITER = 50

# the Newton stopping rule: the largest power of ten at which every oracle
# test passes (a scalar-toy iterate 1.9e-9 from its root has 3.1e-18)
DECREMENT_RTOL = 1e-18
# the line search's slack: the log-joint sums ~1e5 (shoe, cell) terms, so
# its rounding error is some 1e-14 of its size, not one machine epsilon
ROUNDING_RTOL = 1e-12
# Newton converges quadratically near the mode; 50 iterations only end a
# search that is not converging
MAX_NEWTON_ITER = 50
# 30 halvings shrink a step below 1e-9 of its length
MAX_HALVINGS = 30

# why a hyperparameter candidate could not be scored
REJECT_REASONS = ("unconverged", "factorization", "nonfinite")


class _Reject(NumericError):
    """A mode search that cannot score its psi, with one of REJECT_REASONS.

    Any other NumericError met while scoring a candidate (a non-finite
    intensity or log-determinant of the prior) counts as ``nonfinite``.
    An ``unconverged`` reject carries its search's ``mode``, whose work
    counts all the same.
    """

    def __init__(self, reason: str, message: str, mode: ModeResult | None = None):
        super().__init__(message)
        self.reason = reason
        self.mode = mode


@dataclass
class ModeResult:
    """Outcome of constrained mode finding for one psi.

    ``value`` is the psi-free part of the log-joint at the mode
    (log-likelihood minus half the prior quadratic form); ``log_det_H``
    the log-determinant of the negative Hessian restricted to the
    constraint subspace. ``decrement`` is the relative half-decrement
    g'delta / (2 max(1, |value|, sum log y!)) of the last iterate tested
    and ``grad_norm`` its projected-gradient norm; both only report.
    ``factorizations`` and ``halvings`` count the work the search did;
    ``_lu`` holds the factorization at the mode (None in the modes
    :func:`grid_posterior` returns).
    """

    theta_star: np.ndarray
    value: float
    log_det_H: float
    grad_norm: float
    iterations: int
    converged: bool
    decrement: float
    factorizations: int
    halvings: int
    _lu: _Factor | None = field(repr=False)


def _center_blocks(x: np.ndarray, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Subtract each block's mean in place: the projection onto A x = 0."""
    for blk in blocks:
        x[blk] -= x[blk].mean()
    return x


# ---------------------------------------------------------------------------
# the negative-Hessian factorization


class _Factor:
    """Cholesky factor of the SPD ``H`` in arrow form, with kriging on ``A``.

    ``H`` permuted to [field, border] is [[F, C], [C', B]] = L L' with
    L = [[Lf, 0], [W', Ls]], Lf the banded Cholesky factor of F,
    W = Lf^-1 C and Ls the dense Cholesky factor of B - W'W. Lf and W
    overwrite H's band and C where those are column-major, as
    ``ShoeModel.lik_parts`` makes them, so the factorization spends H.
    The sum-to-zero rows are one dense 0/1 matrix ``A``, and every
    factorization and triangular solve, the kriging's included, is a raw
    LAPACK call. The marginal variances take diag(F^-1) by selected
    inversion of Lf, a block Takahashi recursion (:meth:`_field_variances`).
    """

    def __init__(self, H: ArrowMatrix, blocks: Sequence[np.ndarray]):
        self.field, self.border = H.field, H.border
        nf, nb = self.nf, self.nb = H.field.size, H.border.size
        self.n = nf + nb
        log_det = 0.0
        W, S = H.C, H.B
        if nf:
            self.Lf, info = lapack.dpbtrf(H.band, lower=1, overwrite_ab=1)
            if info != 0:
                raise NumericError(f"field block is not positive definite (minor {info})")
            log_det += 2.0 * float(np.log(self.Lf[0]).sum())
            if nb:
                W = lapack.dtbtrs(self.Lf, W, uplo="L", overwrite_b=1)[0]
                S = S - W.T @ W
        self.W = W
        if nb:
            self.Ls, info = lapack.dpotrf(S, lower=1, clean=1)
            if info != 0:
                raise NumericError(f"border Schur complement is not positive definite (minor {info})")
            log_det += 2.0 * float(np.log(np.diag(self.Ls)).sum())

        # conditioning by kriging on the block-sum rows; A has disjoint
        # indicator rows, so log det(AA') is the sum of log block sizes
        self.blocks = blocks
        if self.blocks:
            self.A = np.zeros((len(blocks), self.n))
            for row, blk in zip(self.A, blocks):
                row[blk] = 1.0
            self.V = self.solve(self.A.T)
            self.Lm, info = lapack.dpotrf(self.A @ self.V, lower=1)
            if info != 0:
                raise NumericError(f"A H^-1 A' is not positive definite (minor {info})")
            log_det += 2.0 * float(np.log(np.diag(self.Lm)).sum())
            log_det -= float(sum(np.log(len(b)) for b in self.blocks))
        if not np.isfinite(log_det):
            raise NumericError("non-finite log-determinant of the negative Hessian")
        self.log_det = log_det

    def _field_solve(self, X: np.ndarray, trans: str = "N") -> np.ndarray:
        """Lf^-1 X (or Lf'^-1 X)."""
        return lapack.dtbtrs(self.Lf, X, uplo="L", trans=trans)[0]

    def _border_solve(self, X: np.ndarray, trans: int = 0) -> np.ndarray:
        """Ls^-1 X (or Ls'^-1 X)."""
        return lapack.dtrtrs(self.Ls, X, lower=1, trans=trans)[0]

    def solve(self, R: np.ndarray) -> np.ndarray:
        """H^-1 R for R of shape (n, k)."""
        out = np.empty(R.shape)
        zf = self._field_solve(R[self.field]) if self.nf else R[self.field]
        xb = R[self.border]
        if self.nb:
            zb = self._border_solve(xb - self.W.T @ zf)
            xb = self._border_solve(zb, trans=1)
            out[self.border] = xb
        if self.nf:
            out[self.field] = self._field_solve(zf - self.W @ xb, trans="T")
        return out

    def step(self, g: np.ndarray) -> np.ndarray:
        """The Newton step on A delta = 0: H^-1 g - V M^-1 A H^-1 g."""
        d = self.solve(g.reshape(-1, 1))
        if self.blocks:
            d -= self.V @ lapack.dpotrs(self.Lm, self.A @ d, lower=1)[0]
        return d[:, 0]

    def _field_variances(self) -> np.ndarray:
        """diag(F^-1) by a block Takahashi recursion on the band factor Lf.

        Cut into blocks of b = max(kd, 1) columns, with kd Lf's band width,
        Lf is block lower bidiagonal for any band: diagonal blocks D_k and,
        below them, blocks E_k. Since Lf' Z = Lf^-1 for Z = F^-1 and Lf^-1
        is lower triangular, the diagonal blocks of Z follow walking back
        from the last block (Takahashi, Fagan & Chin 1973; Rue & Martino
        2007, J. Statist. Plann. Inference 137, §2):

            Z_kk = D_k^-T D_k^-1 + G' Z_{k+1,k+1} G,   G = E_k D_k^-1.

        Each block is read from the band when it is needed, so the work
        is O(n_f kd^2) and the working memory O(kd^2).
        """
        Lf, n = self.Lf, self.nf
        kd = len(Lf) - 1
        b = max(kd, 1)
        # column-major band storage puts L[p, q] (0 <= p - q <= kd) at
        # flat[q * kd + p], so block k, from column c, stacks D_k over E_k
        # as flat[c * (kd + 1) + idx]; idx reads L[c, c], which is finite,
        # where the stack is out of the band
        flat = Lf.ravel(order="F")
        i, j = np.indices((2 * b, b))
        in_band = (i >= j) & (i - j <= kd)
        idx = np.where(in_band, i + j * kd, 0)
        out = np.empty(n)
        Z = None
        for c in range((n - 1) // b * b, -1, -b):
            m = min(b, n - c)  # only the last block can be narrower
            r = 0 if Z is None else len(Z)
            DE = flat.take(c * (kd + 1) + idx[:m + r, :m]) * in_band[:m + r, :m]
            D_inv = lapack.dtrtri(DE[:m], lower=1)[0]
            if Z is None:
                Z = D_inv.T @ D_inv
            else:
                G = DE[m:] @ D_inv
                Z = D_inv.T @ D_inv + G.T @ (Z @ G)
            out[c:c + m] = Z.diagonal()
        return out

    def variances(self) -> np.ndarray:
        """Diagonal of the constrained covariance H^-1 - V M^-1 V'.

        The field block's diag(F^-1) comes by selected inversion, a block
        Takahashi recursion on Lf (Takahashi, Fagan & Chin 1973; Rue &
        Martino 2007; :meth:`_field_variances`); the border's Schur
        complement adds the rows of Lf'^-1 W Ls'^-1 to it, and the kriging
        subtracts the columns of Lm^-1 V'.
        """
        var = np.empty(self.n)
        if self.nb:
            Ls_inv = lapack.dtrtri(self.Ls, lower=1)[0]
            var[self.border] = (Ls_inv**2).sum(axis=0)
        if self.nf:
            d = self._field_variances()
            if self.nb:
                # + diag(F^-1 C S^-1 C' F^-1), rows of Lf'^-1 W Ls'^-1
                Y = self._field_solve(self._border_solve(self.W.T).T, trans="T")
                d += (Y**2).sum(axis=1)
            var[self.field] = d
        if self.blocks:
            var -= (lapack.dtrtrs(self.Lm, self.V.T, lower=1)[0] ** 2).sum(axis=0)
        return var


def find_mode(sigma, model, theta0: np.ndarray | None = None) -> ModeResult:
    """Damped Newton ascent of the log-joint on the constrained subspace.

    ``sigma`` is the prior precision, as the model's ``prior_at`` gives it.

    Starts from zero (always feasible) unless ``theta0`` is given; every
    iterate is re-centered so the constrained blocks sum to zero exactly.
    With scale = max(1, |value|, ``model.log_y_factorial``), convergence
    means half the Newton decrement g'delta is at most
    ``DECREMENT_RTOL * scale``, so the factor that gave the last step is
    the factor at the mode. The line search halves the step from t = 1
    and accepts a log-joint of at least ``value - ROUNDING_RTOL * scale``;
    a candidate whose intensity overflows is a halving too. No convergence
    within ``MAX_NEWTON_ITER`` iterations, or no accepted step within
    ``MAX_HALVINGS`` halvings, is reported in the result, not raised.
    A negative Hessian that fails to factor raises NumericError.
    """
    n = model.n_total
    blocks = model.constraint_blocks

    theta = np.zeros(n) if theta0 is None else np.array(theta0, dtype=float)
    if theta.shape != (n,):
        raise ConfigError(f"theta0 has shape {theta.shape}, model wants ({n},)")
    _center_blocks(theta, blocks)

    def factor(H: ArrowMatrix, where: str) -> _Factor:
        nonlocal factorizations
        factorizations += 1
        try:
            return _Factor(H, blocks)
        except NumericError as exc:
            raise _Reject(
                "factorization", f"negative-Hessian factorization failed {where}: {exc}"
            ) from exc

    def evaluate(th: np.ndarray) -> tuple:
        try:
            return model.lik_parts(th, sigma)
        except NumericError:  # the intensity overflows
            return -np.inf, None, None

    value, grad, H = evaluate(theta)
    if not np.isfinite(value):
        raise _Reject("nonfinite", f"log-joint is {value} at the starting point")

    converged = False
    grad_norm = decrement = np.inf
    it = 0
    factorizations = halvings = 0
    fac = None  # the factor at theta, while current
    for it in range(1, MAX_NEWTON_ITER + 1):
        # the projected gradient gives the same step as the raw one, whose
        # part in the span of A' does not vanish at the mode: kriging would
        # cancel it only to within rounding, an error that does not shrink
        # with the step
        pgrad = _center_blocks(grad, blocks)
        grad_norm = float(np.linalg.norm(pgrad))
        fac = factor(H, f"at iteration {it}")
        delta = fac.step(pgrad)
        scale = max(1.0, abs(value), model.log_y_factorial)
        decrement = 0.5 * float(pgrad @ delta) / scale
        if decrement <= DECREMENT_RTOL:
            converged = True
            break
        # the line search needs no factor, so its memory, H's own, goes
        # while the candidates are evaluated; a failed search builds it
        # again below
        fac = H = None
        floor = value - ROUNDING_RTOL * scale
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cand = _center_blocks(theta + t * delta, blocks)
            v, g, h = evaluate(cand)
            if v >= floor:
                theta, value, grad, H = cand, v, g, h
                break
            t *= 0.5
            halvings += 1
        else:
            log.debug("line search failed at iteration %d (decrement %.3e)", it, decrement)
            break

    # The factor at the final point gives the constrained log-determinant
    # now and the marginal variances later.
    if fac is None:
        if H is None:  # the last factor spent it
            H = evaluate(theta)[2]
        fac = factor(H, "at the last iterate")

    return ModeResult(
        theta_star=theta,
        value=value,
        log_det_H=fac.log_det,
        grad_norm=grad_norm,
        iterations=it,
        converged=converged,
        decrement=decrement,
        factorizations=factorizations,
        halvings=halvings,
        _lu=fac,
    )


def _psi_objective(
    x: np.ndarray, model, theta0: np.ndarray | None = None
) -> tuple[float, ModeResult]:
    """Unnormalized log posterior at free log-precisions ``x``, by Laplace approximation.

    log p(y|th*) + log p(th*|psi) + log p(psi) + (d/2) log 2pi
    − ½ log det H, with d the constrained dimension; the (d/2) log 2pi
    cancels against the prior's normalizer. Returns it with the mode;
    raises on non-convergence of the inner mode search.
    """
    sigma, log_prior = model.prior_at(x)
    mode = find_mode(sigma, model, theta0=theta0)
    if not mode.converged:
        raise _Reject(
            "unconverged",
            f"mode search did not converge in {mode.iterations} iterations "
            f"(relative decrement {mode.decrement:.3e}, |grad| {mode.grad_norm:.3e})",
            mode,
        )
    # mode.value is lik_parts' loglik − ½ th' Sigma th at the mode; add
    # log_prior (the prior's normalization and the hyperprior) and the
    # Gaussian-integral correction.
    return float(mode.value + log_prior - 0.5 * mode.log_det_H), mode


def _score(model, vec: np.ndarray,
           anchor: tuple[np.ndarray, ModeResult] | None) -> tuple[float, ModeResult]:
    """The Laplace log posterior at free log-precisions ``vec``, with its mode.

    The mode search starts from :func:`predicted_start` off ``anchor``, a
    point and its mode, or without one from the model's ``cold_start()``
    if it has one, else from 0. Raises NumericError where ``vec`` cannot
    be scored; an unconverged search's :class:`_Reject` carries its mode.
    """
    if anchor is not None:
        start = predicted_start(model, anchor[0], anchor[1], vec)
    else:
        cold = getattr(model, "cold_start", None)
        start = None if cold is None else cold()
    return _psi_objective(vec, model, theta0=start)


def marginal_sd(mode: ModeResult) -> np.ndarray:
    """Posterior marginal standard deviations at one mode.

    The variances are the diagonal of H^-1 less the kriging correction,
    i.e. of the covariance of the constrained Gaussian approximation.
    """
    var = mode._lu.variances()
    bad = var <= 0
    if np.any(bad):
        raise NumericError(
            f"{int(bad.sum())} non-positive marginal variances — ill-conditioned fit"
        )
    return np.sqrt(var)


def predicted_start(model, vec0: np.ndarray, mode: ModeResult, vec: np.ndarray) -> np.ndarray:
    """First-order prediction of the mode at free log-precisions ``vec``.

    ``mode`` is the converged mode at ``vec0``. By the implicit function
    theorem, d theta*/d log tau_j = -H^-1 d(Sigma theta*)/d log tau_j on
    the constrained subspace, so the prediction is one kriged step
    against the factor the mode already holds (R-INLA's use of the
    mode's own factor; Rue, Martino & Chopin 2009, JRSS-B 71). Its error
    is O(|vec - vec0|^2).
    """
    dvec = np.asarray(vec, dtype=float) - vec0
    tangent = dvec @ model.prior_tangents(vec0, mode.theta_star)
    return mode.theta_star + mode._lu.step(-tangent)


# ---------------------------------------------------------------------------
# hyperparameter search


@dataclass(frozen=True)
class GridConfig:
    points: int = 5
    spacing: float = 0.75

    def __post_init__(self) -> None:
        if self.points < 1 or not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ConfigError(
                "grid points must be at least 1 and grid spacing finite and positive, "
                f"got {self.points} points and spacing {self.spacing}"
            )


@dataclass
class PsiGrid:
    """Hyperparameter evaluation points (log precisions) and posterior masses."""

    points: np.ndarray         # (m, n_free) free log precisions
    weights: np.ndarray        # (m,), normalized
    free_names: list[str]

    def to_json_dict(self) -> dict:
        return {
            "free_names": list(self.free_names),
            "points": [list(map(float, row)) for row in self.points],
            "weights": [float(w) for w in self.weights],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PsiGrid":
        return cls(
            points=np.array(d["points"], dtype=float).reshape(len(d["weights"]), -1),
            weights=np.array(d["weights"], dtype=float),
            free_names=list(d["free_names"]),
        )


class _Search:
    """The log posterior of the free log-precisions, for the search.

    Each call scores one point by :func:`_score`, anchored at the best
    point so far, whose mode alone is kept: each mode holds its factor,
    dense blocks of n × (border + constraints). A point whose mode search
    fails scores -inf and is counted by reason. It totals the mode
    searches' work, and the largest stopping decrement of those that
    scored; :func:`empirical_bayes` records its Newton ``iterations``
    and the predicted ascent ``decrement`` of its last complete stencil
    here (None before the first).
    """

    def __init__(self, model):
        self.model = model
        self.best_vec: np.ndarray | None = None
        self.best_value = -np.inf
        self.best_mode: ModeResult | None = None
        self.evals = 0
        self.rejected_by_reason: Counter = Counter()
        self.work: Counter = Counter()
        self.max_decrement = -np.inf
        self.iterations = 0
        self.decrement: float | None = None

    def __call__(self, vec: np.ndarray) -> float:
        self.evals += 1
        anchor = None if self.best_mode is None else (self.best_vec, self.best_mode)
        try:
            lp, mode = _score(self.model, vec, anchor)
        except NumericError as exc:
            log.warning("rejecting candidate %s: %s", np.round(vec, 3), exc)
            self.rejected_by_reason[getattr(exc, "reason", "nonfinite")] += 1
            if getattr(exc, "mode", None) is not None:
                self.add(exc.mode, scored=False)
            return -np.inf
        self.add(mode)
        if lp > self.best_value:
            self.best_value, self.best_mode = lp, mode
            self.best_vec = np.array(vec, dtype=float)
        return lp

    def add(self, mode: ModeResult, scored: bool = True) -> None:
        """Add one mode search's work counts, and its decrement if it scored."""
        self.work.update(newton_iterations=mode.iterations, factorizations=mode.factorizations,
                         line_search_halvings=mode.halvings)
        if scored:
            self.max_decrement = max(self.max_decrement, mode.decrement)

    @property
    def rejected(self) -> int:
        return sum(self.rejected_by_reason.values())


def _stencil(ev: _Search, x: np.ndarray, fx: float, known: Sequence[tuple] = ()
             ) -> tuple[tuple[np.ndarray, np.ndarray] | None, list[tuple]]:
    """Gradient and Hessian of ``ev`` at ``x`` by finite differences.

    With h = ``SEARCH_H``, the points x ± h e_j give the central gradient
    and the Hessian's diagonal, and x + h (e_i + e_j) its off-diagonal:
    2k + k(k-1)/2 evaluations, in a fixed order. A point that one of
    ``known`` (point, value) pairs holds, to within rounding, takes that
    value and is not evaluated again. The derivatives are None when ``x``
    or one of the points is rejected, since the differences then say
    nothing; every point is evaluated all the same, so that the search
    can move to the best of them. Returns them with the stencil's own
    (point, value) pairs, ``x`` first.
    """
    k = x.size
    step = SEARCH_H * np.eye(k)
    pairs = list(itertools.combinations(range(k), 2))
    points = [x + s for j in range(k) for s in (step[j], -step[j])]
    points += [x + step[i] + step[j] for i, j in pairs]

    def value(p: np.ndarray) -> float:
        for q, fq in known:
            # x + h - h may differ from x in its last bit
            if np.abs(p - q).max() <= 1e-6 * SEARCH_H:
                return fq
        return ev(p)

    f = np.array([fx] + [value(p) for p in points])
    read = list(zip([x] + points, f))
    if not np.all(np.isfinite(f)):
        return None, read
    fp, fm, fij = f[1:2 * k + 1:2], f[2:2 * k + 1:2], f[2 * k + 1:]
    hess = np.diag((fp - 2.0 * fx + fm) / SEARCH_H**2)
    for (i, j), fi in zip(pairs, fij):
        hess[i, j] = hess[j, i] = (fi - fp[i] - fp[j] + fx) / SEARCH_H**2
    return ((fp - fm) / (2.0 * SEARCH_H), hess), read


def _line_search(ev: _Search, x: np.ndarray, fx: float,
                 d: np.ndarray) -> tuple[np.ndarray, float] | None:
    """The first of x + d, x + d/2, ... that beats ``fx``, clipped to the box.

    When the full step beats it, the step keeps doubling while that still
    improves, since Newton undershoots along a flat log-precision
    direction. None when ``MAX_HALVINGS`` halvings find no ascent, or when
    the box leaves no step to take.
    """
    t = 1.0
    for _ in range(MAX_HALVINGS + 1):
        cand = np.clip(x + t * d, *SEARCH_BOUNDS)
        if np.array_equal(cand, x):
            return None
        fc = ev(cand)
        if fc > fx:
            break
        t *= 0.5
    else:
        return None
    while t >= 1.0:
        t *= 2.0
        nxt = np.clip(x + t * d, *SEARCH_BOUNDS)
        if np.array_equal(nxt, cand):
            break
        fn = ev(nxt)
        if not fn > fc:
            break
        cand, fc = nxt, fn
    return cand, fc


def empirical_bayes(model) -> tuple[np.ndarray, _Search]:
    """Maximize the hyperparameter posterior over the free log-precisions.

    Damped Newton ascent from the origin. Each iteration takes the gradient
    g and Hessian H of the log posterior from a :func:`_stencil` of
    evaluations around the current point, raises the eigenvalues of -H to
    at least ``SEARCH_EIG_FLOOR`` of the largest, caps the step's length
    at ``SEARCH_MAX_STEP`` and takes it by :func:`_line_search`. It stops
    once -H is positive definite and the predicted ascent g'(-H)^-1 g / 2
    is at most ``SEARCH_TOL`` nats, a bound that does not depend on the
    scale of the data; also after ``SEARCH_MAX_ITER`` iterations or when
    the line search fails. A stencil with a rejected point (or a rejected
    start) gives no derivatives: the search then moves to the best point
    evaluated so far if that beats the current one, and stops otherwise;
    the stencil around that point takes the values of the points it shares
    with the one before, the rejected one included.
    Returns the best point evaluated, and the evaluator, which counts the
    work and the rejected candidates. Entirely deterministic.
    """
    ev = _Search(model)
    x = np.zeros(model.n_free)
    fx = ev(x)
    read = []
    while ev.iterations < SEARCH_MAX_ITER:
        derivs, read = _stencil(ev, x, fx, read)
        ev.iterations += 1
        if derivs is None:
            # with a point rejected there are no differences, but the best
            # point evaluated so far, where it beats x, is a step all the same
            if not ev.best_value > fx:
                log.warning("psi search stops at %s: no evaluable point improves on it",
                            np.round(x, 3))
                break
            x, fx = ev.best_vec.copy(), ev.best_value
            continue
        read = []
        grad, hess = derivs
        lam, vecs = np.linalg.eigh(-hess)
        gq = vecs.T @ grad
        floored = np.maximum(lam, SEARCH_EIG_FLOOR * max(np.abs(lam).max(), np.finfo(float).tiny))
        ev.decrement = 0.5 * float((gq**2 / floored).sum())
        if lam.min() > 0 and ev.decrement <= SEARCH_TOL:
            break
        d = vecs @ (gq / floored)
        length = float(np.linalg.norm(d))
        if length > SEARCH_MAX_STEP:
            d *= SEARCH_MAX_STEP / length
        moved = _line_search(ev, x, fx, d)
        if moved is None:
            log.debug("psi line search failed at %s (predicted ascent %.3e)",
                      np.round(x, 3), ev.decrement)
            break
        x, fx = moved
    return (x if ev.best_vec is None else ev.best_vec), ev


def grid_posterior(
    model,
    center: np.ndarray,
    config: GridConfig,
    center_mode: ModeResult,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray, list[ModeResult], list[np.ndarray]]:
    """Evaluate a centered lattice in log-precision space.

    Posterior masses are exp(log posterior + sum of log precisions): the
    second term is the Jacobian that converts the density over precisions
    to the log scale the (uniform) lattice lives on. Every point is
    scored by :func:`_score` anchored at the center and its mode
    ``center_mode``, so results are independent of evaluation order and
    thread count. A point that cannot be scored raises NumericError.
    Returns the lattice, (m, n_free), its normalized masses, and each
    point's mode and marginal sds; a mode's factor goes once its sds are
    taken, since the factors of a whole lattice outgrow memory (625
    points of a 12x16 grid with 200 shoes hold 1.5 GiB).
    """
    k = model.n_free
    offsets = config.spacing * (np.arange(config.points) - (config.points - 1) / 2)
    points = np.array([
        center + np.array(combo)
        for combo in itertools.product(offsets, repeat=k)
    ])

    def one(vec: np.ndarray) -> tuple[float, ModeResult, np.ndarray]:
        try:
            lp, mode = _score(model, vec, (center, center_mode))
        except NumericError as exc:
            raise NumericError(
                f"grid point {np.round(vec, 3)} cannot be scored "
                f"({getattr(exc, 'reason', 'nonfinite')}): {exc}"
            ) from exc
        sd = marginal_sd(mode)
        mode._lu = None
        return lp, mode, sd

    lp, modes, sds = zip(*parallel_map(one, points, threads))
    log_mass = np.array(lp) + points.sum(axis=1)
    log_mass -= log_mass.max()
    w = np.exp(log_mass)
    w /= w.sum()
    return points, w, list(modes), list(sds)


# ---------------------------------------------------------------------------
# the full fit


@dataclass
class FitResult:
    """Posterior summary: marginal moments per coordinate plus psi summaries."""

    spec: ModelSpec
    grid: GridSpec
    prior: PriorSpec
    layout: ThetaLayout
    shoe_ids: list[str]
    strategy: str
    psi_map: Hyperparams
    psi_grid: PsiGrid
    marginal_mean: np.ndarray
    marginal_sd: np.ndarray
    diagnostics: dict

    def heatmap(self, which: str = "smooth") -> np.ndarray:
        """Posterior-mean field as a (ny, nx) array.

        ``which`` is "smooth" or the bit string of a varying index.
        """
        lay = self.layout
        if which == "smooth":
            if not lay.smooth:
                raise ConfigError("model has no smooth field")
            blk = lay.smooth_block
        else:
            names = [index_to_string(i) for i in self.spec.varying]
            if which not in names:
                raise ConfigError(
                    f"unknown field {which!r}; have smooth and {names}"
                )
            blk = lay.varying_block(names.index(which))
        return self.marginal_mean[blk].reshape(self.grid.ny, self.grid.nx)

    def to_json_dict(self) -> dict:
        return {
            "format": "coxforge-fit-v1",
            "model": self.spec.to_json_dict(),
            "grid": self.grid.to_json_dict(),
            "prior": self.prior.to_json_dict(),
            "layout": self.layout.to_json_dict(),
            "shoe_ids": list(self.shoe_ids),
            "strategy": self.strategy,
            "psi_map": self.psi_map.to_json_dict(self.spec),
            "psi_grid": self.psi_grid.to_json_dict(),
            "marginal_mean": [float(v) for v in self.marginal_mean],
            "marginal_sd": [float(v) for v in self.marginal_sd],
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FitResult":
        if d.get("format") != "coxforge-fit-v1":
            raise InputDataError("not a fit result file (format tag mismatch)")
        try:
            spec = ModelSpec.from_json_dict(d["model"])
            res = cls(
                spec=spec,
                grid=GridSpec.from_json_dict(d["grid"]),
                prior=PriorSpec.from_json_dict(d["prior"]),
                layout=ThetaLayout.from_json_dict(d["layout"]),
                shoe_ids=list(d["shoe_ids"]),
                strategy=str(d["strategy"]),
                psi_map=Hyperparams.from_json_dict(d["psi_map"], spec),
                psi_grid=PsiGrid.from_json_dict(d["psi_grid"]),
                marginal_mean=np.array(d["marginal_mean"], dtype=float),
                marginal_sd=np.array(d["marginal_sd"], dtype=float),
                diagnostics=dict(d.get("diagnostics", {})),
            )
        except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
            raise InputDataError(f"malformed fit result: {exc!r}") from exc
        want = ThetaLayout.for_model(len(res.shoe_ids), spec, res.grid.n_cells)
        if res.layout != want:
            raise InputDataError(
                f"fit layout {res.layout} does not match its model, shoes and grid ({want})"
            )
        for name, v in (("marginal_mean", res.marginal_mean), ("marginal_sd", res.marginal_sd)):
            if v.shape != (want.n_total,):
                raise InputDataError(f"{name} has {v.size} entries, the layout needs {want.n_total}")
        if not np.all(np.isfinite(res.marginal_mean)):
            raise InputDataError("marginal_mean has a non-finite entry")
        if not np.all(np.isfinite(res.marginal_sd) & (res.marginal_sd > 0)):
            raise InputDataError("marginal_sd has an entry that is not finite and positive")
        return res


def fit(
    records: Sequence[ShoeRecord],
    spec: ModelSpec,
    grid: GridSpec,
    prior: PriorSpec | None = None,
    strategy: str = "empirical_bayes",
    grid_config: GridConfig | None = None,
    threads: int = 1,
) -> FitResult:
    """Fit the model: hyperparameter search, then Gaussian marginals.

    ``strategy`` is "empirical_bayes" (marginals at the maximizing
    precisions) or "grid" (mixture over a centered lattice of precisions
    weighted by posterior mass). The returned marginal means of every
    constrained block sum to zero. Deterministic for fixed inputs: no
    randomness is consumed.
    """
    if strategy not in ("empirical_bayes", "grid"):
        raise ConfigError(f"unknown strategy {strategy!r}")
    check_threads(threads)
    t_start = time.perf_counter()
    model = ShoeModel(records, spec, grid, prior)
    if model.y.sum() == 0:
        raise InputDataError("degenerate dataset: every accidental count is zero")

    map_vec, search = empirical_bayes(model)
    lp_map, map_mode = search.best_value, search.best_mode
    if map_mode is None:
        raise NumericError("hyperparameter search found no evaluable point")

    if strategy == "empirical_bayes":
        points, weights = map_vec.reshape(1, -1), np.array([1.0])
        modes, sds = [map_mode], [marginal_sd(map_mode)]
    else:
        points, weights, modes, sds = grid_posterior(
            model, map_vec, grid_config or GridConfig(), map_mode, threads=threads,
        )
        for m in modes:
            search.add(m)
    psi_grid = PsiGrid(points=points, weights=weights, free_names=model.free_names())

    n = model.n_total
    means = np.stack([m.theta_star for m in modes])
    w = weights[:, None]
    mean = (w * means).sum(axis=0)
    second = (w * (np.stack(sds) ** 2 + means**2)).sum(axis=0)
    var = np.maximum(second - mean**2, 0.0)
    sd = np.sqrt(var)

    elapsed = time.perf_counter() - t_start
    diagnostics = {
        "n_latent": int(n),
        "constrained_dim": int(model.layout.constrained_dim),
        "n_free_hyper": int(model.n_free),
        "n_parameters": int(model.layout.constrained_dim + model.n_free),
        "log_psi_posterior_map": float(lp_map),
        "psi_evaluations": int(search.evals),
        "map_newton_iterations": int(map_mode.iterations),
        "map_grad_norm": float(map_mode.grad_norm),
        "newton_iterations": int(search.work["newton_iterations"]),
        "factorizations": int(search.work["factorizations"]),
        "line_search_halvings": int(search.work["line_search_halvings"]),
        "psi_rejected": int(search.rejected),
        "psi_rejected_by_reason": {
            r: int(search.rejected_by_reason[r]) for r in REJECT_REASONS
        },
        "max_accepted_decrement": float(search.max_decrement),
        "psi_search_iterations": int(search.iterations),
        "psi_search_decrement": search.decrement,
        "seconds": float(elapsed),
    }
    log.info(
        "fit %s: %d shoes, %d latent, %d psi evaluations, %.1fs",
        spec.name, len(records), n, search.evals, elapsed,
    )

    return FitResult(
        spec=spec,
        grid=grid,
        prior=model.prior,
        layout=model.layout,
        shoe_ids=model.shoe_ids,
        strategy=strategy,
        psi_map=model.psi_from_free(map_vec),
        psi_grid=psi_grid,
        marginal_mean=mean,
        marginal_sd=sd,
        diagnostics=diagnostics,
    )
