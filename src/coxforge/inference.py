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
log-determinant and, at the mode, the constrained covariance on H's own
arrow pattern (:meth:`_Factor.covariance`): its field band is selected
inversion, a block Takahashi recursion on the band factor (Takahashi,
Fagan & Chin 1973; Rue & Martino 2007, J. Statist. Plann. Inference 137,
§2), as INLA computes its marginal variances, in O(n_f kd^2) time for a
field block of n_f coordinates and band width kd, plus the low-rank terms
of the border and the kriging. Its diagonal is the marginal variances.

The hyperparameter posterior uses the standard Laplace identity
p(psi|y) ∝ p(y|th*) p(th*|psi) p(psi) / N(th*; th*, H^-1), maximized by
a quasi-Newton (BFGS) ascent in log-precision space (empirical Bayes), or
summed over a centered grid with log-scale Jacobian weights. Both score
a point by :func:`_score`. The ascent runs on the exact gradient of that
log posterior (:func:`psi_gradient`), obtained by differentiating the
Laplace approximation as TMB does (Kristensen, Nielsen, Berg, Skaug &
Bell 2016, J. Stat. Softw. 70(5), §2): with x_j = log tau_j, the mode's
derivative theta'_j = -H_c^-1 d(Sigma theta*)/dx_j and the constrained
covariance H_c^-1,

    dL/dx_j = -½ theta*' Sigma_j theta* + ½ r_j + (hyperprior term)
              - ½ tr(H_c^-1 (Sigma_j + B' diag(lambda ⊙ B theta'_j) B)),

whose traces read H_c^-1 only where H has entries, the second as
sum lambda ⊙ h ⊙ B theta'_j with h = diag(B H_c^-1 B') once per gradient.
The gradient reuses the mode's factor, so it costs no mode search.

The search runs over the free log-precisions x, and every routine takes
a point as that vector. Any object with the
:class:`coxforge.model.ShoeModel` likelihood/prior surface (``n_total``,
``n_free``, ``constraint_blocks``, ``log_y_factorial``, ``lik_parts``,
``prior_at``, ``prior_tangents``, ``psi_gradient``, and optionally
``cold_start``) can be driven by these routines; only :func:`fit` asks a
``ShoeModel`` for more, to name the precisions in its result (the
precision table is also the fit's record, ``FitResult.psi_map``).
``psi_gradient(x, theta, dtheta, cov)`` turns a mode, its derivatives in
x and the constrained covariance into the gradient. ``prior_at(x)`` gives the
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
from .model import (ArrowMatrix, PriorSpec, ShoeModel, ThetaLayout, precision_free,
                    precision_names)
from .util import check_threads, json_number, json_numbers, parallel_map

log = logging.getLogger("coxforge.inference")

# the empirical-Bayes quasi-Newton search over the free log-precisions: the
# predicted ascent in nats at which it stops, the length of its first step
# (and how far from a rejected start it looks for a point to go on from),
# the longest step it takes, and the box its steps are clipped to
SEARCH_TOL = 1e-6
SEARCH_FIRST_STEP = 1.0
SEARCH_MAX_STEP = 6.0
SEARCH_BOUNDS = (-12.0, 12.0)
# the curvature, in nats per squared log-precision, that the search's model
# takes where it has measured none. At the fits measured, the curvatures at
# the MAP run from 0.009 (the flattest field of variant_a on 6x8 cells with
# 20 shoes) to 64 (tau_s of 200 shoes on 12x16). A model flatter than the
# truth overshoots, which the step
# radius and the line search cut back; one steeper than the truth predicts
# too little ascent and stops the search early: at 1 in place of 0.1,
# variant_a on 6x8 cells with 20 shoes stopped 2.1e-6 nats below its MAP
SEARCH_CURVATURE = 0.1
# the searches measured take at most 22 iterations (variant_a, 7 free
# precisions); a hundred only end one that does not converge
SEARCH_MAX_ITER = 100

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

# what fit() can do once it has found the MAP precisions, and the format
# tag of the file that records its result (a file with another is refused)
STRATEGIES = ("empirical_bayes", "grid")
FIT_FORMAT = "coxforge-fit-v2"


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
    LAPACK call. The covariance takes F^-1's band by selected inversion
    of Lf, a block Takahashi recursion (:meth:`_field_inverse`).
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
        """The Newton step on A delta = 0: H^-1 g - V M^-1 A H^-1 g.

        ``g`` is one right-hand side, (n,), or several, (n, k).
        """
        d = self.solve(g.reshape(self.n, -1))
        if self.blocks:
            d -= self.V @ lapack.dpotrs(self.Lm, self.A @ d, lower=1)[0]
        return d.reshape(g.shape)

    def _field_inverse(self, P: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """The band of F^-1 + P diag(signs) P', by a block Takahashi recursion on Lf.

        Cut into blocks of b = max(kd, 1) columns, with kd Lf's band width,
        Lf is block lower bidiagonal for any band: diagonal blocks D_k and,
        below them, blocks E_k. Since Lf' Z = Lf^-1 for Z = F^-1 and Lf^-1
        is lower triangular, the blocks of Z on and below the diagonal
        follow walking back from the last block (Takahashi, Fagan & Chin
        1973; Rue & Martino 2007, J. Statist. Plann. Inference 137, §2):

            Z_kk = D_k^-T D_k^-1 + G' Z_{k+1,k+1} G,
            Z_{k+1,k} = -Z_{k+1,k+1} G,            G = E_k D_k^-1.

        Those two blocks hold every entry of the band in block k's
        columns. The low-rank term, P (n_f x p) with ±1 ``signs``, is added
        to them as they are written out, in Lf's band layout, (kd + 1, n_f).
        Each block of Lf is read from the band when it is needed, so the
        work is O(n_f kd (kd + p)) and the working memory O(kd (kd + p)).
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
        # where a stacked block's band entries go in ``out``, by block shape
        put = {}
        Ps = P * signs
        out = np.zeros(n * (kd + 1))
        Z = None
        for c in range((n - 1) // b * b, -1, -b):
            m = min(b, n - c)  # only the last block can be narrower
            r = 0 if Z is None else len(Z)
            DE = flat.take(c * (kd + 1) + idx[:m + r, :m]) * in_band[:m + r, :m]
            D_inv = lapack.dtrtri(DE[:m], lower=1)[0]
            # Z's columns c .. c + m - 1, down to the next block's end
            cols = P[c:c + m + r] @ Ps[c:c + m].T
            if Z is None:
                Z = D_inv.T @ D_inv
            else:
                G = DE[m:] @ D_inv
                ZG = Z @ G
                cols[m:] -= ZG
                Z = D_inv.T @ D_inv + G.T @ ZG
            cols[:m] += Z
            if (m, r) not in put:
                keep = np.flatnonzero(in_band[:m + r, :m])
                put[m, r] = keep, idx[:m + r, :m].ravel()[keep]
            keep, at = put[m, r]
            out[c * (kd + 1) + at] = cols.ravel()[keep]
        return out.reshape(n, kd + 1).T

    def covariance(self) -> ArrowMatrix:
        """The constrained covariance H_c^-1 = H^-1 - V M^-1 V' on H's arrow pattern.

        With Y = Lf'^-1 W Ls'^-1, the blocks of H^-1 are F^-1 + Y Y' on the
        field, -Y Ls^-1 between field and border, and Ls'^-1 Ls^-1 on the
        border; with R = Lm^-1 V', split into its field and border columns
        Rf and Rb, the kriging subtracts R'R. So

            band  the band of F^-1 + Y Y' - Rf' Rf   (:meth:`_field_inverse`)
            C     -Y Ls^-1 - Rf' Rb
            B     Ls'^-1 Ls^-1 - Rb' Rb

        and the field block is selected inversion of Lf (Rue, Martino &
        Chopin 2009, JRSS-B 71, as INLA computes its marginal variances).
        """
        R = (lapack.dtrtrs(self.Lm, self.V.T, lower=1)[0] if self.blocks
             else np.zeros((0, self.n)))
        Rf, Rb = R[:, self.field], R[:, self.border]
        B = -(Rb.T @ Rb)
        C = -(Rf.T @ Rb)
        Y = np.zeros((self.nf, 0))
        if self.nb:
            Ls_inv = lapack.dtrtri(self.Ls, lower=1)[0]
            B += Ls_inv.T @ Ls_inv
            if self.nf:
                Y = self._field_solve(self._border_solve(self.W.T).T, trans="T")
                C -= Y @ Ls_inv
        if self.nf:
            # Y's own copy goes before the recursion (19 MB at 39x91 cells
            # and 100 shoes)
            P = np.hstack([Y, Rf.T])
            del Y
            band = self._field_inverse(P, np.repeat([1.0, -1.0], [P.shape[1] - len(R), len(R)]))
        else:
            band = np.zeros((1, 0))
        return ArrowMatrix(self.field, self.border, band, C, B)

    def variances(self) -> np.ndarray:
        """Diagonal of the constrained covariance, :meth:`covariance`."""
        cov = self.covariance()
        var = np.empty(self.n)
        var[self.field] = cov.band[0]
        var[self.border] = cov.B.diagonal()
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


def psi_gradient(model, vec: np.ndarray, mode: ModeResult) -> np.ndarray:
    """The exact gradient of the Laplace log posterior at ``vec``, whose mode is ``mode``.

    The mode moves with vec as d theta*/d x_j = -H_c^-1 d(Sigma theta*)/d x_j
    (:func:`predicted_start`'s tangents), and the log-determinant's
    derivative is tr(H_c^-1 dH/dx_j) with H_c^-1 = H^-1 - V M^-1 V' the
    constrained covariance. Both come from the factor the mode holds, so
    the gradient costs no mode search; the model contracts them into the
    gradient (``psi_gradient(x, theta, dtheta, cov)``).
    """
    fac = mode._lu
    tangents = model.prior_tangents(vec, mode.theta_star)
    dtheta = fac.step(-tangents.T).T
    return model.psi_gradient(vec, mode.theta_star, dtheta, fac.covariance())


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
            "points": self.points.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict, spec: ModelSpec) -> "PsiGrid":
        """A fit file's ``psi_grid``: the spec's free precisions by name, in
        their order; m finite, non-negative weights summing to 1 within
        1e-9; and a finite (m, n_free) array of points."""
        names = [n for n, free in zip(precision_names(spec), precision_free(spec)) if free]
        if d["free_names"] != names:
            raise ValueError(f"psi_grid free_names must be {names}, got {d['free_names']!r}")
        weights = json_numbers(d["weights"], "psi_grid weights")
        if not (np.all(np.isfinite(weights) & (weights >= 0))
                and abs(weights.sum() - 1.0) <= 1e-9):
            raise ValueError("psi_grid weights must be finite, non-negative and sum to 1")
        points = np.array([json_numbers(r, "psi_grid points") for r in d["points"]])
        if points.shape != (len(weights), len(names)) or not np.all(np.isfinite(points)):
            raise ValueError(f"psi_grid points must be {len(weights)} finite points "
                             f"of {len(names)} coordinates")
        return cls(points=points, weights=weights, free_names=names)


class _Search:
    """The log posterior of the free log-precisions, for the search.

    Each call scores one point by :func:`_score`, anchored at the best
    point so far, whose mode alone is kept: each mode holds its factor,
    dense blocks of n × (border + constraints). A point whose mode search
    fails scores -inf and is counted by reason. It totals the mode
    searches' work, and the largest stopping decrement of those that
    scored. :meth:`gradient` takes :func:`psi_gradient` at the best point
    from the mode kept there, so it costs no mode search, and counts it;
    :func:`empirical_bayes` records its quasi-Newton ``iterations`` and the
    predicted ascent ``decrement`` of its last model here (None before
    the first).
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
        self.gradients = 0
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

    def gradient(self) -> np.ndarray:
        """:func:`psi_gradient` at the best point so far."""
        self.gradients += 1
        return psi_gradient(self.model, self.best_vec, self.best_mode)

    @property
    def rejected(self) -> int:
        return sum(self.rejected_by_reason.values())


def _line_search(ev: _Search, x: np.ndarray, fx: float, d: np.ndarray,
                 extend: bool = False) -> tuple[np.ndarray, float] | None:
    """The first of x + d, x + d/2, ... that beats ``fx``, clipped to the box.

    With ``extend``, when the full step beats it, the step keeps doubling
    while that still improves. None when ``MAX_HALVINGS`` halvings find no
    ascent, or when the box leaves no step to take. When ``fx`` is the best
    value ``ev`` has scored, the point returned is its new best.
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
    while extend and t >= 1.0:
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

    Quasi-Newton (BFGS) ascent from the origin on the exact gradients of
    :func:`psi_gradient` (Nocedal & Wright, *Numerical Optimization*,
    §6.1). Each iteration takes the gradient g at the best point so far,
    from the mode and factor it already holds, and keeps a model K of the
    inverse negative Hessian: K starts as the identity over
    ``SEARCH_CURVATURE`` and takes the BFGS update from each step s and
    fall in gradient y = g - g_new with s'y > 0, so it stays positive
    definite. The step K g, shortened to at most a step radius, is taken
    by :func:`_line_search`, whose halvings also pass over a rejected
    point. The radius starts at ``SEARCH_FIRST_STEP`` and doubles with
    each line search, up to ``SEARCH_MAX_STEP``; after a line search that
    met a rejected point it is the length of the step taken instead, so
    that a search pressed against a region it cannot score does not try
    that region again at full length. A step with s'y <= 0 leaves K as it
    is: the log posterior was not concave along it, so the step was too
    short, and the next line search doubles its step while that improves.
    The search stops once K holds the curvature of a step and the model's
    ascent along the step it would take, g'K g / 2 for a full step, is at
    most ``SEARCH_TOL`` nats, a bound that does not depend on the scale of
    the data; it scores that last step all the same, which costs one mode
    search and no gradient, and keeps it if it improves. It also stops
    after ``SEARCH_MAX_ITER`` iterations or when the line search fails. A
    rejected start has no gradient: the search then scores the points
    ``SEARCH_FIRST_STEP`` from it along each axis and goes on from the
    best of them, or stops if none scores.
    Returns the best point evaluated, and the evaluator, which counts the
    work and the rejected candidates. Entirely deterministic.
    """
    ev = _Search(model)
    x = np.zeros(model.n_free)
    fx = ev(x)
    if not np.isfinite(fx):
        for p in np.concatenate([np.eye(x.size), -np.eye(x.size)]):
            ev(x + SEARCH_FIRST_STEP * p)
        if ev.best_mode is None:
            log.warning("psi search stops at %s: no point near it can be scored",
                        np.round(x, 3))
            return x, ev
        x, fx = ev.best_vec, ev.best_value
    K = np.eye(x.size) / SEARCH_CURVATURE
    radius = SEARCH_FIRST_STEP
    curved = extend = False
    g = ev.gradient()
    while np.all(np.isfinite(g)):
        d = K @ g
        length = float(np.linalg.norm(d))
        # the model's ascent along the step taken, d shortened by a factor a:
        # a g'K g - a^2 g'K g / 2
        a = min(1.0, radius / length) if length > 0 else 1.0
        ev.decrement = 0.5 * float(g @ d) * a * (2.0 - a)
        if curved and ev.decrement <= SEARCH_TOL:
            last = np.clip(x + a * d, *SEARCH_BOUNDS)
            if not np.array_equal(last, x):
                ev(last)
            break
        if ev.iterations == SEARCH_MAX_ITER:
            break
        ev.iterations += 1
        d *= a
        rejected = ev.rejected
        moved = _line_search(ev, x, fx, d, extend)
        if moved is None:
            log.debug("psi line search failed at %s (predicted ascent %.3e)",
                      np.round(x, 3), ev.decrement)
            break
        s = moved[0] - x
        x, fx = moved
        radius = (float(np.linalg.norm(s)) if ev.rejected > rejected
                  else min(2.0 * radius, SEARCH_MAX_STEP))
        g_new = ev.gradient()
        y = g - g_new
        sy = float(s @ y)
        extend = sy <= 0
        if not extend:
            E = np.eye(x.size) - np.outer(s, y) / sy
            K = E @ K @ E.T + np.outer(s, s) / sy
            curved = True
        g = g_new
    else:
        log.warning("psi search stops at %s: non-finite gradient", np.round(x, 3))
    return ev.best_vec, ev


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
    """Posterior summary: marginal moments per coordinate plus psi summaries.

    ``psi_map`` keys every precision at the MAP by its name in the model's
    precision table; ``layout`` is derived, not stored."""

    spec: ModelSpec
    grid: GridSpec
    prior: PriorSpec
    shoe_ids: list[str]
    strategy: str
    psi_map: dict[str, float]
    psi_grid: PsiGrid
    marginal_mean: np.ndarray
    marginal_sd: np.ndarray
    diagnostics: dict

    @property
    def layout(self) -> ThetaLayout:
        return ThetaLayout.for_model(len(self.shoe_ids), self.spec, self.grid.n_cells)

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
            "format": FIT_FORMAT,
            "model": self.spec.to_json_dict(),
            "grid": self.grid.to_json_dict(),
            "prior": self.prior.to_json_dict(),
            "shoe_ids": list(self.shoe_ids),
            "strategy": self.strategy,
            "psi_map": dict(self.psi_map),
            "psi_grid": self.psi_grid.to_json_dict(),
            "marginal_mean": self.marginal_mean.tolist(),
            "marginal_sd": self.marginal_sd.tolist(),
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FitResult":
        if d.get("format") != FIT_FORMAT:
            raise InputDataError(f"format tag {d.get('format')!r}, expected {FIT_FORMAT!r}; "
                                 f"fit the model again with this version")
        try:
            spec = ModelSpec.from_json_dict(d["model"])
            shoe_ids, strategy = d["shoe_ids"], d["strategy"]
            if not (isinstance(shoe_ids, list) and all(isinstance(s, str) for s in shoe_ids)
                    and len(set(shoe_ids)) == len(shoe_ids)):
                raise ValueError("shoe_ids must be a list of distinct strings")
            if strategy not in STRATEGIES:
                raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
            res = cls(
                spec=spec,
                grid=GridSpec.from_json_dict(d["grid"]),
                prior=PriorSpec.from_json_dict(d["prior"]),
                shoe_ids=shoe_ids,
                strategy=strategy,
                psi_map=_read_psi_map(d["psi_map"], spec),
                psi_grid=PsiGrid.from_json_dict(d["psi_grid"], spec),
                marginal_mean=json_numbers(d["marginal_mean"], "marginal_mean"),
                marginal_sd=json_numbers(d["marginal_sd"], "marginal_sd"),
                diagnostics=dict(d.get("diagnostics", {})),
            )
        except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
            raise InputDataError(f"malformed fit result: {exc!r}") from exc
        n = res.layout.n_total
        for name, v in (("marginal_mean", res.marginal_mean), ("marginal_sd", res.marginal_sd)):
            if v.shape != (n,):
                raise InputDataError(f"{name} has {v.size} entries, the layout needs {n}")
        if not np.all(np.isfinite(res.marginal_mean)):
            raise InputDataError("marginal_mean has a non-finite entry")
        if not np.all(np.isfinite(res.marginal_sd) & (res.marginal_sd > 0)):
            raise InputDataError("marginal_sd has an entry that is not finite and positive")
        return res


def _read_psi_map(d, spec: ModelSpec) -> dict[str, float]:
    """A fit file's ``psi_map``: the spec's precisions by name, each a finite
    and positive JSON number, returned in the precision table's order."""
    names = precision_names(spec)
    if not isinstance(d, dict) or set(d) != set(names):
        raise ValueError(f"psi_map must name the precisions {names}, got {d!r}")
    out = {k: json_number(d[k], f"psi_map {k}") for k in names}
    for k, tau in out.items():
        if not (np.isfinite(tau) and tau > 0):
            raise ValueError(f"psi_map {k} must be finite and positive, got {tau}")
    return out


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
    if strategy not in STRATEGIES:
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
        "psi_gradients": int(search.gradients),
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
        shoe_ids=model.shoe_ids,
        strategy=strategy,
        psi_map=dict(zip(precision_names(spec), model._taus(map_vec).tolist())),
        psi_grid=psi_grid,
        marginal_mean=mean,
        marginal_sd=sd,
        diagnostics=diagnostics,
    )
