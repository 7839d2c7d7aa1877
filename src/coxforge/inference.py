"""Laplace-approximate posterior inference for the latent Gaussian model.

The posterior over the latent vector given precisions psi is approximated
by a Gaussian at its mode; the mode is found by damped Newton iteration
restricted to the sum-to-zero subspaces of the spatial-field blocks.

Each iterate factors the negative Hessian ``H`` — positive definite on
the whole space, since the shoe and fixed-effect priors are proper — as
an arrow matrix. The coordinates of the constrained blocks form a sparse
field block ``F``, ordered to a narrow band and factored by banded
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
log-determinant and, at the mode, the marginal variances.

The hyperparameter posterior uses the standard Laplace identity
p(psi|y) ∝ p(y|th*) p(th*|psi) p(psi) / N(th*; th*, H^-1), maximized by
deterministic coordinate search in log-precision space (empirical Bayes)
or summed over a centered grid with log-scale Jacobian weights.

Any object with the :class:`coxforge.model.ShoeModel` likelihood/prior
surface (``n_total``, ``n_free``, ``constraint_blocks``, ``loglik``,
``lik_parts``, ``prior_precision``, ``prior_quad``, ``log_prior_gendet``,
``log_hyperprior``, ``psi_from_free``, ``free_names``) can be driven by
these routines; the test suite uses small synthetic problems with
closed-form answers through the same entry points.
"""

from __future__ import annotations

import itertools
import logging
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve, lapack

from .design import ModelSpec, index_to_string
from .errors import ConfigError, InputDataError, NumericError
from .grids import GridSpec, ShoeRecord
from .model import Hyperparams, PriorSpec, ShoeModel, ThetaLayout
from .util import parallel_map

log = logging.getLogger("coxforge.inference")

# the empirical-Bayes compass search: log-precision box, first and last step
SEARCH_BOUNDS = (-12.0, 12.0)
SEARCH_STEP0 = 1.0
SEARCH_MIN_STEP = 1e-3


@dataclass
class NewtonOptions:
    """Stopping rule of :func:`find_mode`.

    ``tol`` bounds the norm of the projected gradient at convergence;
    ``max_iter`` the Newton iterations and ``max_halvings`` the step
    halvings of one line search.
    """

    tol: float = 1e-8
    max_iter: int = 50
    max_halvings: int = 30

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ConfigError("tol must be positive")


@dataclass
class ModeResult:
    """Outcome of constrained mode finding for one psi.

    ``value`` is the psi-free part of the log-joint at the mode
    (log-likelihood minus half the prior quadratic form); ``log_det_H``
    the log-determinant of the negative Hessian restricted to the
    constraint subspace. ``factorizations`` and ``halvings`` count the
    work the search did; ``_lu`` holds the factorization at the mode.
    """

    theta_star: np.ndarray
    value: float
    log_det_H: float
    grad_norm: float
    iterations: int
    converged: bool
    factorizations: int = 0
    halvings: int = 0
    _lu: Any = field(default=None, repr=False)


def _center_blocks(x: np.ndarray, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Subtract each block's mean in place: the projection onto A x = 0."""
    for blk in blocks:
        x[blk] -= x[blk].mean()
    return x


# ---------------------------------------------------------------------------
# the negative-Hessian factorization


class _ArrowPlan:
    """Where each stored entry of one CSC pattern of ``H`` goes in the factor.

    The field coordinates (the union of the constraint blocks) come first,
    in block order, or interleaved position by position when the blocks
    share a length: fields on one grid couple cell by cell, so that keeps
    the band as narrow as one field's. The plan is a function of the
    pattern alone, so it is built once and reused while the pattern
    repeats.
    """

    def __init__(self, H: sp.csc_matrix, blocks: Sequence[np.ndarray]):
        n = self.n = H.shape[0]
        self.indptr, self.indices = H.indptr.copy(), H.indices.copy()
        self.blocks = [np.asarray(b) for b in blocks]
        if len(blocks) > 1 and len({len(b) for b in blocks}) == 1:
            self.field = np.stack(self.blocks, axis=1).ravel()
        elif blocks:
            self.field = np.concatenate(self.blocks)
        else:
            self.field = np.zeros(0, dtype=np.intp)
        in_field = np.zeros(n, dtype=bool)
        in_field[self.field] = True
        self.border = np.flatnonzero(~in_field)
        nf, nb = self.nf, self.nb = self.field.size, self.border.size
        pos = np.empty(n, dtype=np.intp)
        pos[self.field] = np.arange(nf)
        pos[self.border] = np.arange(nb)
        rows = H.indices
        cols = np.repeat(np.arange(n), np.diff(H.indptr))
        pr, pc = pos[rows], pos[cols]
        row_f, col_f = in_field[rows], in_field[cols]
        lower = row_f & col_f & (pr >= pc)
        self.bandwidth = int((pr[lower] - pc[lower]).max()) if nf else 0
        # LAPACK lower band storage: ab[i - j, j] = F[i, j]
        self.f_src = np.flatnonzero(lower)
        self.f_dst = (pr[lower] - pc[lower]) * nf + pc[lower]
        self.c_src = np.flatnonzero(row_f & ~col_f)
        self.c_dst = pr[self.c_src] * nb + pc[self.c_src]
        self.b_src = np.flatnonzero(~row_f & ~col_f)
        self.b_dst = pr[self.b_src] * nb + pc[self.b_src]

    def matches(self, H: sp.csc_matrix, blocks: Sequence[np.ndarray]) -> bool:
        return (
            H.shape[0] == self.n
            and np.array_equal(H.indptr, self.indptr)
            and np.array_equal(H.indices, self.indices)
            and len(blocks) == len(self.blocks)
            and all(np.array_equal(a, b) for a, b in zip(blocks, self.blocks))
        )


_last_plan: _ArrowPlan | None = None


def _plan_for(H: sp.csc_matrix, blocks: Sequence[np.ndarray]) -> _ArrowPlan:
    """The plan for H's pattern and blocks.

    Every Newton step of a fit has one pattern, and building a plan costs
    most of a factorization, so the last plan is kept. A plan is a pure
    function of what ``matches`` compares and is not changed after it is
    built, so sharing it between callers and threads changes no result.
    """
    global _last_plan
    plan = _last_plan
    if plan is None or not plan.matches(H, blocks):
        plan = _last_plan = _ArrowPlan(H, blocks)
    return plan


class _Factor:
    """Cholesky factor of the SPD ``H`` in arrow form, with kriging on ``A``.

    ``H`` permuted to [field, border] is [[F, C], [C', B]] = L L' with
    L = [[Lf, 0], [W', Ls]], Lf the banded Cholesky factor of F,
    W = Lf^-1 C and Ls the dense Cholesky factor of B - W'W.
    """

    def __init__(self, H: sp.spmatrix, blocks: Sequence[np.ndarray]):
        H = sp.csc_matrix(H)
        H.sum_duplicates()
        p = self.plan = _plan_for(H, blocks)
        self.n = p.n
        nf, nb = p.nf, p.nb
        log_det = 0.0
        W = _scatter(H.data, p.c_src, p.c_dst, (nf, nb))
        S = _scatter(H.data, p.b_src, p.b_dst, (nb, nb))
        if nf:
            ab = _scatter(H.data, p.f_src, p.f_dst, (p.bandwidth + 1, nf))
            self.Lf, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
            if info != 0:
                raise NumericError(f"field block is not positive definite (minor {info})")
            log_det += 2.0 * float(np.log(self.Lf[0]).sum())
            if nb:
                W = self._field_solve(W)
                S -= W.T @ W
        self.W = W
        if nb:
            self.Ls, info = lapack.dpotrf(S, lower=1, clean=1, overwrite_a=1)
            if info != 0:
                raise NumericError(f"border Schur complement is not positive definite (minor {info})")
            log_det += 2.0 * float(np.log(np.diag(self.Ls)).sum())

        # conditioning by kriging on the block-sum rows; A has disjoint
        # indicator rows, so log det(AA') is the sum of log block sizes
        self.blocks = p.blocks
        if self.blocks:
            self.V = self.solve(self._at(np.eye(len(self.blocks))))
            try:
                self.Lm = np.linalg.cholesky(self._a(self.V))
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"A H^-1 A' is not positive definite: {exc}") from exc
            log_det += 2.0 * float(np.log(np.diag(self.Lm)).sum())
            log_det -= float(sum(np.log(len(b)) for b in self.blocks))
        if not np.isfinite(log_det):
            raise NumericError("non-finite log-determinant of the negative Hessian")
        self.log_det = log_det

    def _a(self, X: np.ndarray) -> np.ndarray:
        """A @ X: block sums of the rows of X."""
        return np.array([X[b].sum(axis=0) for b in self.blocks])

    def _at(self, Y: np.ndarray) -> np.ndarray:
        """A' @ Y for Y with one row per block."""
        out = np.zeros((self.n, Y.shape[1]))
        for b, row in zip(self.blocks, Y):
            out[b] = row
        return out

    def _field_solve(self, X: np.ndarray, trans: str = "N") -> np.ndarray:
        """Lf^-1 X (or Lf'^-1 X)."""
        return lapack.dtbtrs(self.Lf, X, uplo="L", trans=trans)[0]

    def _border_solve(self, X: np.ndarray, trans: int = 0) -> np.ndarray:
        """Ls^-1 X (or Ls'^-1 X)."""
        return lapack.dtrtrs(self.Ls, X, lower=1, trans=trans)[0]

    def solve(self, R: np.ndarray) -> np.ndarray:
        """H^-1 R for R of shape (n, k)."""
        p = self.plan
        out = np.empty(R.shape)
        zf = self._field_solve(R[p.field]) if p.nf else R[p.field]
        xb = R[p.border]
        if p.nb:
            zb = self._border_solve(xb - self.W.T @ zf)
            xb = self._border_solve(zb, trans=1)
            out[p.border] = xb
        if p.nf:
            out[p.field] = self._field_solve(zf - self.W @ xb, trans="T")
        return out

    def step(self, g: np.ndarray) -> np.ndarray:
        """The Newton step on A delta = 0: H^-1 g - V M^-1 A H^-1 g."""
        d = self.solve(g.reshape(-1, 1))
        if self.blocks:
            d -= self.V @ cho_solve((self.Lm, True), self._a(d))
        return d[:, 0]

    def variances(self, chunk: int) -> np.ndarray:
        """Diagonal of the constrained covariance H^-1 - V M^-1 V'."""
        p = self.plan
        var = np.empty(self.n)
        if p.nb:
            Ls_inv = lapack.dtrtri(self.Ls, lower=1)[0]
            var[p.border] = (Ls_inv**2).sum(axis=0)
        if p.nf:
            # diag(F^-1) from column norms of Lf^-1; column j is zero above j
            d = np.empty(p.nf)
            for start in range(0, p.nf, chunk):
                stop = min(start + chunk, p.nf)
                E = np.eye(p.nf - start, stop - start)
                Z = lapack.dtbtrs(self.Lf[:, start:], E, uplo="L")[0]
                d[start:stop] = (Z**2).sum(axis=0)
            if p.nb:
                # + diag(F^-1 C S^-1 C' F^-1), rows of Lf'^-1 W Ls'^-1
                Y = self._field_solve(self._border_solve(self.W.T).T, trans="T")
                d += (Y**2).sum(axis=1)
            var[p.field] = d
        if self.blocks:
            var -= (np.linalg.solve(self.Lm, self.V.T) ** 2).sum(axis=0)
        return var


def _scatter(data: np.ndarray, src: np.ndarray, dst: np.ndarray, shape) -> np.ndarray:
    out = np.zeros(shape[0] * shape[1])
    out[dst] = data[src]
    return out.reshape(shape)


def find_mode(
    psi,
    model,
    theta0: np.ndarray | None = None,
    opts: NewtonOptions | None = None,
) -> ModeResult:
    """Damped Newton ascent of the log-joint on the constrained subspace.

    Starts from zero (always feasible) unless ``theta0`` is given; every
    iterate is re-centered so the constrained blocks sum to zero exactly.
    Convergence means the gradient projected onto the constraint nullspace
    has norm <= ``opts.tol``; non-convergence is reported in the result,
    not raised. Line search backtracks by halving and accepts ties.
    A negative Hessian that fails to factor raises NumericError.
    """
    o = opts or NewtonOptions()
    n = model.n_total
    blocks = model.constraint_blocks
    sigma = model.prior_precision(psi)

    theta = np.zeros(n) if theta0 is None else np.array(theta0, dtype=float)
    if theta.shape != (n,):
        raise ConfigError(f"theta0 has shape {theta.shape}, model wants ({n},)")
    _center_blocks(theta, blocks)

    def core(th: np.ndarray) -> float:
        ll = model.loglik(th)
        if ll == -np.inf:
            return -np.inf
        return ll - 0.5 * model.prior_quad(th, psi)

    def factor(fish, where: str) -> _Factor:
        nonlocal factorizations
        factorizations += 1
        try:
            return _Factor(sigma + fish, blocks)
        except NumericError as exc:
            raise NumericError(f"negative-Hessian factorization failed {where}: {exc}") from exc

    value = core(theta)
    if value == -np.inf:
        raise NumericError("log-joint is -inf at the starting point")

    converged = False
    grad_norm = np.inf
    it = 0
    factorizations = halvings = 0
    fish = fac = None  # Fisher matrix and factor at theta, while current
    for it in range(1, o.max_iter + 1):
        ll, lgrad, fish = model.lik_parts(theta)
        # the projected gradient gives the same step as the raw one, whose
        # part in the span of A' does not vanish at the mode: kriging would
        # cancel it only to within rounding, an error that does not shrink
        # with the step
        pgrad = _center_blocks(lgrad - sigma @ theta, blocks)
        grad_norm = float(np.linalg.norm(pgrad))
        if grad_norm <= o.tol:
            converged = True
            break
        fac = factor(fish, f"at iteration {it}")
        delta = fac.step(pgrad)
        accepted = False
        moved = False
        t = 1.0
        for _ in range(o.max_halvings + 1):
            cand = _center_blocks(theta + t * delta, blocks)
            v = core(cand)
            # ties are accepted: near the mode the true ascent of a Newton
            # step falls below the objective's floating-point resolution
            # while the step itself still contracts toward the optimum.
            if v >= value:
                moved = bool(np.any(cand != theta))
                theta, value = cand, v
                accepted = True
                break
            t *= 0.5
            halvings += 1
        if not accepted or not moved:
            log.debug("line search stalled at iteration %d (|g|=%.3e)", it, grad_norm)
            break
        fish = fac = None

    # The factor at the final point gives the constrained log-determinant
    # now and the marginal variances later.
    if fac is None:
        if fish is None:
            _, _, fish = model.lik_parts(theta)
        fac = factor(fish, "at mode")

    return ModeResult(
        theta_star=theta,
        value=value,
        log_det_H=fac.log_det,
        grad_norm=grad_norm,
        iterations=it,
        converged=converged,
        factorizations=factorizations,
        halvings=halvings,
        _lu=fac,
    )


def log_psi_posterior(
    psi,
    model,
    theta0: np.ndarray | None = None,
    opts: NewtonOptions | None = None,
) -> float:
    """Unnormalized log posterior of the precisions, by Laplace approximation.

    log p(y|th*) + log p(th*|psi) + log p(psi) + (d/2) log 2pi
    − ½ log det H, with d the constrained dimension; the (d/2) log 2pi
    cancels against the prior's normalizer. Raises on non-convergence of
    the inner mode search.
    """
    return _psi_objective(psi, model, theta0, opts)[0]


def _psi_objective(
    psi,
    model,
    theta0: np.ndarray | None = None,
    opts: NewtonOptions | None = None,
) -> tuple[float, ModeResult]:
    mode = find_mode(psi, model, theta0=theta0, opts=opts)
    return _laplace_value(psi, model, mode), mode


def _laplace_value(psi, model, mode: ModeResult) -> float:
    if not mode.converged:
        raise NumericError(
            f"mode search did not converge (final |grad| = {mode.grad_norm:.3e})"
        )
    # mode.value already holds loglik − ½ th' Sigma th; add the prior's
    # normalization, the hyperprior, and the Gaussian-integral correction.
    lp = (
        mode.value
        + 0.5 * model.log_prior_gendet(psi)
        + model.log_hyperprior(psi)
        - 0.5 * mode.log_det_H
    )
    return float(lp)


def marginal_sd(mode: ModeResult, n: int, chunk: int = 256) -> np.ndarray:
    """Posterior marginal standard deviations at one mode.

    The variances are the diagonal of H^-1 less the kriging correction,
    i.e. of the covariance of the constrained Gaussian approximation;
    ``chunk`` bounds the identity columns solved against the banded field
    factor at once.
    """
    if mode._lu is None:
        raise NumericError("mode result carries no factorization")
    if n != mode._lu.n:
        raise ConfigError(f"asked for {n} marginal sds of a {mode._lu.n}-coordinate mode")
    var = mode._lu.variances(chunk)
    bad = var <= 0
    if np.any(bad):
        raise NumericError(
            f"{int(bad.sum())} non-positive marginal variances — ill-conditioned fit"
        )
    return np.sqrt(var)


# ---------------------------------------------------------------------------
# hyperparameter search


@dataclass(frozen=True)
class GridConfig:
    points: int = 5
    spacing: float = 0.75

    def __post_init__(self) -> None:
        if self.points < 1 or self.spacing <= 0:
            raise ConfigError("grid needs points >= 1 and positive spacing")


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
    """Deterministic coordinate (compass) search with memoized evaluations.

    Only the best candidate's ModeResult keeps its factorization; cached
    entries are stripped, since a search touches on the order of a hundred
    points and each factor holds dense blocks of n × (border + constraints).
    """

    def __init__(self, model, opts: NewtonOptions | None):
        self.model = model
        self.opts = opts
        self.cache: dict[tuple, tuple[float, ModeResult | None]] = {}
        self.warm: np.ndarray | None = None
        self.best_value = -np.inf
        self.best_mode: ModeResult | None = None
        self.evals = 0
        self.cache_hits = 0
        self.rejected = 0
        self.work: Counter = Counter()

    def __call__(self, vec: np.ndarray) -> float:
        key = tuple(np.round(vec, 10))
        hit = self.cache.get(key)
        if hit is None:
            psi = self.model.psi_from_free(vec)
            try:
                mode = find_mode(psi, self.model, theta0=self.warm, opts=self.opts)
                _tally(self.work, mode)
                lp = _laplace_value(psi, self.model, mode)
            except NumericError as exc:
                log.warning("rejecting candidate %s: %s", np.round(vec, 3), exc)
                lp, mode = -np.inf, None
                self.rejected += 1
            self.evals += 1
            if mode is not None and lp > self.best_value:
                self.best_value = lp
                self.best_mode = mode
                self.warm = mode.theta_star
            stripped = None if mode is None else replace(mode, _lu=None)
            self.cache[key] = hit = (lp, stripped)
        else:
            self.cache_hits += 1
        return hit[0]


def _tally(work: Counter, mode: ModeResult) -> None:
    """Add one mode search's deterministic work counts."""
    work["newton_iterations"] += mode.iterations
    work["factorizations"] += mode.factorizations
    work["line_search_halvings"] += mode.halvings


def empirical_bayes(
    model, opts: NewtonOptions | None = None
) -> tuple[np.ndarray, _Search]:
    """Maximize the hyperparameter posterior over log precisions.

    Coordinate search from the origin: at each scale, sweep coordinates
    trying +/- step and accept improvements until a full sweep fails, then
    halve the step; stop below ``SEARCH_MIN_STEP``. Entirely deterministic.
    """
    ev = _Search(model, opts)
    x = np.zeros(model.n_free)
    best = ev(x)
    step = SEARCH_STEP0
    while step >= SEARCH_MIN_STEP:
        improved_any = True
        while improved_any:
            improved_any = False
            for j in range(model.n_free):
                for sgn in (1.0, -1.0):
                    cand = x.copy()
                    cand[j] = float(np.clip(cand[j] + sgn * step, *SEARCH_BOUNDS))
                    if cand[j] == x[j]:
                        continue
                    v = ev(cand)
                    if v > best:
                        best, x = v, cand
                        improved_any = True
        step *= 0.5
    return x, ev


def grid_posterior(
    model,
    center: np.ndarray,
    config: GridConfig,
    opts: NewtonOptions | None = None,
    warm: np.ndarray | None = None,
    threads: int = 1,
) -> tuple[PsiGrid, list[ModeResult]]:
    """Evaluate a centered lattice in log-precision space.

    Posterior masses are exp(log posterior + sum of log precisions): the
    second term is the Jacobian that converts the density over precisions
    to the log scale the (uniform) lattice lives on. Each point is
    warm-started from the same center mode, so results are independent of
    evaluation order and thread count.
    """
    k = model.n_free
    offsets = config.spacing * (np.arange(config.points) - (config.points - 1) / 2)
    points = np.array([
        center + np.array(combo)
        for combo in itertools.product(offsets, repeat=k)
    ])

    def one(vec: np.ndarray) -> tuple[float, ModeResult]:
        psi = model.psi_from_free(vec)
        return _psi_objective(psi, model, theta0=warm, opts=opts)

    results = parallel_map(one, points, threads)
    lp = np.array([r[0] for r in results])
    modes = [r[1] for r in results]
    log_mass = lp + points.sum(axis=1)
    log_mass -= log_mass.max()
    w = np.exp(log_mass)
    w /= w.sum()
    return PsiGrid(points=points, weights=w, free_names=model.free_names()), modes


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
    seed: int
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
            "seed": self.seed,
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
            return cls(
                spec=spec,
                grid=GridSpec.from_json_dict(d["grid"]),
                prior=PriorSpec.from_json_dict(d["prior"]),
                layout=ThetaLayout.from_json_dict(d["layout"]),
                shoe_ids=list(d["shoe_ids"]),
                strategy=str(d["strategy"]),
                seed=int(d["seed"]),
                psi_map=Hyperparams.from_json_dict(d["psi_map"], spec),
                psi_grid=PsiGrid.from_json_dict(d["psi_grid"]),
                marginal_mean=np.array(d["marginal_mean"], dtype=float),
                marginal_sd=np.array(d["marginal_sd"], dtype=float),
                diagnostics=dict(d.get("diagnostics", {})),
            )
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise InputDataError(f"malformed fit result: {exc!r}") from exc


def fit(
    records: Sequence[ShoeRecord],
    spec: ModelSpec,
    grid: GridSpec,
    prior: PriorSpec | None = None,
    strategy: str = "empirical_bayes",
    grid_config: GridConfig | None = None,
    seed: int = 0,
    threads: int = 1,
    opts: NewtonOptions | None = None,
) -> FitResult:
    """Fit the model: hyperparameter search, then Gaussian marginals.

    ``strategy`` is "empirical_bayes" (marginals at the maximizing
    precisions) or "grid" (mixture over a centered lattice of precisions
    weighted by posterior mass). The returned marginal means of every
    constrained block sum to zero. Deterministic for fixed inputs; the
    seed is carried into the result for provenance but no randomness is
    consumed.

    The inner Newton tolerance defaults to 1e-6 here (pass ``opts`` to
    tighten): on dataset-sized problems the log-joint cannot resolve the
    ascent left below that, and the mode is already located far more
    precisely than the posterior spread.
    """
    if strategy not in ("empirical_bayes", "grid"):
        raise ConfigError(f"unknown strategy {strategy!r}")
    t_start = time.perf_counter()
    model = ShoeModel(records, spec, grid, prior)
    if model.y.sum() == 0:
        raise InputDataError("degenerate dataset: every accidental count is zero")
    o = opts or NewtonOptions(tol=1e-6)

    map_vec, search = empirical_bayes(model, opts=o)
    lp_map, map_mode = search.best_value, search.best_mode
    if map_mode is None:
        raise NumericError("hyperparameter search found no evaluable point")

    if strategy == "empirical_bayes":
        psi_grid = PsiGrid(
            points=map_vec.reshape(1, -1),
            weights=np.array([1.0]),
            free_names=model.free_names(),
        )
        modes = [map_mode]
    else:
        psi_grid, modes = grid_posterior(
            model, map_vec, grid_config or GridConfig(), opts=o,
            warm=map_mode.theta_star, threads=threads,
        )

    work = Counter(search.work)
    if strategy == "grid":
        for m in modes:
            _tally(work, m)

    n = model.n_total
    sds = [marginal_sd(m, n) for m in modes]
    means = np.stack([m.theta_star for m in modes])
    w = psi_grid.weights[:, None]
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
        "newton_iterations": int(work["newton_iterations"]),
        "factorizations": int(work["factorizations"]),
        "line_search_halvings": int(work["line_search_halvings"]),
        "psi_rejected": int(search.rejected),
        "psi_cache_hits": int(search.cache_hits),
        "search_start_log_tau": 0.0,
        "search_initial_step": SEARCH_STEP0,
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
        seed=seed,
        psi_map=model.psi_from_free(map_vec),
        psi_grid=psi_grid,
        marginal_mean=mean,
        marginal_sd=sd,
        diagnostics=diagnostics,
    )
