"""The latent Gaussian model: parameter layout, priors, likelihood, derivatives.

The log intensity for shoe ``s`` at cell ``a`` is

    eta[s, a] = shoe[s] + sum_k x[s, a, k] * fixed[k]
              + smooth[a] + sum_j xv[s, a, j] * varying[j][a]

with ``x``/``xv`` the covariate tensors of :mod:`coxforge.design`, counts
Poisson(exp(eta)), Gaussian priors on every block (intrinsic ones on the
spatial fields), and Exponential hyperpriors on the free precisions.

:class:`ShoeModel` packages all of that behind the small interface the
inference engine consumes (log-likelihood, gradient, Fisher information,
prior precision, hyperprior). The Fisher matrix is assembled from dense
per-block products rather than a generic sparse triple product — the
design matrix has exactly one entry per block per row, so every block of
B' diag(w) B collapses to a small dense matrix or a diagonal, which is an
order of magnitude faster at fitting scale — and gathered into a CSC
pattern computed once per model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln

from . import design as dz
from .design import ModelSpec, interaction_order
from .errors import ConfigError, InputDataError, NumericError
from .gmrf import besag_precision, log_gen_det
from .grids import GridSpec, ShoeRecord

log = logging.getLogger("coxforge.model")

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class PriorSpec:
    """Prior and hyperprior settings.

    ``rate_*`` are Exponential-hyperprior rates on the precisions;
    ``fixef_var`` is the Gaussian prior variance of the fixed effects
    (the precision block is its reciprocal); ``fixed_tau_high_order`` is
    the precision pinned on varying-coefficient fields whose covariate
    index multiplies two or more factors — those precisions are policy
    constants, not inferred.
    """

    rate_tau_s: float = 5e-5
    rate_tau_sm: float = 5e-4
    rate_tau_i: float = 5e-4
    fixef_var: float = 1000.0
    fixed_tau_high_order: float = 100.0

    def __post_init__(self) -> None:
        for name in ("rate_tau_s", "rate_tau_sm", "rate_tau_i", "fixef_var",
                     "fixed_tau_high_order"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"prior setting {name} must be positive")

    def to_json_dict(self) -> dict:
        return {
            "rate_tau_s": self.rate_tau_s,
            "rate_tau_sm": self.rate_tau_sm,
            "rate_tau_i": self.rate_tau_i,
            "fixef_var": self.fixef_var,
            "fixed_tau_high_order": self.fixed_tau_high_order,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PriorSpec":
        known = {f: d[f] for f in cls.__dataclass_fields__ if f in d}
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown prior keys: {sorted(extra)}")
        return cls(**{k: float(v) for k, v in known.items()})


def free_varying_mask(spec: ModelSpec) -> np.ndarray:
    """True where a varying index's precision is inferred (order <= 1)."""
    return np.array([interaction_order(i) <= 1 for i in spec.varying], dtype=bool)


@dataclass(frozen=True)
class Hyperparams:
    """One point in precision space: tau_s, tau_sm, and per-field tau_v.

    ``tau_v`` carries every varying-coefficient precision, including the
    policy-fixed high-order ones; which entries are actually free is a
    property of the model spec, not of this value object. ``tau_sm`` is
    None exactly when the model has no smooth field.
    """

    tau_s: float
    tau_sm: float | None = None
    tau_v: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        vals = [self.tau_s] + ([self.tau_sm] if self.tau_sm is not None else []) \
            + list(self.tau_v)
        if any((not np.isfinite(v)) or v <= 0 for v in vals):
            raise ConfigError(f"precisions must be positive and finite: {self}")

    def to_json_dict(self, spec: ModelSpec) -> dict:
        return {
            "tau_s": self.tau_s,
            "tau_sm": self.tau_sm,
            "tau_v": {
                dz.index_to_string(i): v for i, v in zip(spec.varying, self.tau_v)
            },
        }

    @classmethod
    def from_json_dict(cls, d: dict, spec: ModelSpec) -> "Hyperparams":
        tau_v = tuple(d.get("tau_v", {}).get(dz.index_to_string(i)) for i in spec.varying)
        if any(v is None for v in tau_v):
            raise ConfigError("hyperparameter record missing varying-field precisions")
        return cls(
            tau_s=float(d["tau_s"]),
            tau_sm=None if d.get("tau_sm") is None else float(d["tau_sm"]),
            tau_v=tuple(float(v) for v in tau_v),
        )


@dataclass(frozen=True)
class ThetaLayout:
    """Block offsets inside the stacked parameter vector.

    Order: shoe effects, fixed effects, smooth field (if present), one
    field per varying index. ``constrained_dim`` is the total length minus
    one per sum-to-zero block — the dimension the posterior actually
    lives in.
    """

    n_shoes: int
    n_fixed: int
    n_cells: int
    n_varying: int
    smooth: bool

    @property
    def shoe(self) -> slice:
        return slice(0, self.n_shoes)

    @property
    def fixed(self) -> slice:
        return slice(self.n_shoes, self.n_shoes + self.n_fixed)

    @property
    def smooth_block(self) -> slice | None:
        if not self.smooth:
            return None
        start = self.n_shoes + self.n_fixed
        return slice(start, start + self.n_cells)

    def varying_block(self, j: int) -> slice:
        if not 0 <= j < self.n_varying:
            raise ConfigError(f"varying block {j} out of range")
        start = self.n_shoes + self.n_fixed + (1 if self.smooth else 0) * self.n_cells
        start += j * self.n_cells
        return slice(start, start + self.n_cells)

    @property
    def n_total(self) -> int:
        n_fields = (1 if self.smooth else 0) + self.n_varying
        return self.n_shoes + self.n_fixed + n_fields * self.n_cells

    @property
    def n_constraints(self) -> int:
        return (1 if self.smooth else 0) + self.n_varying

    @property
    def constrained_dim(self) -> int:
        return self.n_total - self.n_constraints

    @classmethod
    def for_model(cls, n_shoes: int, spec: ModelSpec, n_cells: int) -> "ThetaLayout":
        return cls(
            n_shoes=n_shoes,
            n_fixed=len(spec.fixed),
            n_cells=n_cells,
            n_varying=len(spec.varying),
            smooth=spec.smooth,
        )

    def to_json_dict(self) -> dict:
        return {
            "n_shoes": self.n_shoes, "n_fixed": self.n_fixed,
            "n_cells": self.n_cells, "n_varying": self.n_varying,
            "smooth": self.smooth,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ThetaLayout":
        return cls(
            n_shoes=int(d["n_shoes"]), n_fixed=int(d["n_fixed"]),
            n_cells=int(d["n_cells"]), n_varying=int(d["n_varying"]),
            smooth=bool(d["smooth"]),
        )


class ShoeModel:
    """Likelihood, priors, and derivatives for a set of shoe records.

    Parameters
    ----------
    records : list of ShoeRecord
        The data; order fixes the shoe-effect indexing.
    spec : ModelSpec
    grid : GridSpec
    prior : PriorSpec
    """

    def __init__(
        self,
        records: Sequence[ShoeRecord],
        spec: ModelSpec,
        grid: GridSpec,
        prior: PriorSpec | None = None,
    ) -> None:
        if not records:
            raise InputDataError("no shoe records")
        for rec in records:
            rec.validate(grid)
        self.spec = spec
        self.grid = grid
        self.prior = prior or PriorSpec()
        self.records = list(records)
        self.shoe_ids = [r.shoe_id for r in self.records]
        if len(set(self.shoe_ids)) != len(self.shoe_ids):
            raise ConfigError("duplicate shoe_ids in record list")
        self.layout = ThetaLayout.for_model(len(records), spec, grid.n_cells)

        self.x = dz.build_tensor(self.records, spec.fixed, spec, grid)  # (S, A, K)
        self.xv = dz.build_tensor(self.records, spec.varying, spec, grid)  # (S, A, V)
        self.y = np.stack([r.counts.reshape(-1) for r in self.records]).astype(float)
        self._log_yfact = float(gammaln(self.y + 1.0).sum())

        lay = self.layout
        if lay.n_constraints > 0:
            self.Q = besag_precision(grid)
            self.log_gendet_q = log_gen_det(self.Q)
            qc = self.Q.tocoo()
            self._q_rows, self._q_cols, self._q_data = qc.row, qc.col, qc.data
        else:
            self.Q = None
            self.log_gendet_q = 0.0

        self.free_v = free_varying_mask(spec)
        self.n_free = 1 + (1 if spec.smooth else 0) + int(self.free_v.sum())
        self.constraint_blocks = self._constraint_blocks()

    # -- hyperparameter plumbing -------------------------------------------

    def free_names(self) -> list[str]:
        names = ["tau_s"]
        if self.spec.smooth:
            names.append("tau_sm")
        for j, idx in enumerate(self.spec.varying):
            if self.free_v[j]:
                names.append(f"tau_v[{dz.index_to_string(idx)}]")
        return names

    def psi_from_free(self, log_tau: np.ndarray) -> Hyperparams:
        """Expand the free log-precision vector into a full Hyperparams."""
        vec = np.asarray(log_tau, dtype=float)
        if vec.shape != (self.n_free,):
            raise ConfigError(f"expected {self.n_free} free log-precisions, got {vec.shape}")
        it = iter(np.exp(vec))
        tau_s = next(it)
        tau_sm = next(it) if self.spec.smooth else None
        tau_v = []
        for j in range(self.layout.n_varying):
            tau_v.append(next(it) if self.free_v[j] else self.prior.fixed_tau_high_order)
        return Hyperparams(tau_s=tau_s, tau_sm=tau_sm, tau_v=tuple(tau_v))

    def free_from_psi(self, psi: Hyperparams) -> np.ndarray:
        out = [np.log(psi.tau_s)]
        if self.spec.smooth:
            out.append(np.log(psi.tau_sm))
        for j in range(self.layout.n_varying):
            if self.free_v[j]:
                out.append(np.log(psi.tau_v[j]))
        return np.array(out)

    def log_hyperprior(self, psi: Hyperparams) -> float:
        """Sum of Exponential log-densities over the *free* precisions."""
        p = self.prior
        out = np.log(p.rate_tau_s) - p.rate_tau_s * psi.tau_s
        if self.spec.smooth:
            out += np.log(p.rate_tau_sm) - p.rate_tau_sm * psi.tau_sm
        for j in range(self.layout.n_varying):
            if self.free_v[j]:
                out += np.log(p.rate_tau_i) - p.rate_tau_i * psi.tau_v[j]
        return float(out)

    # -- constraints --------------------------------------------------------

    def _constraint_blocks(self) -> tuple[np.ndarray, ...]:
        lay = self.layout
        blocks = []
        if lay.smooth:
            blocks.append(np.arange(lay.smooth_block.start, lay.smooth_block.stop))
        for j in range(lay.n_varying):
            blk = lay.varying_block(j)
            blocks.append(np.arange(blk.start, blk.stop))
        return tuple(blocks)

    # -- likelihood and derivatives ------------------------------------------

    def eta(self, theta: np.ndarray) -> np.ndarray:
        """Linear predictor per (shoe, cell), shape (S, A)."""
        lay = self.layout
        out = theta[lay.shoe][:, None] + self.x @ theta[lay.fixed]
        if lay.smooth:
            out = out + theta[lay.smooth_block][None, :]
        for j in range(lay.n_varying):
            out = out + self.xv[:, :, j] * theta[lay.varying_block(j)][None, :]
        return out

    def eta1(self, theta: np.ndarray, record: ShoeRecord) -> np.ndarray:
        """Shoe-effect-free predictor over cells for one record, shape (A,)."""
        lay = self.layout
        x = dz.build_tensor([record], self.spec.fixed, self.spec, self.grid)[0]
        xv = dz.build_tensor([record], self.spec.varying, self.spec, self.grid)[0]
        out = x @ theta[lay.fixed]
        if lay.smooth:
            out = out + theta[lay.smooth_block]
        for j in range(lay.n_varying):
            out = out + xv[:, j] * theta[lay.varying_block(j)]
        return out

    def loglik(self, theta: np.ndarray) -> float:
        eta = self.eta(theta)
        with np.errstate(over="ignore"):
            lam_sum = np.exp(eta).sum()
        if not np.isfinite(lam_sum):
            return -np.inf
        return float((self.y * eta).sum() - lam_sum - self._log_yfact)

    def loglik_grad(self, theta: np.ndarray) -> np.ndarray:
        resid = self.y - np.exp(self.eta(theta))  # (S, A)
        if not np.all(np.isfinite(resid)):
            raise NumericError("non-finite intensity in gradient evaluation")
        return self._project_rows(resid)

    def lik_parts(
        self, theta: np.ndarray
    ) -> tuple[float, np.ndarray, sp.csc_matrix]:
        """(log-likelihood, its gradient, Fisher matrix) sharing one intensity pass."""
        eta = self.eta(theta)
        lam = np.exp(eta)
        if not np.all(np.isfinite(lam)):
            raise NumericError("non-finite intensity in likelihood evaluation")
        value = float((self.y * eta).sum() - lam.sum() - self._log_yfact)
        grad = self._project_rows(self.y - lam)
        return value, grad, self._fisher_matrix(lam)

    @property
    def n_total(self) -> int:
        return self.layout.n_total

    def _project_rows(self, r: np.ndarray) -> np.ndarray:
        """B' @ vec(r) for a per-(shoe, cell) array r, done blockwise."""
        lay = self.layout
        g = np.empty(lay.n_total)
        g[lay.shoe] = r.sum(axis=1)
        g[lay.fixed] = np.einsum("sa,sak->k", r, self.x)
        if lay.smooth:
            g[lay.smooth_block] = r.sum(axis=0)
        for j in range(lay.n_varying):
            g[lay.varying_block(j)] = (r * self.xv[:, :, j]).sum(axis=0)
        return g

    # Fisher assembly: the CSC pattern is fixed by the layout; per-iteration
    # work is only the dense block products and one gather into the pattern.

    @cached_property
    def _fisher_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(gather order, row indices, column pointers) of the Fisher CSC matrix.

        ``_fisher_data(w)[order]`` lists the entries column by column, rows
        ascending; every (row, col) pair occurs once. Built on first use:
        models made only to evaluate η never need it.
        """
        rows, cols = self._build_fisher_index()
        order = np.lexsort((rows, cols))
        n = self.layout.n_total
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        return order, rows[order].astype(np.int32), indptr

    def _fisher_matrix(self, w: np.ndarray) -> sp.csc_matrix:
        order, indices, indptr = self._fisher_pattern
        n = self.layout.n_total
        return sp.csc_matrix((self._fisher_data(w)[order], indices, indptr), shape=(n, n))

    def _build_fisher_index(self) -> tuple[np.ndarray, np.ndarray]:
        lay = self.layout
        S, K, A, V = lay.n_shoes, lay.n_fixed, lay.n_cells, lay.n_varying
        sh = np.arange(S)
        fx = lay.fixed.start + np.arange(K)
        rows, cols = [], []

        def block(r, c):
            rows.append(r)
            cols.append(c)

        block(sh, sh)                                             # shoe diag
        r = np.repeat(sh, K); c = np.tile(fx, S)
        block(r, c); block(c, r)                                  # shoe x fixed
        r = np.repeat(fx, K); c = np.tile(fx, K)
        block(r, c)                                               # fixed x fixed
        field_ids = []
        if lay.smooth:
            field_ids.append(lay.smooth_block.start + np.arange(A))
        for j in range(V):
            field_ids.append(lay.varying_block(j).start + np.arange(A))
        for fid in field_ids:
            r = np.repeat(sh, A); c = np.tile(fid, S)
            block(r, c); block(c, r)                              # shoe x field
            r = np.repeat(fid, K); c = np.tile(fx, A)
            block(r, c); block(c, r)                              # field x fixed
        for i, fi in enumerate(field_ids):
            for fj in field_ids[i:]:
                block(fi, fj)                                     # field x field diag
                if fj is not fi:
                    block(fj, fi)
        return np.concatenate(rows), np.concatenate(cols)

    def _fisher_data(self, w: np.ndarray) -> np.ndarray:
        """Data vector matching :meth:`_build_fisher_index` for weights w (S, A).

        Mirrored blocks reuse the same flattened data: the index arrays for
        the (col, row) copy traverse entries in the original (row, col)
        order, so the values repeat verbatim.
        """
        lay = self.layout
        K = lay.n_fixed
        xw = self.x * w[:, :, None]                               # (S, A, K)
        parts = [w.sum(axis=1)]                                   # shoe diag
        m_sf = xw.sum(axis=1).ravel()                             # (S, K)
        parts += [m_sf, m_sf]
        m_ff = xw.reshape(-1, K).T @ self.x.reshape(-1, K)        # (K, K)
        parts.append(m_ff.ravel())
        fields = []
        if lay.smooth:
            fields.append(None)  # multiplier 1
        fields.extend(range(lay.n_varying))
        f_arrs = [w if f is None else w * self.xv[:, :, f] for f in fields]
        for fa in f_arrs:
            fa_flat = fa.ravel()
            parts += [fa_flat, fa_flat]                           # shoe x field
            m_af = np.einsum("sa,sak->ak", fa, self.x).ravel()    # (A, K)
            parts += [m_af, m_af]
        for i, fa in enumerate(f_arrs):
            for fb_idx in range(i, len(f_arrs)):
                fb = fields[fb_idx]
                prod = fa if fb is None else fa * self.xv[:, :, fb]
                d = prod.sum(axis=0)                              # (A,)
                parts.append(d)
                if fb_idx != i:
                    parts.append(d)
        return np.concatenate(parts)

    def fisher(self, theta: np.ndarray) -> sp.csc_matrix:
        """Negative Hessian of the likelihood: sum_sa lambda b b', sparse."""
        w = np.exp(self.eta(theta))
        if not np.all(np.isfinite(w)):
            raise NumericError("non-finite intensity in Fisher assembly")
        return self._fisher_matrix(w)

    # -- prior ---------------------------------------------------------------

    def _block_taus(self, psi: Hyperparams) -> list[float]:
        taus = []
        if self.layout.smooth:
            taus.append(psi.tau_sm)
        taus.extend(psi.tau_v)
        return taus

    def prior_precision(self, psi: Hyperparams) -> sp.csc_matrix:
        """Block-diagonal precision of theta given psi (singular on the fields)."""
        lay = self.layout
        n = lay.n_total
        rows = [np.arange(lay.n_shoes + lay.n_fixed)]
        cols = [np.arange(lay.n_shoes + lay.n_fixed)]
        data = [
            np.concatenate([
                np.full(lay.n_shoes, psi.tau_s),
                np.full(lay.n_fixed, 1.0 / self.prior.fixef_var),
            ])
        ]
        for tau, blk in zip(self._block_taus(psi), self.constraint_blocks):
            rows.append(self._q_rows + blk[0])
            cols.append(self._q_cols + blk[0])
            data.append(tau * self._q_data)
        return sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        ).tocsc()

    def prior_quad(self, theta: np.ndarray, psi: Hyperparams) -> float:
        """theta' Sigma(psi) theta, computed blockwise."""
        lay = self.layout
        out = psi.tau_s * float(theta[lay.shoe] @ theta[lay.shoe])
        out += float(theta[lay.fixed] @ theta[lay.fixed]) / self.prior.fixef_var
        for tau, blk in zip(self._block_taus(psi), self.constraint_blocks):
            v = theta[blk]
            out += tau * float(v @ (self.Q @ v))
        return out

    def log_prior_gendet(self, psi: Hyperparams) -> float:
        """log |Sigma(psi)|_*: the product of Sigma's nonzero eigenvalues.

        Each intrinsic field block contributes its nonzero spectrum only,
        i.e. (n_cells − 1)·log tau + log_gen_det(Q).
        """
        lay = self.layout
        lgd = lay.n_shoes * np.log(psi.tau_s) - lay.n_fixed * np.log(self.prior.fixef_var)
        for tau in self._block_taus(psi):
            lgd += (lay.n_cells - 1) * np.log(tau) + self.log_gendet_q
        return float(lgd)

    def log_prior_norm(self, psi: Hyperparams) -> float:
        """log of the prior's normalizing constant: ½log|Sigma|* − (d/2)log 2π."""
        return (
            0.5 * self.log_prior_gendet(psi)
            - 0.5 * self.layout.constrained_dim * LOG_2PI
        )


# ---------------------------------------------------------------------------
# module-level operations in terms of ShoeModel


def linear_predictor(theta: np.ndarray, model: ShoeModel) -> np.ndarray:
    """eta[s, a] for every shoe and cell; exp of this is the intensity."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.layout.n_total,):
        raise ConfigError(
            f"theta has length {theta.shape}, layout wants {model.layout.n_total}"
        )
    return model.eta(theta)


def log_joint(theta: np.ndarray, psi: Hyperparams, model: ShoeModel) -> float:
    """Fully normalized log p(y, theta, psi).

    Likelihood + Gaussian prior (with generalized determinant on the
    intrinsic blocks) + Exponential hyperprior on the free precisions.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise NumericError("non-finite theta in log_joint")
    return (
        model.loglik(theta)
        - 0.5 * model.prior_quad(theta, psi)
        + model.log_prior_norm(psi)
        + model.log_hyperprior(psi)
    )


def grad_hessian(
    theta: np.ndarray, psi: Hyperparams, model: ShoeModel
) -> tuple[np.ndarray, sp.csc_matrix]:
    """Gradient of log_joint and the sparse *negative* Hessian.

    The negative Hessian is Sigma(psi) + sum_sa lambda[s,a] b b' — positive
    semidefinite everywhere and positive definite on the constrained
    subspace.
    """
    theta = np.asarray(theta, dtype=float)
    sigma = model.prior_precision(psi)
    grad = model.loglik_grad(theta) - sigma @ theta
    neg_hess = (sigma + model.fisher(theta)).tocsc()
    return grad, neg_hess
