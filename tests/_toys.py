"""Small analytic problems driving the inference engine through its
duck-typed model interface, and dense builders for test oracles.

The engine only needs likelihood parts, the prior at free
log-precisions and constraint metadata, so closed-form Gaussian and
one-dimensional Poisson problems exercise exactly the code paths the
shoe model uses while the correct answers stay computable by hand. A
toy's prior precision is a dense matrix, which its ``lik_parts`` takes
back.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.special import gammaln

from coxforge.errors import NumericError
from coxforge.gmrf import band_to_dense
from coxforge.model import ArrowMatrix


def dense_arrow(M, blocks=()) -> ArrowMatrix:
    """The symmetric matrix M as an ArrowMatrix with a full band.

    The field coordinates are the constraint blocks, concatenated; the
    rest form the border.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    field = np.concatenate(blocks).astype(np.intp) if blocks else np.zeros(0, np.intp)
    border = np.setdiff1d(np.arange(n), field)
    F = M[np.ix_(field, field)]
    band = np.zeros((max(field.size, 1), field.size))
    for d in range(field.size):
        band[d, :field.size - d] = np.diagonal(F, -d)
    return ArrowMatrix(field, border, band,
                       M[np.ix_(field, border)], M[np.ix_(border, border)])


def arrow_to_dense(H: ArrowMatrix) -> np.ndarray:
    """The dense matrix in theta's coordinate order."""
    out = np.empty((H.field.size + H.border.size,) * 2)
    out[np.ix_(H.field, H.field)] = band_to_dense(H.band)
    out[np.ix_(H.field, H.border)] = H.C
    out[np.ix_(H.border, H.field)] = H.C.T
    out[np.ix_(H.border, H.border)] = H.B
    return out


def joint_parts(lik, theta, sigma, blocks=()):
    """``lik_parts``' output for a toy with the dense prior precision ``sigma``.

    ``lik`` is the log-likelihood, its gradient and its Fisher matrix at
    ``theta``; the prior adds −½ theta' sigma theta, −sigma theta and sigma.
    """
    value, grad, fisher = lik
    s_theta = sigma @ theta
    return (value - 0.5 * float(theta @ s_theta), grad - s_theta,
            dense_arrow(fisher + sigma, blocks))


def dense_psi_gradient(units, ranks, taus, theta, cov, third=None) -> np.ndarray:
    """``psi_gradient`` in dense closed form, for a prior precision sum_j tau_j units[j].

    Entry j is -½ theta' Sigma_j theta + ½ r_j - ½ tr(H_c^-1 Sigma_j), with
    Sigma_j = tau_j units[j], less ½ tr(H_c^-1 third[j]) where the Fisher
    term moves with the mode (``third`` is None for a Gaussian likelihood).
    """
    cov = arrow_to_dense(cov)
    out = np.array([0.5 * r - 0.5 * tau * (theta @ U @ theta + np.sum(cov * U))
                    for U, r, tau in zip(units, ranks, taus)])
    if third is not None:
        out -= 0.5 * np.array([np.sum(cov * T) for T in third])
    return out


def prior_to_dense(model, sigma) -> np.ndarray:
    """A ShoeModel's compact prior precision (field band rows, border diagonal), dense.

    Row k of the field rows is the band row ``model._prior_rows[k]``.
    """
    rows, diag = sigma
    band = np.zeros((model._prior_rows[-1] + 1, rows.shape[1]))
    band[model._prior_rows] = rows
    out = np.zeros((model.n_total,) * 2)
    out[np.ix_(model._field, model._field)] = band_to_dense(band)
    out[model._border, model._border] = diag
    return out


def dense_prior(model, taus) -> np.ndarray:
    """Sigma of a ShoeModel at precisions ``taus``, in the order of
    ``model.precisions``, from tau_j times the dense queen Laplacian."""
    lay = model.layout
    Q = queen_laplacian(model.grid.nx, model.grid.ny)
    return scipy.linalg.block_diag(
        taus[0] * np.eye(lay.n_shoes),
        np.eye(lay.n_fixed) / model.prior.fixef_var,
        *[tau * Q for tau in taus[1:]],
    )


def queen_laplacian(nx: int, ny: int) -> np.ndarray:
    """The queen-adjacency graph Laplacian of an nx-by-ny lattice, cell by cell.

    Cell (row y, col x) has index y*nx + x; its neighbors are the other
    cells with |dx|, |dy| <= 1.
    """
    n = nx * ny
    Q = np.zeros((n, n))
    for y in range(ny):
        for x in range(nx):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if (dx, dy) != (0, 0) and 0 <= x + dx < nx and 0 <= y + dy < ny:
                        Q[y * nx + x, (y + dy) * nx + x + dx] = -1.0
                        Q[y * nx + x, y * nx + x] += 1.0
    return Q


def covariate_value(
    contact: np.ndarray,
    grad: np.ndarray,
    index: tuple[int, ...],
    cell: tuple[int, int],
) -> float:
    """Reference (scalar) evaluation of one covariate at one cell.

    ``cell`` is (row, col). Slow by design; ``design.build_tensor`` is the
    vectorized equivalent and is tested to agree with this entry by entry.
    """
    y, x = cell
    ny, nx = contact.shape
    vals = []
    neighborhood = [(0, 0), (0, -1), (0, 1), (-1, 0), (1, 0)]
    for bit, (dy, dx) in zip(index[:5], neighborhood):
        if not bit:
            continue
        yy, xx = y + dy, x + dx
        vals.append(float(contact[yy, xx]) if 0 <= yy < ny and 0 <= xx < nx else 0.0)
    if index[5]:
        vals.append(float(grad[y, x]))
    out = 1.0
    for v in vals:
        out *= v
    return out


def dense_design(model):
    """The design matrix B, one row per (shoe, cell), from scalar covariates."""
    lay, spec = model.layout, model.spec
    rows = []
    for s, rec in enumerate(model.records):
        contact = rec.contact if spec.contact == "continuous" else rec.contact_binary
        for a in range(lay.n_cells):
            cell = divmod(a, model.grid.nx)
            b = np.zeros(lay.n_total)
            b[s] = 1.0
            for k, idx in enumerate(spec.fixed):
                b[lay.fixed.start + k] = covariate_value(contact, rec.gradient, idx, cell)
            if lay.smooth:
                b[lay.smooth_block.start + a] = 1.0
            for j, idx in enumerate(spec.varying):
                b[lay.varying_block(j).start + a] = covariate_value(
                    contact, rec.gradient, idx, cell)
            rows.append(b)
    return np.array(rows)


class ScalarPoissonToy:
    """One latent cell with count y and a N(0, 1/tau) prior."""

    def __init__(self, y: float = 3.0):
        self.y = float(y)
        self.n_total = 1
        self.n_free = 1
        self.constraint_blocks = ()
        self.log_y_factorial = 0.0

    def loglik(self, theta):
        t = theta[0]
        lam = np.exp(t)
        if not np.isfinite(lam):
            return -np.inf
        return float(self.y * t - lam - gammaln(self.y + 1))

    def lik_parts(self, theta, sigma):
        t = theta[0]
        with np.errstate(over="ignore"):
            lam = np.exp(t)
        if not np.isfinite(lam):
            raise NumericError("non-finite intensity")
        value = float(self.y * t - lam - gammaln(self.y + 1))
        return joint_parts((value, np.array([self.y - lam]), np.array([[lam]])), theta, sigma)

    def prior_at(self, x):
        tau = float(np.exp(x[0]))
        return np.array([[tau]]), 0.5 * float(np.log(tau))

    def prior_tangents(self, x, theta):
        return float(np.exp(x[0])) * np.asarray(theta)[None, :]

    def psi_gradient(self, x, theta, dtheta, cov):
        """The Fisher term exp(t) moves with the mode by exp(t) dt."""
        third = [np.exp(theta[0]) * dtheta[0, 0] * np.eye(1)]
        return dense_psi_gradient([np.eye(1)], [1], np.exp(x), theta, cov, third)


class GaussianSurrogateToy:
    """Linear-Gaussian observation y = B theta + N(0, s2 I).

    With a N(0, psi^-1 I) prior (restricted to the constrained subspace
    when blocks are given) everything is conjugate: the mode is the GLS
    solution and the Laplace evidence is exact.
    """

    def __init__(self, B: np.ndarray, y: np.ndarray, s2: float, blocks=()):
        self.B = np.asarray(B, dtype=float)
        self.yv = np.asarray(y, dtype=float)
        self.s2 = float(s2)
        self.n_total = self.B.shape[1]
        self.n_free = 1
        self.constraint_blocks = tuple(np.asarray(b) for b in blocks)
        self.log_y_factorial = 0.0

    def lik_parts(self, theta, sigma):
        r = self.yv - self.B @ theta
        m = self.yv.size
        value = float(-0.5 * r @ r / self.s2 - 0.5 * m * np.log(2 * np.pi * self.s2))
        grad = self.B.T @ r / self.s2
        return joint_parts((value, grad, self.B.T @ self.B / self.s2), theta, sigma,
                           self.constraint_blocks)

    def prior_at(self, x):
        tau = float(np.exp(x[0]))
        d = self.n_total - len(self.constraint_blocks)
        return tau * np.eye(self.n_total), 0.5 * float(d * np.log(tau))

    def prior_tangents(self, x, theta):
        return float(np.exp(x[0])) * np.asarray(theta)[None, :]

    def psi_gradient(self, x, theta, dtheta, cov):
        d = self.n_total - len(self.constraint_blocks)
        return dense_psi_gradient([np.eye(self.n_total)], [d], np.exp(x), theta, cov)

    # -- oracles ----------------------------------------------------------

    def nullspace_basis(self) -> np.ndarray:
        """Orthonormal basis of the constrained subspace."""
        n = self.n_total
        if not self.constraint_blocks:
            return np.eye(n)
        A = np.zeros((len(self.constraint_blocks), n))
        for i, blk in enumerate(self.constraint_blocks):
            A[i, blk] = 1.0
        _, _, vt = np.linalg.svd(A)
        return vt[len(self.constraint_blocks):].T

    def exact_mode(self, psi: float) -> np.ndarray:
        U = self.nullspace_basis()
        H = U.T @ (self.B.T @ self.B / self.s2 + float(psi) * np.eye(self.n_total)) @ U
        b = U.T @ (self.B.T @ self.yv / self.s2)
        return U @ np.linalg.solve(H, b)

    def exact_covariance(self, psi: float) -> np.ndarray:
        U = self.nullspace_basis()
        H = U.T @ (self.B.T @ self.B / self.s2 + float(psi) * np.eye(self.n_total)) @ U
        return U @ np.linalg.inv(H) @ U.T

    def exact_evidence(self, psi: float) -> float:
        """log N(y; 0, s2 I + BU (psi I)^-1 (BU)') for the constrained prior."""
        BU = self.B @ self.nullspace_basis()
        m = self.yv.size
        cov = self.s2 * np.eye(m) + BU @ BU.T / float(psi)
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        alpha = np.linalg.solve(cov, self.yv)
        return float(-0.5 * (self.yv @ alpha) - 0.5 * logdet - 0.5 * m * np.log(2 * np.pi))


class TwoPrecisionGaussianToy:
    """Linear-Gaussian observation y = B theta + N(0, s2 I) with two precisions.

    theta's first ``n1`` coordinates have prior N(0, I / tau_1) and the
    rest N(0, I / tau_2), so the prior precision is diag(tau_1 I, tau_2 I),
    there are no constraints, and the evidence, its gradient and its
    Hessian in the log-precisions have closed forms.
    """

    def __init__(self, B: np.ndarray, y: np.ndarray, s2: float, n1: int):
        self.B = np.asarray(B, dtype=float)
        self.yv = np.asarray(y, dtype=float)
        self.s2 = float(s2)
        self.n_total = self.B.shape[1]
        self.n1 = int(n1)
        self.n_free = 2
        self.constraint_blocks = ()
        self.log_y_factorial = 0.0

    def _unit(self, j: int) -> np.ndarray:
        """The indicator of the coordinates precision j scales."""
        out = np.zeros(self.n_total)
        out[:self.n1] = j == 0
        out[self.n1:] = j == 1
        return out

    def lik_parts(self, theta, sigma):
        r = self.yv - self.B @ theta
        m = self.yv.size
        value = float(-0.5 * r @ r / self.s2 - 0.5 * m * np.log(2 * np.pi * self.s2))
        return joint_parts((value, self.B.T @ r / self.s2, self.B.T @ self.B / self.s2),
                           theta, sigma)

    def prior_at(self, x):
        tau = np.exp(np.asarray(x, dtype=float))
        log_det = self.n1 * np.log(tau[0]) + (self.n_total - self.n1) * np.log(tau[1])
        return np.diag(tau[0] * self._unit(0) + tau[1] * self._unit(1)), 0.5 * float(log_det)

    def prior_tangents(self, x, theta):
        tau = np.exp(np.asarray(x, dtype=float))
        return np.stack([tau[j] * self._unit(j) * theta for j in range(2)])

    def psi_gradient(self, x, theta, dtheta, cov):
        units = [np.diag(self._unit(j)) for j in range(2)]
        return dense_psi_gradient(units, [self.n1, self.n_total - self.n1], np.exp(x), theta, cov)

    # -- oracles ----------------------------------------------------------

    def _cov_parts(self, vec):
        """C = s2 I + sum_j K_j / tau_j and dC/d log tau_j = -K_j / tau_j."""
        tau = np.exp(np.asarray(vec, dtype=float))
        dC = [-(self.B * self._unit(j)) @ self.B.T / tau[j] for j in range(2)]
        return self.s2 * np.eye(self.yv.size) - dC[0] - dC[1], dC

    def exact_evidence(self, vec) -> float:
        """log N(y; 0, C) at log-precisions ``vec``."""
        C, _ = self._cov_parts(vec)
        sign, logdet = np.linalg.slogdet(C)
        assert sign > 0
        alpha = np.linalg.solve(C, self.yv)
        return float(-0.5 * self.yv @ alpha - 0.5 * logdet
                     - 0.5 * self.yv.size * np.log(2 * np.pi))

    def exact_derivatives(self, vec) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of :meth:`exact_evidence` in the log-precisions.

        With alpha = C^-1 y, C_j = dC/d log tau_j and d C_j / d log tau_i =
        -C_j if i == j, else 0:
        d/dj = alpha' C_j alpha / 2 - tr(C^-1 C_j) / 2, and
        d2/didj = -alpha' C_i C^-1 C_j alpha + tr(C^-1 C_i C^-1 C_j) / 2
                  - [i == j] d/dj.
        """
        C, dC = self._cov_parts(vec)
        Cinv = np.linalg.inv(C)
        alpha = Cinv @ self.yv
        grad = np.array([0.5 * alpha @ dC[j] @ alpha - 0.5 * np.trace(Cinv @ dC[j])
                         for j in range(2)])
        hess = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                hess[i, j] = (-alpha @ dC[i] @ Cinv @ dC[j] @ alpha
                              + 0.5 * np.trace(Cinv @ dC[i] @ Cinv @ dC[j]))
            hess[i, i] -= grad[i]
        return grad, hess
