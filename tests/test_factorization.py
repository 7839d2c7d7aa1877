"""The constrained factorization of the negative Hessian.

On a real ShoeModel, against dense algebra: ``m_final`` has several
sum-to-zero field blocks next to a dense border of shoe and fixed
effects, the structure the arrow factorization and the conditioning by
kriging act on. At a fixed psi, the log-determinant of the negative
Hessian restricted to the constraint nullspace and the marginal sds of
the constrained Gaussian are recomputed densely: with ``U`` an
orthonormal basis of {A x = 0}, they are log det(U'HU) and
sqrt(diag(U (U'HU)^-1 U')).

A negative Hessian that is not positive definite must end as a reported
NumericError, and in the hyperparameter search as a rejected candidate.
"""

import numpy as np
import pytest
import scipy.linalg

from _toys import GaussianSurrogateToy, arrow_to_dense, dense_arrow, dense_design, dense_prior
from coxforge.design import get_spec
from coxforge.errors import NumericError
from coxforge.inference import (
    _psi_objective, empirical_bayes, find_mode, marginal_sd, psi_gradient,
)
from coxforge.model import ShoeModel
from coxforge.simulate import SimConfig, gen_dataset

LOG_DET_RTOL = 1e-9
SD_RTOL = 1e-8


def _dense_neg_hessian(model, taus, theta):
    """Sigma + B' diag(lambda) B at precisions ``taus``, from the dense design and tau_j Q."""
    B = dense_design(model)
    lam = np.exp(B @ theta)
    return dense_prior(model, taus) + B.T @ (lam[:, None] * B)


@pytest.fixture(scope="module")
def mode_and_oracle():
    cfg = SimConfig(nx=3, ny=4, n_shoes=6, spec=get_spec("m_final"), seed=3)
    records, _ = gen_dataset(cfg)
    model = ShoeModel(records, cfg.spec, cfg.grid)
    x = np.linspace(-0.5, 1.0, model.n_free)
    mode = find_mode(model.prior_at(x)[0], model)

    n = model.n_total
    H = _dense_neg_hessian(model, model._taus(x), mode.theta_star)
    A = np.zeros((len(model.constraint_blocks), n))
    for i, blk in enumerate(model.constraint_blocks):
        A[i, blk] = 1.0
    U = scipy.linalg.null_space(A)
    HU = U.T @ H @ U
    sign, log_det = np.linalg.slogdet(HU)
    assert sign > 0
    sd = np.sqrt(np.diag(U @ np.linalg.inv(HU) @ U.T))
    return model, mode, log_det, sd


def test_problem_has_fields_and_border(mode_and_oracle):
    model, mode, _, _ = mode_and_oracle
    in_field = np.zeros(model.n_total, dtype=bool)
    for blk in model.constraint_blocks:
        in_field[blk] = True
    assert len(model.constraint_blocks) == 4
    assert (~in_field).sum() == model.layout.n_shoes + model.layout.n_fixed
    assert mode.converged


def test_log_det_matches_dense_reduced_hessian(mode_and_oracle):
    _, mode, want, _ = mode_and_oracle
    assert mode.log_det_H == pytest.approx(want, rel=LOG_DET_RTOL)


def test_marginal_sd_matches_dense_constrained_covariance(mode_and_oracle):
    model, mode, _, want = mode_and_oracle
    got = marginal_sd(mode)
    assert np.abs(got / want - 1.0).max() < SD_RTOL


def test_covariance_matches_dense_constrained_inverse(mode_and_oracle):
    """The band, C and B of the constrained covariance, each to 1e-10 of its
    largest entry; entries of the field block beyond the band are not kept."""
    model, mode, _, _ = mode_and_oracle
    x = np.linspace(-0.5, 1.0, model.n_free)
    H = _dense_neg_hessian(model, model._taus(x), mode.theta_star)
    A = np.zeros((len(model.constraint_blocks), model.n_total))
    for i, blk in enumerate(model.constraint_blocks):
        A[i, blk] = 1.0
    U = scipy.linalg.null_space(A)
    want = U @ np.linalg.inv(U.T @ H @ U) @ U.T
    cov = mode._lu.covariance()
    field, border = cov.field, cov.border
    F = want[np.ix_(field, field)]
    band = np.zeros_like(cov.band)
    for d in range(len(band)):
        band[d, :field.size - d] = np.diagonal(F, -d)
    for got, ref in ((cov.band, band), (cov.C, want[np.ix_(field, border)]),
                     (cov.B, want[np.ix_(border, border)])):
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_gradient_matches_central_differences(mode_and_oracle):
    """The exact gradient of the Laplace log posterior against central
    differences of it, h = 1e-4, on four fields and a border."""
    model, mode, _, _ = mode_and_oracle
    x = np.linspace(-0.5, 1.0, model.n_free)
    got = psi_gradient(model, x, mode)
    h = 1e-4
    want = np.array([
        (_psi_objective(x + h * e, model, mode.theta_star)[0]
         - _psi_objective(x - h * e, model, mode.theta_star)[0]) / (2 * h)
        for e in np.eye(model.n_free)])
    assert np.abs(got - want).max() <= 1e-5 * max(1.0, np.abs(want).max())


class IndefiniteToy(GaussianSurrogateToy):
    """The Gaussian toy with a Fisher term that makes H indefinite."""

    def lik_parts(self, theta, sigma):
        value, grad, H = super().lik_parts(theta, sigma)
        return value, grad, dense_arrow(arrow_to_dense(H) - 50.0 * np.eye(self.n_total),
                                        self.constraint_blocks)


def test_indefinite_hessian_is_a_rejected_candidate():
    rng = np.random.default_rng(0)
    toy = IndefiniteToy(rng.normal(size=(8, 4)), rng.normal(size=8), 1.0,
                        blocks=(np.arange(0, 2),))
    with pytest.raises(NumericError, match="not positive definite"):
        find_mode(toy.prior_at(np.zeros(1))[0], toy)
    _, search = empirical_bayes(toy)
    assert search.best_mode is None
    assert search.rejected == search.evals > 0
    assert search.rejected_by_reason == {"factorization": search.rejected}
