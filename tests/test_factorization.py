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
import scipy.sparse as sp

from _toys import GaussianSurrogateToy
from coxforge.design import get_spec
from coxforge.errors import NumericError
from coxforge.inference import NewtonOptions, empirical_bayes, find_mode, marginal_sd
from coxforge.model import ShoeModel
from coxforge.simulate import SimConfig, gen_dataset

LOG_DET_RTOL = 1e-9
SD_RTOL = 1e-8


@pytest.fixture(scope="module")
def mode_and_oracle():
    cfg = SimConfig(nx=3, ny=4, n_shoes=6, spec=get_spec("m_final"), seed=3)
    records, _ = gen_dataset(cfg)
    model = ShoeModel(records, cfg.spec, cfg.grid)
    psi = model.psi_from_free(np.linspace(-0.5, 1.0, model.n_free))
    mode = find_mode(psi, model, opts=NewtonOptions(tol=1e-9))

    n = model.n_total
    H = (model.prior_precision(psi) + model.lik_parts(mode.theta_star)[2]).toarray()
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
    got = marginal_sd(mode, model.n_total)
    assert np.abs(got / want - 1.0).max() < SD_RTOL


class IndefiniteToy(GaussianSurrogateToy):
    """The Gaussian toy with a Fisher term that makes H indefinite."""

    def lik_parts(self, theta):
        value, grad, fisher = super().lik_parts(theta)
        return value, grad, fisher - 50.0 * sp.identity(self.n_total, format="csc")


def test_indefinite_hessian_is_a_rejected_candidate():
    rng = np.random.default_rng(0)
    toy = IndefiniteToy(rng.normal(size=(8, 4)), rng.normal(size=8), 1.0,
                        blocks=(np.arange(0, 2),))
    with pytest.raises(NumericError, match="not positive definite"):
        find_mode(1.0, toy)
    _, search = empirical_bayes(toy, opts=NewtonOptions(tol=1e-10))
    assert search.best_mode is None
    assert search.rejected == search.evals > 0
