import types

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from scipy.special import gammaln

from _toys import covariate_value
from coxforge.design import get_spec
from coxforge.errors import ConfigError, NumericError
from coxforge.grids import ShoeRecord
from coxforge.predict import (
    PredictiveField,
    factorized_log_prob,
    log_multinomial,
    poisson_marginal,
    predictive_q,
)

M_A = get_spec("m_a")


def _shoe(nx, ny, seed=0, max_count=3):
    rng = np.random.default_rng(seed)
    contact = rng.uniform(size=(ny, nx))
    rng.uniform(size=(ny, nx))  # a draw the record does not use; the counts follow it
    return ShoeRecord(
        shoe_id=f"p{seed}",
        side="left",
        contact=contact,
        counts=rng.integers(0, max_count + 1, size=(ny, nx)),
        threshold=0.5,
    )


class TestPredictiveQ:
    def test_zero_theta_gives_uniform(self):
        shoe = _shoe(4, 5)
        field = predictive_q(np.zeros(1 + 20), shoe, M_A)
        assert np.allclose(field.q, 1 / 20)
        assert field.q_grid().shape == (5, 4)

    def test_two_cell_softmax(self):
        shoe = _shoe(2, 1)
        theta = np.array([0.0, 0.0, np.log(3.0)])  # intercept, smooth field
        field = predictive_q(theta, shoe, M_A)
        assert np.allclose(field.q, [0.25, 0.75], atol=1e-15)

    def test_intercept_shift_cancels(self):
        shoe = _shoe(5, 6, seed=1)
        rng = np.random.default_rng(2)
        theta = rng.normal(size=1 + 30)
        shifted = theta.copy()
        shifted[0] += 7.3
        a = predictive_q(theta, shoe, M_A)
        b = predictive_q(shifted, shoe, M_A)
        assert np.abs(a.q - b.q).max() < 1e-15

    def test_leading_shoe_block_is_stripped(self):
        shoe = _shoe(3, 3, seed=3)
        rng = np.random.default_rng(4)
        bare = rng.normal(size=1 + 9)
        padded = np.concatenate([rng.normal(size=6), bare])  # 6 shoe effects
        a = predictive_q(bare, shoe, M_A)
        b = predictive_q(padded, shoe, M_A)
        assert np.array_equal(a.q, b.q)

    def test_fit_result_like_object_accepted(self):
        shoe = _shoe(3, 2, seed=5)
        vec = np.random.default_rng(6).normal(size=1 + 6)
        fake = types.SimpleNamespace(marginal_mean=vec)
        a = predictive_q(fake, shoe, M_A)
        b = predictive_q(vec, shoe, M_A)
        assert np.array_equal(a.q, b.q)

    def test_short_theta_rejected(self):
        shoe = _shoe(3, 3)
        with pytest.raises(ConfigError):
            predictive_q(np.zeros(5), shoe, M_A)

    def test_degenerate_field_raises(self):
        shoe = _shoe(2, 2, seed=7)
        theta = np.full(1 + 4, -np.inf)
        with pytest.raises(NumericError):
            predictive_q(theta, shoe, M_A)

    def test_sums_to_one(self):
        shoe = _shoe(6, 7, seed=8)
        theta = np.random.default_rng(9).normal(scale=3.0, size=1 + 42)
        field = predictive_q(theta, shoe, M_A)
        assert field.q.sum() == pytest.approx(1.0, abs=1e-12)
        assert (field.q >= 0).all()

    def test_varying_coefficient_field_enters(self):
        spec = get_spec("m_final")
        shoe = _shoe(3, 3, seed=10)
        n = 9
        size = len(spec.fixed) + n + 3 * n
        rng = np.random.default_rng(11)
        theta = 0.1 * rng.normal(size=size)
        field = predictive_q(theta, shoe, spec)
        # independent reconstruction of eta1 from the covariate definition
        eta = np.zeros(n)
        for a in range(n):
            cell = divmod(a, 3)
            for k, idx in enumerate(spec.fixed):
                eta[a] += theta[k] * covariate_value(
                    shoe.contact, shoe.gradient, idx, cell)
            eta[a] += theta[len(spec.fixed) + a]
            for j, idx in enumerate(spec.varying):
                coef = theta[len(spec.fixed) + (j + 1) * n + a]
                eta[a] += coef * covariate_value(
                    shoe.contact, shoe.gradient, idx, cell)
        w = np.exp(eta - eta.max())
        assert np.allclose(field.q, w / w.sum(), atol=1e-12)


    @pytest.mark.parametrize("name", ["m_final", "m_b"])
    def test_eta1_matches_covariate_reference(self, name):
        spec = get_spec(name)
        shoe = _shoe(4, 3, seed=12)
        n = 12
        n_fields = 1 + len(spec.varying)
        theta = 0.2 * np.random.default_rng(13).normal(size=len(spec.fixed) + n_fields * n)
        contact = shoe.contact if spec.contact == "continuous" else shoe.contact_binary
        eta = theta[len(spec.fixed):len(spec.fixed) + n].copy()
        for a in range(n):
            cell = divmod(a, 4)
            for k, idx in enumerate(spec.fixed):
                eta[a] += theta[k] * covariate_value(contact, shoe.gradient, idx, cell)
            for j, idx in enumerate(spec.varying):
                coef = theta[len(spec.fixed) + (j + 1) * n + a]
                eta[a] += coef * covariate_value(contact, shoe.gradient, idx, cell)
        assert np.abs(predictive_q(theta, shoe, spec).eta1 - eta).max() <= 1e-12


def mp_log_multinomial(y, q, include_coefficient):
    mp.mp.dps = 50
    out = mp.mpf(0)
    if include_coefficient:
        out += mp.log(mp.factorial(int(sum(y))))
        for yi in y:
            out -= mp.log(mp.factorial(int(yi)))
    for yi, qi in zip(y, q):
        if yi:
            out += int(yi) * mp.log(mp.mpf(qi))
    return float(out)


class TestLogMultinomial:
    def test_small_example(self):
        got = log_multinomial([2, 1], [0.25, 0.75])
        assert got == pytest.approx(2 * np.log(0.25) + np.log(0.75), rel=1e-14)

    def test_coefficient_term(self):
        got = log_multinomial([2, 1], [0.25, 0.75], include_coefficient=True)
        want = np.log(3.0) + 2 * np.log(0.25) + np.log(0.75)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("include", [False, True])
    def test_matches_arbitrary_precision(self, seed, include):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 5, size=36)
        w = rng.uniform(0.05, 1.0, size=36)
        q = w / w.sum()
        got = log_multinomial(y, q, include_coefficient=include)
        want = mp_log_multinomial(y, q, include)
        assert got == pytest.approx(want, abs=1e-12)

    def test_zero_mass_occupied_cell(self):
        assert log_multinomial([1, 0], [0.0, 1.0]) == -np.inf

    def test_zero_count_zero_mass_cell_fine(self):
        assert log_multinomial([0, 2], [0.0, 1.0]) == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            log_multinomial([1, 2, 3], [0.5, 0.5])

    def test_accepts_record_and_field_objects(self):
        """A record's (ny, nx) counts and a PredictiveField go in as they are."""
        shoe = _shoe(2, 2, seed=12, max_count=2)
        field = PredictiveField(
            q=np.full(4, 0.25), eta1=np.zeros(4), grid_shape=(2, 2))
        got = log_multinomial(shoe.counts, field)
        want = log_multinomial(shoe.counts.ravel(), field.q)
        assert got == want


def quad_poisson_oracle(total, lambda1, tau_s):
    """Adaptive-quadrature oracle, integrand shifted into O(1) first."""
    sd = 1.0 / np.sqrt(tau_s)

    def log_f(b):
        return (
            total * (b + np.log(lambda1)) - np.exp(b) * lambda1
            - gammaln(total + 1.0) - 0.5 * tau_s * b * b
            - 0.5 * np.log(2 * np.pi / tau_s)
        )

    shift = float(np.max(log_f(np.linspace(-8 * sd, 8 * sd, 4001))))
    val, err = scipy.integrate.quad(
        lambda b: np.exp(log_f(b) - shift), -8 * sd, 8 * sd,
        epsabs=1e-13, epsrel=1e-12, limit=300,
    )
    assert err < 1e-10
    return shift + np.log(val)


class TestPoissonMarginal:
    def test_quadrature_resolution_converged(self):
        coarse = poisson_marginal(10, 8.0, 1.0, grid_d=512)
        fine = poisson_marginal(10, 8.0, 1.0, grid_d=1024)
        assert abs(coarse - fine) < 1e-8

    def test_tight_shoe_effect_recovers_plain_poisson(self):
        # tau -> inf pins the shoe effect at zero
        got = poisson_marginal(6, 4.2, 1e8)
        want = scipy.stats.poisson.logpmf(6, 4.2)
        assert got == pytest.approx(want, abs=1e-4)

    @pytest.mark.parametrize("total,lam,tau", [
        (7, 3.2, 0.8), (0, 1.5, 2.0), (25, 10.0, 4.0), (3, 0.2, 1.0),
    ])
    def test_matches_adaptive_quadrature(self, total, lam, tau):
        got = poisson_marginal(total, lam, tau)
        want = quad_poisson_oracle(total, lam, tau)
        assert got == pytest.approx(want, abs=1e-6)

    def test_distribution_normalizes(self):
        lam, tau = 3.0, 2.0
        logp = [poisson_marginal(n, lam, tau) for n in range(250)]
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-6)

    def test_zero_total_decreasing_in_intensity(self):
        vals = [poisson_marginal(0, lam, 1.0) for lam in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_zero_intensity_branches(self):
        assert poisson_marginal(0, 0.0, 1.0) == 0.0
        assert poisson_marginal(4, 0.0, 1.0) == -np.inf

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            poisson_marginal(-1, 1.0, 1.0)
        with pytest.raises(ConfigError):
            poisson_marginal(1, 1.0, 0.0)
        with pytest.raises(ConfigError):
            poisson_marginal(1, 1.0, 1.0, grid_d=1)


class TestFactorization:
    @pytest.mark.parametrize("seed", range(100))
    def test_joint_poisson_splits_into_total_times_allocation(self, seed):
        """Conditional-on-shoe-effect factorization, checked exactly.

        With intensity lambda_a = e^b * e^eta1_a the count likelihood
        equals Poisson(N; e^b * Lambda) times Multinomial(y; N, q).
        """
        rng = np.random.default_rng(seed)
        nx, ny = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        shoe = _shoe(nx, ny, seed=seed + 1000, max_count=3)
        n = nx * ny
        theta = 0.3 * rng.normal(size=1 + n)
        b = float(rng.normal())
        field = predictive_q(theta, shoe, M_A)
        y = shoe.counts.ravel().astype(float)

        lam = np.exp(b + field.eta1)
        lhs = float((y * np.log(lam)).sum() - lam.sum() - gammaln(y + 1).sum())

        total = y.sum()
        big_lambda = float(np.exp(field.eta1).sum())
        log_pois = (
            total * (b + np.log(big_lambda)) - np.exp(b) * big_lambda
            - gammaln(total + 1)
        )
        log_multi = log_multinomial(y, field.q, include_coefficient=True)
        assert lhs == pytest.approx(log_pois + log_multi, rel=1e-12, abs=1e-10)

    def test_factorized_log_prob_parts(self):
        shoe = _shoe(4, 4, seed=20, max_count=2)
        theta = 0.2 * np.random.default_rng(21).normal(size=1 + 16)
        log_pois, log_multi = factorized_log_prob(
            shoe.counts, theta, shoe, M_A, tau_s=2.0)
        field = predictive_q(theta, shoe, M_A)
        lam1 = float(np.exp(field.eta1).sum())
        total = int(shoe.counts.sum())
        assert log_pois == pytest.approx(
            poisson_marginal(total, lam1, 2.0), rel=1e-14)
        assert log_multi == pytest.approx(
            log_multinomial(shoe.counts.ravel(), field.q), rel=1e-14)

    def test_zero_count_shoe_multinomial_part_vanishes(self):
        shoe = _shoe(3, 3, seed=22, max_count=0)
        theta = np.zeros(1 + 9)
        log_pois, log_multi = factorized_log_prob(
            shoe.counts, theta, shoe, M_A, tau_s=1.0)
        assert log_multi == 0.0
        assert np.isfinite(log_pois)
