from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from _toys import arrow_to_dense, dense_design, dense_prior, prior_to_dense, queen_laplacian
from coxforge import inference
from coxforge.design import ModelSpec, builtin_specs, get_spec
from coxforge.errors import ConfigError
from coxforge.grids import GridSpec, ShoeRecord
from coxforge.model import Design, PriorSpec, ShoeModel, ThetaLayout, precision_names
from coxforge.simulate import SimConfig, gen_dataset

SMALL_SPEC = ModelSpec(
    "small",
    fixed=((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)),
    varying=((1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1)),
)


def _records(n, nx, ny, seed=0, max_count=4):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        contact = rng.uniform(size=(ny, nx))
        rng.uniform(size=(ny, nx))  # a draw the record does not use; the counts follow it
        out.append(ShoeRecord(
            shoe_id=f"s{i}",
            side="left" if i % 2 == 0 else "right",
            contact=contact,
            counts=rng.integers(0, max_count + 1, size=(ny, nx)),
            threshold=0.5,
        ))
    return out


def _small_model(seed=0):
    grid = GridSpec.synthetic(3, 2)
    model = ShoeModel(_records(2, 3, 2, seed=seed), SMALL_SPEC, grid)
    x = np.array([0.3, -0.2, 0.5])  # free log-precisions
    rng = np.random.default_rng(seed + 100)
    theta = 0.1 * rng.normal(size=model.n_total)
    return model, x, theta


def _sim_model(spec="m_final", n_shoes=6):
    """A model of simulated data on a 3x4 grid, with the true theta."""
    cfg = SimConfig(nx=3, ny=4, n_shoes=n_shoes, spec=get_spec(spec), seed=3)
    records, theta = gen_dataset(cfg)
    return ShoeModel(records, cfg.spec, cfg.grid), theta


class TestLayout:
    def test_block_offsets(self):
        lay = ThetaLayout.for_model(3, SMALL_SPEC, 6)
        assert lay.shoe == slice(0, 3)
        assert lay.fixed == slice(3, 6)
        assert lay.smooth_block == slice(6, 12)
        assert lay.varying_block(0) == slice(12, 18)
        assert lay.varying_block(1) == slice(18, 24)
        assert lay.n_total == 24
        assert lay.n_constraints == 3
        assert lay.constrained_dim == 21

    def test_no_smooth_layout(self):
        lay = ThetaLayout.for_model(2, get_spec("uniform"), 6)
        assert lay.smooth_block is None
        assert lay.n_total == 3
        assert lay.constrained_dim == 3

    def test_varying_block_range_check(self):
        lay = ThetaLayout.for_model(1, SMALL_SPEC, 4)
        with pytest.raises(ConfigError):
            lay.varying_block(2)


class TestPriorSpec:
    def test_defaults_positive(self):
        PriorSpec()

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            PriorSpec(fixef_var=0.0)

    def test_json_round_trip(self):
        p = PriorSpec(rate_tau_s=1e-3, fixef_var=50.0)
        assert PriorSpec.from_json_dict(p.to_json_dict()) == p

    def test_json_unknown_key(self):
        with pytest.raises(ConfigError):
            PriorSpec.from_json_dict({"rate_tau_s": 1.0, "bogus": 2.0})


class TestHyperparams:
    def test_precision_names_follow_theta(self):
        model, _, _ = _small_model()
        names = ["tau_s", "tau_sm", "tau_v[100000]", "tau_v[100001]"]
        assert precision_names(SMALL_SPEC) == names
        assert [q.name for q in model.precisions] == names
        assert precision_names(get_spec("uniform")) == ["tau_s"]

    def test_free_mask_keeps_single_factor_fields(self):
        # tau_s, then the smooth field's, then one per varying field
        model, _ = _sim_model()
        assert [q.free for q in model.precisions] == [True, True, True, True, False]
        model, _, _ = _small_model()
        assert [q.free for q in model.precisions] == [True, True, True, False]
        p = model.prior
        assert [q.rate for q in model.precisions] == [p.rate_tau_s, p.rate_tau_sm,
                                                      p.rate_tau_i, p.rate_tau_i]


class TestFreeVectorPlumbing:
    def test_round_trip(self):
        model, x, _ = _small_model()
        taus = model._taus(x)
        assert np.allclose(np.log([t for q, t in zip(model.precisions, taus) if q.free]), x)

    def test_pinned_high_order_precision(self):
        model, _, _ = _small_model()
        taus = model._taus(np.zeros(model.n_free))
        assert taus[2] == 1.0
        assert taus[3] == model.prior.fixed_tau_high_order

    def test_free_names(self):
        model, _, _ = _small_model()
        assert model.free_names() == ["tau_s", "tau_sm", "tau_v[100000]"]

    def test_wrong_length_rejected(self):
        model, _, _ = _small_model()
        with pytest.raises(ConfigError):
            model._taus(np.zeros(5))
        with pytest.raises(ConfigError):
            model.prior_at(np.zeros(5))
        with pytest.raises(ConfigError):
            model.prior_tangents(np.zeros(5), np.zeros(model.n_total))

    def test_hyperprior_is_sum_of_exponential_logdensities(self):
        """prior_at's log terms, less ½ log |Sigma|_* in closed form."""
        model, x, _ = _small_model()
        tau_s, tau_sm, *tau_v = model._taus(x)
        p, lay = model.prior, model.layout
        half_log_det = 0.5 * (
            lay.n_shoes * np.log(tau_s) - lay.n_fixed * np.log(p.fixef_var)
            + sum((lay.n_cells - 1) * np.log(tau) + model.log_gendet_q
                  for tau in (tau_sm, *tau_v)))
        want = (
            np.log(p.rate_tau_s) - p.rate_tau_s * tau_s
            + np.log(p.rate_tau_sm) - p.rate_tau_sm * tau_sm
            + np.log(p.rate_tau_i) - p.rate_tau_i * tau_v[0]
        )  # the pinned tau_v[1] contributes nothing
        assert model.prior_at(x)[1] - half_log_det == pytest.approx(want, rel=1e-14)


class TestLikelihood:
    def test_zero_counts_at_zero_theta(self):
        grid = GridSpec.synthetic(4, 3)
        recs = _records(2, 4, 3, max_count=0)
        model = ShoeModel(recs, get_spec("m_a"), grid)
        # eta = 0 everywhere -> every cell contributes -exp(0) and y log = 0
        assert model.loglik(np.zeros(model.n_total)) == pytest.approx(-2 * 12)

    def test_single_cell_closed_form(self):
        grid = GridSpec.synthetic(1, 1)
        rec = ShoeRecord(
            shoe_id="one", side="left",
            contact=np.ones((1, 1)), counts=np.array([[3]]), threshold=0.5,
        )
        model = ShoeModel([rec], get_spec("uniform"), grid)
        theta = np.array([0.0, np.log(2.0)])  # shoe effect 0, intercept log 2
        want = 3 * np.log(2.0) - 2.0 - np.log(6.0)
        assert model.loglik(theta) == pytest.approx(want, rel=1e-14)

    def test_overflow_returns_neg_inf(self):
        model, _, _ = _small_model()
        theta = np.zeros(model.n_total)
        theta[model.layout.shoe] = 800.0
        assert model.loglik(theta) == -np.inf

    def test_eta1_drops_shoe_effect(self):
        model, _, theta = _small_model()
        theta = theta.copy()
        theta[model.layout.shoe] = [0.7, -0.3]
        full = model.eta(theta)
        no_shoe = np.concatenate(([0.0], theta[model.layout.n_shoes:]))
        for s, rec in enumerate(model.records):
            got = Design([rec], model.spec).eta(no_shoe)[0]
            assert np.allclose(got, full[s] - theta[s], atol=1e-12)

    def test_shoe_intercept_shift_invariance(self):
        model, _, theta = _small_model()
        shifted = theta.copy()
        shifted[model.layout.shoe] += 0.9
        shifted[model.layout.fixed.start] -= 0.9  # intercept column is all ones
        assert model.loglik(shifted) == pytest.approx(model.loglik(theta), rel=1e-12)

    def test_lik_parts_consistent_with_pieces(self):
        """Gradient B'(y - lambda) - Sigma theta and negative Hessian
        Sigma + B' diag(lambda) B, with B and Sigma built densely."""
        small, _, small_theta = _small_model()
        for model, theta in ((small, small_theta), _sim_model()):
            x = np.linspace(-0.5, 1.0, model.n_free)
            sigma = dense_prior(model, model._taus(x))
            value, grad, H = model.lik_parts(theta, model.prior_at(x)[0])
            assert value == pytest.approx(model.loglik(theta) - 0.5 * theta @ sigma @ theta,
                                          rel=1e-14)
            B = dense_design(model)
            y = np.concatenate([r.counts.ravel() for r in model.records])
            lam = np.exp(B @ theta)
            assert np.allclose(grad, B.T @ (y - lam) - sigma @ theta, rtol=0, atol=1e-12)
            diff = arrow_to_dense(H) - sigma - B.T @ (lam[:, None] * B)
            assert np.abs(diff).max() < 1e-12


    @pytest.mark.parametrize("name", sorted(builtin_specs()) + ["no_fixed"])
    def test_factor_form_matches_dense_design(self, name):
        """eta, gradient and negative Hessian against B built from covariate_value."""
        spec = (ModelSpec.from_json_dict({"name": name, "fixed": [], "varying": ["100000"]})
                if name == "no_fixed" else get_spec(name))
        model = ShoeModel(_records(3, 4, 3, seed=7), spec, GridSpec.synthetic(4, 3))
        theta = 0.3 * np.random.default_rng(8).normal(size=model.n_total)
        x = np.zeros(model.n_free)
        sigma = dense_prior(model, model._taus(x))
        B = dense_design(model)
        y = np.concatenate([r.counts.ravel() for r in model.records])
        eta = B @ theta
        lam = np.exp(eta)
        assert np.abs(model.eta(theta).ravel() - eta).max() <= 1e-12
        _, grad, H = model.lik_parts(theta, model.prior_at(x)[0])
        assert np.abs(grad - B.T @ (y - lam) + sigma @ theta).max() <= 1e-12
        assert np.abs(arrow_to_dense(H) - sigma - B.T @ (lam[:, None] * B)).max() <= 1e-12


class TestDerivatives:
    """lik_parts' gradient and negative Hessian against differences of its
    own value and gradient, at a fixed prior precision Sigma."""

    def test_gradient_matches_central_differences(self):
        model, x, theta = _small_model()
        sigma, _ = model.prior_at(x)
        _, grad, _ = model.lik_parts(theta, sigma)
        h = 1e-6
        for i in range(model.n_total):
            e = np.zeros(model.n_total)
            e[i] = h
            fd = (model.lik_parts(theta + e, sigma)[0]
                  - model.lik_parts(theta - e, sigma)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_neg_hessian_matches_grad_differences(self):
        model, x, theta = _small_model()
        sigma, _ = model.prior_at(x)
        _, _, neg_hess = model.lik_parts(theta, sigma)
        dense = arrow_to_dense(neg_hess)
        h = 1e-6
        for i in range(model.n_total):
            e = np.zeros(model.n_total)
            e[i] = h
            gp = model.lik_parts(theta + e, sigma)[1]
            gm = model.lik_parts(theta - e, sigma)[1]
            fd_row = -(gp - gm) / (2 * h)
            assert np.allclose(dense[i], fd_row, atol=2e-5), i

    def test_neg_hessian_positive_definite_on_constrained_subspace(self):
        model, x, theta = _small_model()
        _, _, neg_hess = model.lik_parts(theta, model.prior_at(x)[0])
        n = model.n_total
        rows = np.zeros((len(model.constraint_blocks), n))
        for k, blk in enumerate(model.constraint_blocks):
            rows[k, blk] = 1.0
        _, _, vt = np.linalg.svd(rows)
        basis = vt[len(model.constraint_blocks):].T  # nullspace of constraints
        reduced = basis.T @ arrow_to_dense(neg_hess) @ basis
        assert np.linalg.eigvalsh(reduced).min() > 0

    def test_symmetry(self):
        model, x, theta = _small_model(seed=3)
        _, _, neg_hess = model.lik_parts(theta, model.prior_at(x)[0])
        dense = arrow_to_dense(neg_hess)
        assert np.abs(dense - dense.T).max() < 1e-12


class TestPrior:
    def test_prior_quad_matches_matrix_form(self):
        """lik_parts' value is loglik − ½ theta' Sigma theta, Sigma dense."""
        model, x, theta = _small_model()
        sigma, _ = model.prior_at(x)
        want = float(theta @ prior_to_dense(model, sigma) @ theta)
        value, _, _ = model.lik_parts(theta, sigma)
        assert 2 * (model.loglik(theta) - value) == pytest.approx(want, rel=1e-12)

    def test_prior_precision_block_structure(self):
        model, x, _ = _small_model()
        tau_s, tau_sm = model._taus(x)[:2]
        lay = model.layout
        sigma = prior_to_dense(model, model.prior_at(x)[0])
        assert np.allclose(np.diag(sigma)[lay.shoe], tau_s)
        assert np.allclose(np.diag(sigma)[lay.fixed], 1.0 / model.prior.fixef_var)
        blk = lay.smooth_block
        assert np.allclose(
            sigma[blk, blk],
            tau_sm * queen_laplacian(model.grid.nx, model.grid.ny),
        )

    def test_multi_field_prior_is_tau_q_per_field(self):
        """Every field block of m_final's prior is tau_j Q, and nothing couples
        them; its 100001 field's precision is pinned, so its log terms are
        ½ log |Sigma|_* and the hyperprior of the other four precisions."""
        model, _ = _sim_model()
        x = np.linspace(-0.5, 1.0, model.n_free)
        taus = model._taus(x)
        assert len(taus) == 5
        assert taus[4] == model.prior.fixed_tau_high_order
        sigma, log_prior = model.prior_at(x)
        dense = prior_to_dense(model, sigma)
        assert np.array_equal(dense, dense_prior(model, taus))
        w = np.linalg.eigvalsh(dense)
        nonzero = w[np.abs(w) > 1e-9]
        assert len(nonzero) == model.layout.constrained_dim
        p = model.prior
        hyper = sum(np.log(rate) - rate * tau for rate, tau in (
            (p.rate_tau_s, taus[0]), (p.rate_tau_sm, taus[1]),
            (p.rate_tau_i, taus[2]), (p.rate_tau_i, taus[3])))
        want = 0.5 * float(np.sum(np.log(nonzero))) + hyper
        assert log_prior == pytest.approx(want, rel=1e-9)

    def test_gendet_tau_scaling(self):
        # multiplying tau_sm by c adds (n_cells - 1) log c to log |Sigma|_*,
        # and -rate (c - 1) tau_sm to the hyperprior
        model, x, _ = _small_model()
        c = 3.7
        scaled = x + np.array([0.0, np.log(c), 0.0])
        diff = model.prior_at(scaled)[1] - model.prior_at(x)[1]
        tau_sm, rate = np.exp(x[1]), model.prior.rate_tau_sm
        want = 0.5 * (model.grid.n_cells - 1) * np.log(c) - rate * (c - 1) * tau_sm
        assert diff == pytest.approx(want, rel=1e-12)


class TestConstruction:
    def test_empty_records_rejected(self):
        from coxforge.errors import InputDataError
        with pytest.raises(InputDataError):
            ShoeModel([], get_spec("m_a"), GridSpec.synthetic(2, 2))

    def test_duplicate_shoe_ids_rejected(self):
        recs = _records(2, 3, 2)
        recs[1] = replace(recs[1], shoe_id=recs[0].shoe_id)
        with pytest.raises(ConfigError):
            ShoeModel(recs, get_spec("m_a"), GridSpec.synthetic(3, 2))

    @pytest.mark.parametrize("spec, n_shoes, chunk", [
        ("m_final", 9, None), ("m_final", 9, 5), ("variant_a", 4, None), ("uniform", 11, None),
        ("m_b", 10, 3)])
    def test_counts_moments_are_those_of_the_fisher_build(self, spec, n_shoes, chunk,
                                                          monkeypatch):
        """B'y, built without the Fisher matrix, is the vector _fisher of the
        counts gives to the bit, with the cells in one chunk or several."""
        model, _ = _sim_model(spec, n_shoes)
        if chunk is not None:
            monkeypatch.setattr("coxforge.model.CHUNK_ENTRIES", chunk * n_shoes * model.U.shape[2])
        assert len(model._cell_chunks()) == (1 if chunk is None else -(-12 // chunk))
        assert np.array_equal(model._counts_moments(), model._fisher(model.y)[1])

    def test_constraint_blocks_cover_fields(self):
        model, _, _ = _small_model()
        lay = model.layout
        assert len(model.constraint_blocks) == lay.n_constraints
        got = np.concatenate(model.constraint_blocks)
        want = np.arange(lay.smooth_block.start, lay.n_total)
        assert np.array_equal(np.sort(got), want)


class TestLeverage:
    """h_i = b_i' M b_i for M the constrained covariance, against dense
    oracles, each to 1e-10 of its scale."""

    @staticmethod
    def _covariance(model, theta):
        """H_c^-1 at theta on the arrow pattern, and the whole of it dense."""
        x = np.linspace(-0.5, 1.0, model.n_free)
        _, _, H = model.lik_parts(theta, model.prior_at(x)[0])
        dense = arrow_to_dense(H)  # the factorization overwrites H
        A = np.zeros((len(model.constraint_blocks), model.n_total))
        for row, blk in zip(A, model.constraint_blocks):
            row[blk] = 1.0
        U = scipy.linalg.null_space(A)
        want = U @ np.linalg.inv(U.T @ dense @ U) @ U.T
        return inference._Factor(H, model.constraint_blocks).covariance(), want

    def _check_against_dense(self, model, theta):
        M, cov = self._covariance(model, theta)
        B = dense_design(model)
        want = np.einsum("ij,jk,ik->i", B, cov, B).reshape(model.layout.n_shoes, -1)
        got = model._leverage(M)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("spec, n_shoes", [("m_final", 6), ("variant_a", 4)])
    def test_matches_dense_predictor_variances(self, spec, n_shoes):
        """diag(B H_c^-1 B'), on four fields and on sixteen."""
        self._check_against_dense(*_sim_model(spec, n_shoes))

    @pytest.mark.parametrize("spec, n_shoes", [("m_final", 6), ("variant_a", 4)])
    def test_matches_dense_across_cell_chunks(self, spec, n_shoes, monkeypatch):
        """The same with the 12 cells in chunks of 5, 5 and 2."""
        model, theta = _sim_model(spec, n_shoes)
        monkeypatch.setattr("coxforge.model.CHUNK_ENTRIES", 5 * n_shoes * model.U.shape[2])
        assert [len(range(12)[c]) for c in model._cell_chunks()] == [5, 5, 2]
        self._check_against_dense(model, theta)

    def test_adjoint_of_fisher_build(self):
        """sum w ⊙ h = tr(M B' diag(w) B), the Fisher term built by _fisher."""
        model, theta = _sim_model()
        M, _ = self._covariance(model, theta)
        w = np.random.default_rng(4).uniform(0.5, 2.0, size=(model.layout.n_shoes,
                                                             model.layout.n_cells))
        want = np.sum(arrow_to_dense(M) * arrow_to_dense(model._fisher(w)[0]))
        got = (w * model._leverage(M)).sum()
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("spec", ["m_final", "uniform"])
    def test_psi_gradient_builds_no_fisher_matrix(self, spec, monkeypatch):
        model, _ = _sim_model(spec)
        x = np.zeros(model.n_free)
        sigma = model.prior_at(x)[0]
        mode = inference.find_mode(sigma, model, model.cold_start())
        calls = []
        fisher = ShoeModel._fisher
        monkeypatch.setattr(ShoeModel, "_fisher",
                            lambda self, w: calls.append(w.shape) or fisher(self, w))
        assert np.all(np.isfinite(inference.psi_gradient(model, x, mode)))
        assert calls == []
        model.lik_parts(mode.theta_star, sigma)  # the counter counts
        assert len(calls) == 1
