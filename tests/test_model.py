import numpy as np
import pytest

from coxforge.design import ModelSpec, covariate_value, get_spec
from coxforge.errors import ConfigError
from coxforge.grids import GridSpec, ShoeRecord
from coxforge.model import (
    Design,
    Hyperparams,
    PriorSpec,
    ShoeModel,
    ThetaLayout,
    free_varying_mask,
    grad_hessian,
    linear_predictor,
    log_joint,
)
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
        out.append(ShoeRecord(
            shoe_id=f"s{i}",
            side="left" if i % 2 == 0 else "right",
            contact=contact,
            contact_binary=(contact > 0.5).astype(np.uint8),
            gradient=rng.uniform(size=(ny, nx)),
            counts=rng.integers(0, max_count + 1, size=(ny, nx)),
        ))
    return out


def _small_model(seed=0):
    grid = GridSpec.synthetic(3, 2)
    model = ShoeModel(_records(2, 3, 2, seed=seed), SMALL_SPEC, grid)
    psi = model.psi_from_free(np.array([0.3, -0.2, 0.5]))
    rng = np.random.default_rng(seed + 100)
    theta = 0.1 * rng.normal(size=model.n_total)
    return model, psi, theta


def _m_final_model():
    cfg = SimConfig(nx=3, ny=4, n_shoes=6, spec=get_spec("m_final"), seed=3)
    records, theta = gen_dataset(cfg)
    return ShoeModel(records, cfg.spec, cfg.grid), theta


def _dense_design(model):
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

    def test_json_round_trip(self):
        lay = ThetaLayout.for_model(5, SMALL_SPEC, 12)
        assert ThetaLayout.from_json_dict(lay.to_json_dict()) == lay


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
    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            Hyperparams(tau_s=-1.0)
        with pytest.raises(ConfigError):
            Hyperparams(tau_s=1.0, tau_v=(0.0,))

    def test_json_round_trip(self):
        psi = Hyperparams(tau_s=2.0, tau_sm=3.0, tau_v=(1.5, 100.0))
        got = Hyperparams.from_json_dict(psi.to_json_dict(SMALL_SPEC), SMALL_SPEC)
        assert got == psi

    def test_free_mask_keeps_single_factor_fields(self):
        mask = free_varying_mask(get_spec("m_final"))
        assert mask.tolist() == [True, True, False]
        assert free_varying_mask(SMALL_SPEC).tolist() == [True, False]


class TestFreeVectorPlumbing:
    def test_round_trip(self):
        model, psi, _ = _small_model()
        vec = np.log([psi.tau_s, psi.tau_sm, psi.tau_v[0]])
        assert model.psi_from_free(vec) == psi
        assert np.allclose(vec, [0.3, -0.2, 0.5])

    def test_pinned_high_order_precision(self):
        model, _, _ = _small_model()
        psi = model.psi_from_free(np.zeros(model.n_free))
        assert psi.tau_v[0] == 1.0
        assert psi.tau_v[1] == model.prior.fixed_tau_high_order

    def test_free_names(self):
        model, _, _ = _small_model()
        assert model.free_names() == ["tau_s", "tau_sm", "tau_v[100000]"]

    def test_wrong_length_rejected(self):
        model, _, _ = _small_model()
        with pytest.raises(ConfigError):
            model.psi_from_free(np.zeros(5))

    def test_hyperprior_is_sum_of_exponential_logdensities(self):
        model, psi, _ = _small_model()
        p = model.prior
        want = (
            np.log(p.rate_tau_s) - p.rate_tau_s * psi.tau_s
            + np.log(p.rate_tau_sm) - p.rate_tau_sm * psi.tau_sm
            + np.log(p.rate_tau_i) - p.rate_tau_i * psi.tau_v[0]
        )  # the pinned tau_v[1] contributes nothing
        assert model.log_hyperprior(psi) == pytest.approx(want, rel=1e-14)


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
            contact=np.ones((1, 1)), contact_binary=np.ones((1, 1), dtype=np.uint8),
            gradient=np.zeros((1, 1)), counts=np.array([[3]]),
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
        """Gradient B'(y - lambda) and Fisher B' diag(lambda) B, B built densely."""
        small, _, small_theta = _small_model()
        for model, theta in ((small, small_theta), _m_final_model()):
            value, grad, fish = model.lik_parts(theta)
            assert value == pytest.approx(model.loglik(theta), rel=1e-14)
            B = _dense_design(model)
            y = np.concatenate([r.counts.ravel() for r in model.records])
            lam = np.exp(B @ theta)
            assert np.allclose(grad, B.T @ (y - lam), rtol=0, atol=1e-12)
            diff = fish.toarray() - B.T @ (lam[:, None] * B)
            assert np.abs(diff).max() < 1e-12

    def test_linear_predictor_shape_check(self):
        model, _, _ = _small_model()
        with pytest.raises(ConfigError):
            linear_predictor(np.zeros(3), model)


class TestDerivatives:
    def test_gradient_matches_central_differences(self):
        model, psi, theta = _small_model()
        grad, _ = grad_hessian(theta, psi, model)
        h = 1e-6
        for i in range(model.n_total):
            e = np.zeros(model.n_total)
            e[i] = h
            fd = (log_joint(theta + e, psi, model)
                  - log_joint(theta - e, psi, model)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_neg_hessian_matches_grad_differences(self):
        model, psi, theta = _small_model()
        _, neg_hess = grad_hessian(theta, psi, model)
        dense = neg_hess.toarray()
        h = 1e-6
        for i in range(model.n_total):
            e = np.zeros(model.n_total)
            e[i] = h
            gp, _ = grad_hessian(theta + e, psi, model)
            gm, _ = grad_hessian(theta - e, psi, model)
            fd_row = -(gp - gm) / (2 * h)
            assert np.allclose(dense[i], fd_row, atol=2e-5), i

    def test_neg_hessian_positive_definite_on_constrained_subspace(self):
        model, psi, theta = _small_model()
        _, neg_hess = grad_hessian(theta, psi, model)
        n = model.n_total
        rows = np.zeros((len(model.constraint_blocks), n))
        for k, blk in enumerate(model.constraint_blocks):
            rows[k, blk] = 1.0
        _, _, vt = np.linalg.svd(rows)
        basis = vt[len(model.constraint_blocks):].T  # nullspace of constraints
        reduced = basis.T @ neg_hess.toarray() @ basis
        assert np.linalg.eigvalsh(reduced).min() > 0

    def test_symmetry(self):
        model, psi, theta = _small_model(seed=3)
        _, neg_hess = grad_hessian(theta, psi, model)
        dense = neg_hess.toarray()
        assert np.abs(dense - dense.T).max() < 1e-12


class TestPrior:
    def test_prior_quad_matches_matrix_form(self):
        model, psi, theta = _small_model()
        sigma = model.prior_precision(psi).toarray()
        want = float(theta @ sigma @ theta)
        assert model.prior_quad(theta, psi) == pytest.approx(want, rel=1e-12)

    def test_prior_precision_block_structure(self):
        model, psi, _ = _small_model()
        lay = model.layout
        sigma = model.prior_precision(psi).toarray()
        assert np.allclose(np.diag(sigma)[lay.shoe], psi.tau_s)
        assert np.allclose(np.diag(sigma)[lay.fixed], 1.0 / model.prior.fixef_var)
        blk = lay.smooth_block
        assert np.allclose(
            sigma[blk, blk],
            psi.tau_sm * model.Q.toarray(),
        )

    def test_log_prior_gendet_matches_dense_spectrum(self):
        model, psi, _ = _small_model()
        sigma = model.prior_precision(psi).toarray()
        w = np.linalg.eigvalsh(sigma)
        nonzero = w[np.abs(w) > 1e-9]
        assert len(nonzero) == model.layout.constrained_dim
        want = float(np.sum(np.log(nonzero)))
        assert model.log_prior_gendet(psi) == pytest.approx(want, rel=1e-9)

    def test_gendet_tau_scaling(self):
        # multiplying tau_sm by c adds (n_cells - 1) log c
        model, psi, _ = _small_model()
        c = 3.7
        psi2 = Hyperparams(psi.tau_s, psi.tau_sm * c, psi.tau_v)
        diff = model.log_prior_gendet(psi2) - model.log_prior_gendet(psi)
        assert diff == pytest.approx((model.grid.n_cells - 1) * np.log(c), rel=1e-12)


class TestConstruction:
    def test_empty_records_rejected(self):
        from coxforge.errors import InputDataError
        with pytest.raises(InputDataError):
            ShoeModel([], get_spec("m_a"), GridSpec.synthetic(2, 2))

    def test_duplicate_shoe_ids_rejected(self):
        recs = _records(2, 3, 2)
        recs[1].shoe_id = recs[0].shoe_id
        with pytest.raises(ConfigError):
            ShoeModel(recs, get_spec("m_a"), GridSpec.synthetic(3, 2))

    def test_constraint_blocks_cover_fields(self):
        model, _, _ = _small_model()
        lay = model.layout
        assert len(model.constraint_blocks) == lay.n_constraints
        got = np.concatenate(model.constraint_blocks)
        want = np.arange(lay.smooth_block.start, lay.n_total)
        assert np.array_equal(np.sort(got), want)
