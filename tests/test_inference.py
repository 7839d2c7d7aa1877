import dataclasses
import json

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize

from _toys import (
    GaussianSurrogateToy,
    ScalarPoissonToy,
    TwoPrecisionGaussianToy,
    arrow_to_dense,
    dense_arrow,
)
from coxforge import inference
from coxforge.design import get_spec
from coxforge.errors import ConfigError, InputDataError, NumericError
from coxforge.grids import GridSpec, ShoeRecord
from coxforge.inference import (
    FitResult,
    GridConfig,
    PsiGrid,
    _psi_objective,
    empirical_bayes,
    find_mode,
    fit,
    grid_posterior,
    marginal_sd,
    predicted_start,
)
from coxforge.model import ShoeModel
from coxforge.simulate import SimConfig, gen_dataset


def scalar_mode_oracle(y, psi):
    """Root of y - e^t - psi*t = 0 via bisection to 1e-14."""
    return scipy.optimize.brentq(
        lambda t: y - np.exp(t) - psi * t, -50, 50, xtol=1e-14
    )


def scalar_evidence_oracle(toy, psi):
    """log integral of Poisson(y; e^t) N(t; 0, 1/psi) dt by quadrature.

    The integrand is shifted into O(1) before integrating — its raw scale
    (~e^-26 for y=20) sits far below quad's default absolute tolerance.
    """
    t_star = scalar_mode_oracle(toy.y, psi)
    v_star = toy.loglik(np.array([t_star])) - 0.5 * psi * t_star**2
    h = np.exp(t_star) + psi
    width = 12.0 / np.sqrt(h)

    def f(t):
        return np.exp(
            toy.loglik(np.array([t])) - 0.5 * psi * t * t - v_star
        )

    val, _ = scipy.integrate.quad(
        f, t_star - width, t_star + width, epsabs=1e-13, epsrel=1e-12
    )
    return v_star + np.log(val) + 0.5 * np.log(psi) - 0.5 * np.log(2 * np.pi)


def mode_at(toy, tau, theta0=None):
    """``find_mode`` at the one-precision toy's precision ``tau``."""
    return find_mode(toy.prior_at(np.log([tau]))[0], toy, theta0=theta0)


class OffsetPoissonToy(ScalarPoissonToy):
    """The scalar toy with 1e12 added to the log-likelihood: the mode is unmoved."""

    OFFSET = 1e12

    def lik_parts(self, theta, sigma):
        value, grad, H = super().lik_parts(theta, sigma)
        return value + self.OFFSET, grad, H


class TestScalarPoisson:
    @pytest.mark.parametrize("y,psi", [(3.0, 1.0), (5.0, 0.5), (20.0, 2.0)])
    def test_mode_matches_root_finder(self, y, psi):
        toy = ScalarPoissonToy(y)
        mode = mode_at(toy, psi)
        assert mode.converged
        assert mode.theta_star[0] == pytest.approx(
            scalar_mode_oracle(y, psi), abs=1e-9
        )

    @pytest.mark.parametrize("y", [3.0, 20.0, 200.0])
    def test_constant_offset_does_not_change_where_newton_stops(self, y):
        toy = OffsetPoissonToy(y)
        mode = mode_at(toy, 1.0)
        assert mode.converged
        # the bound the stopping rule implies: half the decrement,
        # h (t - t*)^2 / 2, is at most DECREMENT_RTOL * max(1, |value|)
        t_star = scalar_mode_oracle(y, 1.0)
        h = np.exp(t_star) + 1.0
        bound = np.sqrt(2 * inference.DECREMENT_RTOL * max(1.0, abs(mode.value)) / h)
        assert abs(mode.theta_star[0] - t_star) <= bound

    def test_log_det_is_curvature(self):
        toy = ScalarPoissonToy(3.0)
        mode = mode_at(toy, 1.0)
        want = np.log(np.exp(mode.theta_star[0]) + 1.0)
        assert mode.log_det_H == pytest.approx(want, rel=1e-12)

    def test_monotone_ascent_across_iteration_budgets(self, monkeypatch):
        toy = ScalarPoissonToy(20.0)
        values = []
        for k in range(1, 8):
            monkeypatch.setattr(inference, "MAX_NEWTON_ITER", k)
            values.append(mode_at(toy, 1.0).value)
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("y", [5.0, 9.0, 20.0])
    def test_laplace_close_to_and_below_quadrature(self, y):
        toy = ScalarPoissonToy(y)
        lp = _psi_objective(np.zeros(1), toy)[0]
        truth = scalar_evidence_oracle(toy, 1.0)
        assert lp <= truth + 1e-12
        assert lp == pytest.approx(truth, abs=2e-2)

    def test_nonconvergence_reported_not_raised(self, monkeypatch):
        toy = ScalarPoissonToy(20.0)
        monkeypatch.setattr(inference, "MAX_NEWTON_ITER", 1)
        mode = mode_at(toy, 1.0)
        assert not mode.converged
        with pytest.raises(NumericError):
            _psi_objective(np.zeros(1), toy)[0]

    def test_bad_options_rejected(self):
        toy = ScalarPoissonToy()
        with pytest.raises(ConfigError):
            mode_at(toy, 1.0, theta0=np.zeros(3))


def _gaussian_toy(seed=0, n=6, m=10, s2=0.5, blocks=()):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(m, n))
    y = rng.normal(size=m)
    return GaussianSurrogateToy(B, y, s2, blocks=blocks)


class TestGaussianSurrogate:
    def test_unconstrained_mode_is_gls(self):
        toy = _gaussian_toy()
        psi = 0.8
        mode = mode_at(toy, psi)
        assert mode.converged
        assert np.abs(mode.theta_star - toy.exact_mode(psi)).max() < 1e-8

    def test_quadratic_objective_converges_immediately(self):
        toy = _gaussian_toy(seed=1)
        mode = mode_at(toy, 1.5)
        assert mode.iterations <= 2

    def test_constrained_mode_and_feasibility(self):
        blocks = (np.arange(0, 3), np.arange(3, 7))
        toy = _gaussian_toy(seed=2, n=7, m=12, blocks=blocks)
        psi = 1.2
        mode = mode_at(toy, psi)
        for blk in blocks:
            assert abs(mode.theta_star[blk].sum()) < 1e-12
        assert np.abs(mode.theta_star - toy.exact_mode(psi)).max() < 1e-8

    def test_log_det_matches_reduced_hessian(self):
        blocks = (np.arange(0, 4),)
        toy = _gaussian_toy(seed=3, n=6, m=9, blocks=blocks)
        psi = 0.7
        mode = mode_at(toy, psi)
        U = toy.nullspace_basis()
        H = toy.B.T @ toy.B / toy.s2 + psi * np.eye(6)
        _, want = np.linalg.slogdet(U.T @ H @ U)
        assert mode.log_det_H == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("blocks", [(), (np.arange(0, 3),)])
    def test_evidence_is_exact_for_conjugate_problem(self, blocks):
        toy = _gaussian_toy(seed=4, n=6, m=11, blocks=blocks)
        for psi in (0.3, 1.0, 4.0):
            lp = _psi_objective(np.log([psi]), toy)[0]
            assert lp == pytest.approx(toy.exact_evidence(psi), abs=1e-8)

    def test_evidence_invariant_under_coordinate_permutation(self):
        toy = _gaussian_toy(seed=5, n=6, m=10)
        perm = np.array([3, 0, 5, 1, 4, 2])
        permuted = GaussianSurrogateToy(toy.B[:, perm], toy.yv, toy.s2)
        a = _psi_objective(np.log([0.9]), toy)[0]
        b = _psi_objective(np.log([0.9]), permuted)[0]
        assert a == pytest.approx(b, abs=1e-9)

    def test_marginal_sd_matches_exact_covariance(self):
        blocks = (np.arange(0, 3),)
        toy = _gaussian_toy(seed=6, n=7, m=14, blocks=blocks)
        psi = 1.1
        mode = mode_at(toy, psi)
        # three field coordinates in a band of width 2: the selected
        # inversion's blocks of two end in a partial one
        got = marginal_sd(mode)
        want = np.sqrt(np.diag(toy.exact_covariance(psi)))
        assert np.abs(got - want).max() < 1e-6

    def test_warm_start_agrees_with_cold_start(self):
        toy = _gaussian_toy(seed=8)
        cold = mode_at(toy, 1.0)
        warm = mode_at(toy, 1.0, theta0=cold.theta_star + 0.1)
        assert np.abs(cold.theta_star - warm.theta_star).max() < 1e-8


def _dense_constrained_variances(M, blocks):
    """diag(U (U'MU)^-1 U'), U an orthonormal basis of {A x = 0} for the
    block-sum rows A, the constrained covariance's diagonal."""
    A = np.zeros((len(blocks), len(M)))
    for row, blk in zip(A, blocks):
        row[blk] = 1.0
    U = scipy.linalg.null_space(A) if blocks else np.eye(len(M))
    return np.diag(U @ np.linalg.inv(U.T @ M @ U) @ U.T)


class TestSelectedInversion:
    """The block Takahashi recursion against a dense inverse.

    The factor overwrites H, so the dense copy is taken first.
    """

    def _factor_and_dense(self, spec, nx, ny):
        cfg = SimConfig(nx=nx, ny=ny, n_shoes=4, spec=get_spec(spec), seed=5)
        records, _ = gen_dataset(cfg)
        model = ShoeModel(records, cfg.spec, cfg.grid)
        sigma, _ = model.prior_at(np.linspace(-0.5, 0.8, model.n_free))
        theta = 0.1 * np.random.default_rng(2).normal(size=model.n_total)
        _, _, H = model.lik_parts(theta, sigma)
        dense = arrow_to_dense(H)
        return inference._Factor(H, model.constraint_blocks), dense, model

    def test_field_spanning_several_blocks_and_a_partial_one(self):
        fac, dense, model = self._factor_and_dense("m_final", 3, 5)
        kd = len(fac.Lf) - 1
        # four fields of 15 cells in blocks of 16: three full, one of 12
        assert (fac.nf, kd) == (60, 16)
        F = dense[np.ix_(fac.field, fac.field)]
        want = np.diag(np.linalg.inv(F))
        got = fac._field_inverse(np.zeros((fac.nf, 0)), np.zeros(0))[0]
        assert np.abs(got / want - 1.0).max() < 1e-10
        want = _dense_constrained_variances(dense, model.constraint_blocks)
        assert np.abs(fac.variances() / want - 1.0).max() < 1e-8

    def test_diagonal_band(self):
        rng = np.random.default_rng(3)
        R = rng.normal(size=(12, 8))
        M = R.T @ R / 12 + np.eye(8)
        field = np.arange(2, 7)
        M[np.ix_(field, field)] = np.diag(np.diag(M)[field] + 2.0)
        H = dense_arrow(M, (field,))
        H = dataclasses.replace(H, band=H.band[:1].copy())  # kd = 0
        fac = inference._Factor(H, (field,))
        assert fac.Lf.shape == (1, 5)
        want = _dense_constrained_variances(M, (field,))
        assert np.abs(fac.variances() / want - 1.0).max() < 1e-12

    def test_model_without_a_field(self):
        fac, dense, model = self._factor_and_dense("uniform", 3, 4)
        assert fac.nf == 0 and not model.constraint_blocks
        want = np.diag(np.linalg.inv(dense))
        assert np.abs(fac.variances() / want - 1.0).max() < 1e-10


class TestPredictedStart:
    def test_error_is_second_order_in_the_step(self):
        """Halving the log-precision step quarters the predicted mode's error."""
        blocks = (np.arange(0, 3),)
        toy = _gaussian_toy(seed=12, n=7, m=14, blocks=blocks)
        vec0 = np.array([0.2])
        mode = find_mode(toy.prior_at(vec0)[0], toy)
        errors = []
        for h in (0.1, 0.05, 0.025):
            start = predicted_start(toy, vec0, mode, vec0 + h)
            assert abs(start[blocks[0]].sum()) < 1e-12
            errors.append(np.abs(start - toy.exact_mode(np.exp(vec0[0] + h))).max())
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5

    def test_zero_step_is_the_mode(self):
        toy = _gaussian_toy(seed=13)
        mode = mode_at(toy, 1.0)
        start = predicted_start(toy, np.zeros(1), mode, np.zeros(1))
        assert np.array_equal(start, mode.theta_star)


class TestHyperparameterSearch:
    def test_empirical_bayes_finds_evidence_maximum(self):
        toy = _gaussian_toy(seed=9, n=5, m=40, s2=0.3)
        x, ev = empirical_bayes(toy)
        res = scipy.optimize.minimize_scalar(
            lambda v: -toy.exact_evidence(np.exp(v)), bounds=(-12, 12),
            method="bounded", options={"xatol": 1e-10},
        )
        assert x[0] == pytest.approx(res.x, abs=2e-3)
        assert ev.rejected == 0

    def test_search_is_deterministic(self):
        toy = _gaussian_toy(seed=10)
        x1, _ = empirical_bayes(toy)
        x2, _ = empirical_bayes(toy)
        assert np.array_equal(x1, x2)

    def test_grid_posterior_weights(self):
        toy = _gaussian_toy(seed=11)
        center = np.array([0.2])
        cfg = GridConfig(points=5, spacing=0.5)
        points, weights, modes, _ = grid_posterior(
            toy, center, cfg, find_mode(toy.prior_at(center)[0], toy))
        assert points.shape == (5, 1)
        assert np.allclose(points[:, 0],
                           center[0] + 0.5 * (np.arange(5) - 2))
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (weights > 0).all()
        assert len(modes) == 5
        # masses follow exp(evidence + log-scale Jacobian)
        lp = np.array([
            toy.exact_evidence(np.exp(p[0])) + p[0] for p in points
        ])
        want = np.exp(lp - lp.max())
        want /= want.sum()
        assert np.abs(weights - want).max() < 1e-7

    def test_grid_modes_hold_no_factor(self):
        toy = _gaussian_toy(seed=11)
        center = np.array([0.2])
        center_mode = find_mode(toy.prior_at(center)[0], toy)
        points, _, modes, sds = grid_posterior(toy, center, GridConfig(points=3, spacing=0.5),
                                               center_mode)
        assert all(m._lu is None for m in modes)
        assert center_mode._lu is not None
        # each point's sds are its own mode's
        for p, sd in zip(points, sds):
            want = marginal_sd(find_mode(toy.prior_at(p)[0], toy))
            assert np.allclose(sd, want, rtol=1e-12, atol=0)

    def test_grid_config_validation(self):
        with pytest.raises(ConfigError):
            GridConfig(points=0)
        with pytest.raises(ConfigError):
            GridConfig(spacing=-1.0)
        with pytest.raises(ConfigError, match="spacing"):
            GridConfig(spacing=np.nan)
        with pytest.raises(ConfigError, match="spacing"):
            GridConfig(points=1, spacing=np.inf)

    def test_psi_grid_json_round_trip(self):
        grid = PsiGrid(
            points=np.array([[0.1, -0.2], [0.3, 0.4]]),
            weights=np.array([0.25, 0.75]),
            free_names=["tau_s", "tau_sm"],
        )
        got = PsiGrid.from_json_dict(
            json.loads(json.dumps(grid.to_json_dict())), get_spec("m_a")
        )
        assert np.allclose(got.points, grid.points)
        assert np.allclose(got.weights, grid.weights)
        assert got.free_names == grid.free_names


class InterfaceOnly:
    """A model seen through the engine's interface: any other attribute
    raises AttributeError."""

    MEMBERS = ("n_total", "n_free", "constraint_blocks", "log_y_factorial",
               "lik_parts", "prior_at", "prior_tangents", "psi_gradient")

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        if name not in self.MEMBERS:
            raise AttributeError(f"the engine asked for {name!r}")
        return getattr(self._model, name)


def test_engine_uses_only_the_model_interface():
    toy = _gaussian_toy(seed=14, n=7, m=14, blocks=(np.arange(0, 3),))
    proxy = InterfaceOnly(toy)
    with pytest.raises(AttributeError):
        proxy.precisions
    x, search = empirical_bayes(proxy)
    assert np.array_equal(x, empirical_bayes(toy)[0])
    assert search.rejected == 0
    mode = search.best_mode
    weights = grid_posterior(proxy, x, GridConfig(points=3), mode)[1]
    assert np.array_equal(weights, grid_posterior(toy, x, GridConfig(points=3), mode)[1])
    start = predicted_start(proxy, x, mode, x + 0.1)
    assert np.array_equal(start, predicted_start(toy, x, mode, x + 0.1))
    sd = marginal_sd(mode)
    assert np.abs(sd - np.sqrt(np.diag(toy.exact_covariance(np.exp(x[0]))))).max() < 1e-6


@pytest.fixture(scope="module")
def small_dataset():
    cfg = SimConfig(nx=6, ny=8, n_shoes=12, spec=get_spec("m_a"),
                    intercept=-1.0, seed=5)
    records, _ = gen_dataset(cfg)
    return cfg, records


class TestFit:
    def test_uniform_intercept_matches_count_rate(self, small_dataset):
        cfg, records = small_dataset
        res = fit(records, get_spec("uniform"), cfg.grid)
        n_total = sum(r.counts.sum() for r in records)
        mle = np.log(n_total / (len(records) * cfg.grid.n_cells))
        lay = res.layout
        est = res.marginal_mean[lay.fixed.start]
        sd = res.marginal_sd[lay.fixed.start]
        assert abs(est - mle) < 2 * sd
        assert res.psi_grid.weights.tolist() == [1.0]

    def test_refit_is_bit_identical(self, small_dataset):
        cfg, records = small_dataset
        a = fit(records, get_spec("uniform"), cfg.grid)
        b = fit(records, get_spec("uniform"), cfg.grid)
        assert np.array_equal(a.marginal_mean, b.marginal_mean)
        assert np.array_equal(a.marginal_sd, b.marginal_sd)
        assert np.array_equal(a.psi_grid.points, b.psi_grid.points)

    def test_grid_strategy_mixture(self, small_dataset):
        cfg, records = small_dataset
        res = fit(records, get_spec("m_a"), cfg.grid, strategy="grid",
                  grid_config=GridConfig(points=3, spacing=0.5))
        assert res.psi_grid.points.shape == (9, 2)
        assert res.psi_grid.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (res.marginal_sd >= 0).all()
        blk = res.layout.smooth_block
        assert abs(res.marginal_mean[blk].sum()) < 1e-6

    def test_grid_strategy_thread_invariant(self, small_dataset):
        cfg, records = small_dataset
        kw = dict(strategy="grid", grid_config=GridConfig(points=3, spacing=0.5))
        docs = []
        for threads in (1, 2):
            doc = fit(records, get_spec("m_a"), cfg.grid, threads=threads, **kw).to_json_dict()
            del doc["diagnostics"]["seconds"]
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("strategy,threads", [("grid", -3), ("empirical_bayes", 0)])
    def test_thread_count_below_one_rejected(self, small_dataset, strategy, threads):
        cfg, records = small_dataset
        with pytest.raises(ConfigError, match="threads"):
            fit(records, get_spec("m_a"), cfg.grid, strategy=strategy, threads=threads)

    def test_heatmap_shape_and_field_names(self, small_dataset):
        cfg, records = small_dataset
        res = fit(records, get_spec("m_a"), cfg.grid)
        hm = res.heatmap("smooth")
        assert hm.shape == (cfg.ny, cfg.nx)
        with pytest.raises(ConfigError):
            res.heatmap("100000")

    def test_json_round_trip(self, small_dataset):
        cfg, records = small_dataset
        res = fit(records, get_spec("m_a"), cfg.grid)
        doc = json.loads(json.dumps(res.to_json_dict()))
        back = FitResult.from_json_dict(doc)
        assert np.allclose(back.marginal_mean, res.marginal_mean, atol=1e-12)
        assert np.allclose(back.marginal_sd, res.marginal_sd, atol=1e-12)
        assert back.spec == res.spec
        assert back.shoe_ids == res.shoe_ids
        assert back.psi_map == res.psi_map

    def test_json_round_trip_keeps_the_precision_names(self, small_dataset):
        """psi_map is keyed by the model's precision table, pinned ones included."""
        cfg, records = small_dataset
        spec = get_spec("m_final")
        res = fit(records, spec, cfg.grid)
        back = FitResult.from_json_dict(json.loads(json.dumps(res.to_json_dict())))
        names = [q.name for q in ShoeModel(records, spec, cfg.grid).precisions]
        assert list(back.psi_map) == list(res.psi_map) == names
        assert back.psi_map == res.psi_map
        assert back.psi_map["tau_v[100001]"] == res.prior.fixed_tau_high_order
        assert back.layout == res.layout

    def test_all_zero_counts_rejected(self, small_dataset):
        cfg, records = small_dataset
        empty = []
        for r in records:
            empty.append(dataclasses.replace(r, counts=np.zeros_like(r.counts)))
        with pytest.raises(InputDataError):
            fit(empty, get_spec("uniform"), cfg.grid)

    def test_unknown_strategy_rejected(self, small_dataset):
        cfg, records = small_dataset
        with pytest.raises(ConfigError):
            fit(records, get_spec("uniform"), cfg.grid, strategy="mcmc")

    def test_diagnostics_counts(self, small_dataset, monkeypatch):
        cfg, records = small_dataset
        modes, factors = [], []
        real_find_mode, real_factor = inference.find_mode, inference._Factor

        def counted_find_mode(*args, **kwargs):
            modes.append(real_find_mode(*args, **kwargs))
            return modes[-1]

        def counted_factor(*args, **kwargs):
            factors.append(real_factor(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(inference, "find_mode", counted_find_mode)
        monkeypatch.setattr(inference, "_Factor", counted_factor)
        res = fit(records, get_spec("m_a"), cfg.grid)
        d = res.diagnostics
        n_cells = cfg.grid.n_cells
        assert d["n_latent"] == len(records) + 1 + n_cells
        assert d["constrained_dim"] == d["n_latent"] - 1
        assert d["n_free_hyper"] == 2
        assert d["n_parameters"] == d["constrained_dim"] + 2
        assert d["psi_evaluations"] > 0
        assert np.isfinite(d["log_psi_posterior_map"])
        # work counters: every evaluation ran one mode search, and the
        # totals are those of the searches and factorizations that ran
        assert d["psi_rejected"] == 0
        assert len(modes) == d["psi_evaluations"]
        assert d["newton_iterations"] == sum(m.iterations for m in modes)
        assert d["factorizations"] == len(factors)
        assert d["factorizations"] >= d["newton_iterations"] >= len(modes)
        assert d["line_search_halvings"] == sum(m.halvings for m in modes)
        assert d["psi_rejected_by_reason"] == {
            "unconverged": 0, "factorization": 0, "nonfinite": 0}
        # every search converged, so the largest stopping decrement is the
        # margin to the stopping rule
        assert d["max_accepted_decrement"] == max(m.decrement for m in modes)
        assert d["max_accepted_decrement"] <= inference.DECREMENT_RTOL
        assert all(type(d[k]) is int for k in (
            "newton_iterations", "factorizations", "line_search_halvings",
            "psi_rejected"))
        assert "psi_cache_hits" not in d and "search_start_log_tau" not in d

    @pytest.mark.parametrize("name,strategy", [("m_final", "empirical_bayes"), ("m_a", "grid")])
    def test_mode_searches_are_evaluations_and_grid_points(self, small_dataset, monkeypatch,
                                                           name, strategy):
        """The count the benchmark checks its trace against: a gradient
        reuses its point's mode, so every mode search is a psi evaluation
        or a grid point."""
        cfg, records = small_dataset
        modes, gradients = [], []
        real_find_mode, real_gradient = inference.find_mode, inference.psi_gradient

        def counted_find_mode(*args, **kwargs):
            modes.append(real_find_mode(*args, **kwargs))
            return modes[-1]

        def counted_gradient(*args):
            gradients.append(real_gradient(*args))
            return gradients[-1]

        monkeypatch.setattr(inference, "find_mode", counted_find_mode)
        monkeypatch.setattr(inference, "psi_gradient", counted_gradient)
        res = fit(records[:8], get_spec(name), cfg.grid, strategy=strategy,
                  grid_config=GridConfig(points=3))
        d = res.diagnostics
        grid_points = len(res.psi_grid.weights) if strategy == "grid" else 0
        assert len(modes) == d["psi_evaluations"] + grid_points
        assert d["psi_gradients"] == len(gradients) > 0
        assert type(d["psi_gradients"]) is int


def _overflowing_records():
    """Two shoes on a 3x2 grid, one with 5,000 accidentals in every cell.

    From theta = 0 the first Newton step overshoots so far that exp(eta)
    overflows, so the line search must halve.
    """
    out = []
    for i, count in enumerate((5000, 0)):
        rng = np.random.default_rng(i)
        contact = rng.uniform(size=(2, 3))
        out.append(ShoeRecord(
            shoe_id=f"s{i}", side="left", contact=contact,
            contact_binary=(contact > 0.5).astype(np.uint8),
            gradient=rng.uniform(size=(2, 3)),
            counts=np.full((2, 3), count),
        ))
    return out


class TestOverflowingStep:
    @pytest.mark.parametrize("name", ["uniform", "m_a"])
    def test_overflow_is_a_halving_and_each_point_is_evaluated_once(self, name,
                                                                     monkeypatch):
        grid = GridSpec.synthetic(3, 2)
        model = ShoeModel(_overflowing_records(), get_spec(name), grid)
        calls, raised = [], []
        real_lik_parts = ShoeModel.lik_parts

        def counted(self, theta, sigma):
            calls.append(theta)
            try:
                return real_lik_parts(self, theta, sigma)
            except NumericError:
                raised.append(theta)
                raise

        def no_loglik(self, theta):
            raise AssertionError("find_mode called loglik")

        monkeypatch.setattr(ShoeModel, "lik_parts", counted)
        monkeypatch.setattr(ShoeModel, "loglik", no_loglik)
        mode = find_mode(model.prior_at(np.zeros(model.n_free))[0], model)
        assert mode.converged
        assert mode.halvings >= 1 and raised
        # the start point, then one call per line-search candidate: the
        # accepted ones and the halved ones
        assert len(calls) == mode.iterations + mode.halvings

    def test_failed_line_search_ends_with_the_factor_at_its_point(self, monkeypatch):
        """With no halving allowed the first step, which overflows, fails; the
        search's own factor was spent by then, so the one it returns is
        built again at the start."""
        model = ShoeModel(_overflowing_records(), get_spec("m_a"), GridSpec.synthetic(3, 2))
        sigma, _ = model.prior_at(np.zeros(model.n_free))
        monkeypatch.setattr(inference, "MAX_HALVINGS", 0)
        mode = find_mode(sigma, model)
        assert (mode.converged, mode.iterations, mode.factorizations) == (False, 1, 2)
        _, _, H = model.lik_parts(mode.theta_star, sigma)
        assert mode.log_det_H == inference._Factor(H, model.constraint_blocks).log_det

    @pytest.mark.parametrize("name", ["uniform", "m_a"])
    def test_fit_scores_every_psi(self, name):
        """The fit's searches start at the log mean count, so they need no
        overflow halving (the test above covers that); every psi scores."""
        res = fit(_overflowing_records(), get_spec(name), GridSpec.synthetic(3, 2))
        d = res.diagnostics
        assert d["psi_rejected"] == 0
        assert np.isfinite(d["log_psi_posterior_map"])


class RejectingGaussianToy(GaussianSurrogateToy):
    """The Gaussian toy whose negative Hessian fails to factor wherever
    ``rejects(log tau)`` holds."""

    def __init__(self, B, y, s2, rejects):
        super().__init__(B, y, s2)
        self.rejects = rejects

    def prior_at(self, x):
        sigma, log_prior = super().prior_at(x)
        if self.rejects(x[0]):
            return -1e6 * np.eye(self.n_total), log_prior
        return sigma, log_prior


@pytest.mark.parametrize("threads", [1, 2])
def test_unscorable_grid_point_raises(threads):
    base = _gaussian_toy(seed=11)
    center = np.array([0.2])
    # the lattice is 0.2 + 0.5 * (-2 ... 2); only 0.7 fails to factor
    toy = RejectingGaussianToy(base.B, base.yv, base.s2, rejects=lambda v: abs(v - 0.7) < 0.1)
    center_mode = find_mode(toy.prior_at(center)[0], toy)
    cfg = GridConfig(points=5, spacing=0.5)
    with pytest.raises(NumericError, match=r"grid point \[0\.7\] .* \(factorization\)"):
        grid_posterior(toy, center, cfg, center_mode, threads=threads)


def _evidence_peak_1d(toy) -> float:
    return scipy.optimize.minimize_scalar(
        lambda v: -toy.exact_evidence(np.exp(v)), bounds=(-12, 12),
        method="bounded", options={"xatol": 1e-10},
    ).x


def _two_precision_toy():
    rng = np.random.default_rng(21)
    m, n1, n2 = 60, 6, 5
    B = rng.normal(size=(m, n1 + n2))
    theta = np.concatenate([rng.normal(scale=np.sqrt(2.0), size=n1),
                            rng.normal(scale=0.5, size=n2)])
    y = B @ theta + rng.normal(scale=np.sqrt(0.5), size=m)
    return TwoPrecisionGaussianToy(B, y, 0.5, n1)


def _evidence_peak(toy) -> np.ndarray:
    """The maximum of the exact evidence, by Nelder-Mead."""
    res = scipy.optimize.minimize(
        lambda v: -toy.exact_evidence(v), np.zeros(2), method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 10_000, "maxfev": 10_000},
    )
    assert res.success
    return res.x


class TestNewtonPsiSearch:
    def test_two_precision_search_finds_evidence_maximum(self):
        toy = _two_precision_toy()
        x, search = empirical_bayes(toy)
        assert np.abs(x - _evidence_peak(toy)).max() < 1e-4
        assert search.decrement <= inference.SEARCH_TOL
        assert search.rejected == 0

    def test_gradient_matches_exact_derivatives(self):
        """The exact gradient against the closed-form evidence gradient, at
        the peak, where it is 0, and at the start."""
        toy = _two_precision_toy()
        for at in (_evidence_peak(toy), np.zeros(2)):
            got = inference.psi_gradient(toy, at, _psi_objective(at, toy)[1])
            want = toy.exact_derivatives(at)[0]
            assert np.abs(got - want).max() <= 1e-7 * max(1.0, np.abs(want).max())

    def test_gradient_matches_central_differences_on_a_poisson_toy(self):
        """Here H moves with the mode, so the third-derivative term counts."""
        for y, x in ((3.0, 0.3), (20.0, -1.0)):
            toy, at, h = ScalarPoissonToy(y), np.array([x]), 1e-4
            got = inference.psi_gradient(toy, at, _psi_objective(at, toy)[1])
            want = (_psi_objective(at + h, toy)[0] - _psi_objective(at - h, toy)[0]) / (2 * h)
            assert abs(got[0] - want) <= 1e-5 * max(1.0, abs(want))

    def test_rejected_region_ends_at_best_finite_point(self, monkeypatch):
        base = _gaussian_toy(seed=9, n=5, m=40, s2=0.3)
        cap = _evidence_peak_1d(base) - 0.5
        toy = RejectingGaussianToy(base.B, base.yv, base.s2, rejects=lambda v: v > cap)
        values = []
        real_score = inference._score

        def recorded(*args):
            try:
                lp, mode = real_score(*args)
            except NumericError:
                values.append(-np.inf)
                raise
            values.append(lp)
            return lp, mode

        monkeypatch.setattr(inference, "_score", recorded)
        x, search = empirical_bayes(toy)
        assert len(values) == search.evals
        assert search.rejected > 0
        assert search.rejected == sum(not np.isfinite(v) for v in values)
        assert search.rejected_by_reason == {"factorization": search.rejected}
        assert search.best_value == max(v for v in values if np.isfinite(v))
        assert np.array_equal(x, search.best_vec)
        # the evidence rises up to the cap, so the search stops below it
        # once the steps it can take there gain at most SEARCH_TOL nats
        assert x[0] <= cap
        gap = base.exact_evidence(np.exp(cap)) - base.exact_evidence(np.exp(x[0]))
        assert 0.0 <= gap <= inference.SEARCH_TOL

    def test_rejected_start_is_stepped_over(self, monkeypatch):
        base = _gaussian_toy(seed=9, n=5, m=40, s2=0.3)
        toy = RejectingGaussianToy(base.B, base.yv, base.s2,
                                   rejects=lambda v: abs(v) < inference.SEARCH_FIRST_STEP / 2)
        scored = []
        real_score = inference._score

        def recorded(model, vec, anchor):
            scored.append(tuple(vec))
            return real_score(model, vec, anchor)

        monkeypatch.setattr(inference, "_score", recorded)
        x, search = empirical_bayes(toy)
        # both points SEARCH_FIRST_STEP from the start score, and the ascent
        # from the better one scores no point again
        assert search.rejected_by_reason == {"factorization": 1}
        assert len(set(scored)) == len(scored) == search.evals
        assert search.decrement <= inference.SEARCH_TOL
        # this evidence is flat in log tau (f'' = -0.06 at its peak), so the
        # stopping rule's nats bound the search's result, not its location
        peak = _evidence_peak_1d(base)
        gap = base.exact_evidence(np.exp(peak)) - base.exact_evidence(np.exp(x[0]))
        assert 0.0 <= gap <= inference.SEARCH_TOL

    def test_first_mode_search_starts_at_log_mean_count(self, small_dataset, monkeypatch):
        cfg, records = small_dataset
        starts = []
        real_find_mode = inference.find_mode

        def recorded(sigma, model, theta0=None):
            starts.append(theta0)
            return real_find_mode(sigma, model, theta0=theta0)

        monkeypatch.setattr(inference, "find_mode", recorded)
        fit(records, get_spec("m_a"), cfg.grid)
        model = ShoeModel(records, get_spec("m_a"), cfg.grid)
        want = np.zeros(model.n_total)
        want[model.layout.fixed.start] = np.log(model.y.mean())
        assert np.array_equal(starts[0], want)

    def test_fit_reports_the_search(self, small_dataset, monkeypatch):
        cfg, records = small_dataset
        points, gradients = [], []
        real_gradient = inference.psi_gradient

        def recorded(model, vec, mode):
            points.append(np.array(vec))
            gradients.append(real_gradient(model, vec, mode))
            return gradients[-1]

        monkeypatch.setattr(inference, "psi_gradient", recorded)
        d = fit(records, get_spec("m_a"), cfg.grid).diagnostics
        assert d["psi_gradients"] == len(gradients)
        # one gradient at the start and one at the end of each line search
        assert d["psi_search_iterations"] == len(gradients) - 1
        # the quasi-Newton model, rebuilt from the gradients' points: BFGS
        # on the negative Hessian B from SEARCH_CURVATURE times the
        # identity, skipping pairs with s'y <= 0 (Nocedal & Wright, eq. 6.19)
        B = inference.SEARCH_CURVATURE * np.eye(d["n_free_hyper"])
        for s, y in zip(np.diff(points, axis=0), -np.diff(gradients, axis=0)):
            if s @ y > 0:
                Bs = B @ s
                B = B - np.outer(Bs, Bs) / (s @ Bs) + np.outer(y, y) / (s @ y)
        g = gradients[-1]
        assert np.linalg.eigvalsh(B).min() > 0
        assert d["psi_search_decrement"] == pytest.approx(
            0.5 * g @ np.linalg.solve(B, g), rel=1e-9)
        assert d["psi_search_decrement"] <= inference.SEARCH_TOL
        # the start, a line-search point per iteration, and the model's
        # last step
        assert d["psi_evaluations"] >= 1 + d["psi_search_iterations"] + 1
        assert "search_initial_step" not in d
