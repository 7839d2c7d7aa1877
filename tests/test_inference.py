import dataclasses
import json

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from _toys import GaussianSurrogateToy, ScalarPoissonToy
from coxforge import inference
from coxforge.design import get_spec
from coxforge.errors import ConfigError, InputDataError, NumericError
from coxforge.inference import (
    FitResult,
    GridConfig,
    NewtonOptions,
    PsiGrid,
    empirical_bayes,
    find_mode,
    fit,
    grid_posterior,
    log_psi_posterior,
    marginal_sd,
)
from coxforge.simulate import SimConfig, gen_dataset

TIGHT = dict(opts=NewtonOptions(tol=1e-12))
# the 1-D toy's objective cannot certify ascent much below |grad| ~ 1e-10,
# so scalar tests converge at a tolerance the float landscape supports
SCALAR = dict(opts=NewtonOptions(tol=1e-9))


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


class TestScalarPoisson:
    @pytest.mark.parametrize("y,psi", [(3.0, 1.0), (5.0, 0.5), (20.0, 2.0)])
    def test_mode_matches_root_finder(self, y, psi):
        toy = ScalarPoissonToy(y)
        mode = find_mode(psi, toy, **SCALAR)
        assert mode.converged
        assert mode.theta_star[0] == pytest.approx(
            scalar_mode_oracle(y, psi), abs=1e-9
        )

    def test_log_det_is_curvature(self):
        toy = ScalarPoissonToy(3.0)
        mode = find_mode(1.0, toy, **SCALAR)
        want = np.log(np.exp(mode.theta_star[0]) + 1.0)
        assert mode.log_det_H == pytest.approx(want, rel=1e-12)

    def test_monotone_ascent_across_iteration_budgets(self):
        toy = ScalarPoissonToy(20.0)
        values = [
            find_mode(1.0, toy, opts=NewtonOptions(tol=1e-14, max_iter=k)).value
            for k in range(1, 8)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("y", [5.0, 9.0, 20.0])
    def test_laplace_close_to_and_below_quadrature(self, y):
        toy = ScalarPoissonToy(y)
        lp = log_psi_posterior(1.0, toy, opts=NewtonOptions(tol=1e-10))
        truth = scalar_evidence_oracle(toy, 1.0)
        assert lp <= truth + 1e-12
        assert lp == pytest.approx(truth, abs=2e-2)

    def test_nonconvergence_reported_not_raised(self):
        toy = ScalarPoissonToy(20.0)
        mode = find_mode(1.0, toy, opts=NewtonOptions(tol=1e-14, max_iter=1))
        assert not mode.converged
        with pytest.raises(NumericError):
            log_psi_posterior(1.0, toy, opts=NewtonOptions(tol=1e-14, max_iter=1))

    def test_bad_options_rejected(self):
        toy = ScalarPoissonToy()
        with pytest.raises(ConfigError):
            NewtonOptions(tol=0.0)
        with pytest.raises(ConfigError):
            find_mode(1.0, toy, theta0=np.zeros(3))


def _gaussian_toy(seed=0, n=6, m=10, s2=0.5, blocks=()):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(m, n))
    y = rng.normal(size=m)
    return GaussianSurrogateToy(B, y, s2, blocks=blocks)


class TestGaussianSurrogate:
    def test_unconstrained_mode_is_gls(self):
        toy = _gaussian_toy()
        psi = 0.8
        mode = find_mode(psi, toy, **TIGHT)
        assert mode.converged
        assert np.abs(mode.theta_star - toy.exact_mode(psi)).max() < 1e-8

    def test_quadratic_objective_converges_immediately(self):
        toy = _gaussian_toy(seed=1)
        mode = find_mode(1.5, toy, **TIGHT)
        assert mode.iterations <= 2

    def test_constrained_mode_and_feasibility(self):
        blocks = (np.arange(0, 3), np.arange(3, 7))
        toy = _gaussian_toy(seed=2, n=7, m=12, blocks=blocks)
        psi = 1.2
        mode = find_mode(psi, toy, **TIGHT)
        for blk in blocks:
            assert abs(mode.theta_star[blk].sum()) < 1e-12
        assert np.abs(mode.theta_star - toy.exact_mode(psi)).max() < 1e-8

    def test_log_det_matches_reduced_hessian(self):
        blocks = (np.arange(0, 4),)
        toy = _gaussian_toy(seed=3, n=6, m=9, blocks=blocks)
        psi = 0.7
        mode = find_mode(psi, toy, **TIGHT)
        U = toy.nullspace_basis()
        H = toy.B.T @ toy.B / toy.s2 + psi * np.eye(6)
        _, want = np.linalg.slogdet(U.T @ H @ U)
        assert mode.log_det_H == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("blocks", [(), (np.arange(0, 3),)])
    def test_evidence_is_exact_for_conjugate_problem(self, blocks):
        toy = _gaussian_toy(seed=4, n=6, m=11, blocks=blocks)
        for psi in (0.3, 1.0, 4.0):
            lp = log_psi_posterior(psi, toy, opts=NewtonOptions(tol=1e-12))
            assert lp == pytest.approx(toy.exact_evidence(psi), abs=1e-8)

    def test_evidence_invariant_under_coordinate_permutation(self):
        toy = _gaussian_toy(seed=5, n=6, m=10)
        perm = np.array([3, 0, 5, 1, 4, 2])
        permuted = GaussianSurrogateToy(toy.B[:, perm], toy.yv, toy.s2)
        a = log_psi_posterior(0.9, toy, opts=NewtonOptions(tol=1e-12))
        b = log_psi_posterior(0.9, permuted, opts=NewtonOptions(tol=1e-12))
        assert a == pytest.approx(b, abs=1e-9)

    def test_marginal_sd_matches_exact_covariance(self):
        blocks = (np.arange(0, 3),)
        toy = _gaussian_toy(seed=6, n=7, m=14, blocks=blocks)
        psi = 1.1
        mode = find_mode(psi, toy, **TIGHT)
        got = marginal_sd(mode, toy.n_total, chunk=3)
        want = np.sqrt(np.diag(toy.exact_covariance(psi)))
        assert np.abs(got - want).max() < 1e-6

    def test_marginal_sd_needs_factorization(self):
        toy = _gaussian_toy(seed=7)
        mode = find_mode(1.0, toy, **TIGHT)
        stripped = dataclasses.replace(mode, _lu=None)
        with pytest.raises(NumericError):
            marginal_sd(stripped, toy.n_total)

    def test_warm_start_agrees_with_cold_start(self):
        toy = _gaussian_toy(seed=8)
        cold = find_mode(1.0, toy, **TIGHT)
        warm = find_mode(1.0, toy, theta0=cold.theta_star + 0.1, **TIGHT)
        assert np.abs(cold.theta_star - warm.theta_star).max() < 1e-8


class TestHyperparameterSearch:
    def test_empirical_bayes_finds_evidence_maximum(self):
        toy = _gaussian_toy(seed=9, n=5, m=40, s2=0.3)
        x, ev = empirical_bayes(toy, opts=NewtonOptions(tol=1e-12))
        res = scipy.optimize.minimize_scalar(
            lambda v: -toy.exact_evidence(np.exp(v)), bounds=(-12, 12),
            method="bounded", options={"xatol": 1e-10},
        )
        assert x[0] == pytest.approx(res.x, abs=2e-3)
        assert ev.evals == len(ev.cache)

    def test_search_is_deterministic(self):
        toy = _gaussian_toy(seed=10)
        x1, _ = empirical_bayes(toy, opts=NewtonOptions(tol=1e-12))
        x2, _ = empirical_bayes(toy, opts=NewtonOptions(tol=1e-12))
        assert np.array_equal(x1, x2)

    def test_grid_posterior_weights(self):
        toy = _gaussian_toy(seed=11)
        center = np.array([0.2])
        cfg = GridConfig(points=5, spacing=0.5)
        grid, modes = grid_posterior(toy, center, cfg,
                                     opts=NewtonOptions(tol=1e-12))
        assert grid.points.shape == (5, 1)
        assert np.allclose(grid.points[:, 0],
                           center[0] + 0.5 * (np.arange(5) - 2))
        assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (grid.weights > 0).all()
        assert len(modes) == 5
        # masses follow exp(evidence + log-scale Jacobian)
        lp = np.array([
            toy.exact_evidence(np.exp(p[0])) + p[0] for p in grid.points
        ])
        want = np.exp(lp - lp.max())
        want /= want.sum()
        assert np.abs(grid.weights - want).max() < 1e-7

    def test_grid_config_validation(self):
        with pytest.raises(ConfigError):
            GridConfig(points=0)
        with pytest.raises(ConfigError):
            GridConfig(spacing=-1.0)

    def test_psi_grid_json_round_trip(self):
        grid = PsiGrid(
            points=np.array([[0.1, -0.2], [0.3, 0.4]]),
            weights=np.array([0.25, 0.75]),
            free_names=["tau_s", "tau_sm"],
        )
        got = PsiGrid.from_json_dict(
            json.loads(json.dumps(grid.to_json_dict()))
        )
        assert np.allclose(got.points, grid.points)
        assert np.allclose(got.weights, grid.weights)
        assert got.free_names == grid.free_names


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
        a = fit(records, get_spec("m_a"), cfg.grid, threads=1, **kw)
        b = fit(records, get_spec("m_a"), cfg.grid, threads=2, **kw)
        assert np.array_equal(a.marginal_mean, b.marginal_mean)
        assert np.array_equal(a.marginal_sd, b.marginal_sd)

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
        assert d["psi_cache_hits"] > 0
        assert all(type(d[k]) is int for k in (
            "newton_iterations", "factorizations", "line_search_halvings",
            "psi_rejected", "psi_cache_hits"))
