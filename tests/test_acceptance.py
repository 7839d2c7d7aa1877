"""Acceptance battery: eleven end-to-end checks at their stated tolerances.

Each check prints one ``criterion NN PASS/FAIL`` summary line (visible
with ``pytest tests/test_acceptance.py -v -s``, or in the captured output
of any failing run). The parameter-recovery check (criterion 7) simulates,
fits, and cross-validates a 200-shoe dataset and takes several minutes;
everything else finishes in seconds. It is defined last so the quick
checks report first.
"""

import json
import re
import time

import numpy as np
import scipy.integrate
import scipy.stats
from scipy.special import gammaln

from _toys import GaussianSurrogateToy, ScalarPoissonToy, arrow_to_dense, queen_laplacian
from coxforge import datasets as ds
from coxforge.crossval import make_folds, run_cv
from coxforge.design import ModelSpec, builtin_specs, get_spec
from coxforge.gmrf import log_gen_det
from coxforge.gradient import fft_convolve2d, sobel_magnitude
from coxforge.grids import GridSpec, ShoeRecord
from coxforge.inference import _psi_objective, fit
from coxforge.metrics import shoe_metric
from coxforge.model import ShoeModel
from coxforge.predict import log_multinomial, poisson_marginal, predictive_q
from coxforge.simulate import SimConfig, gen_dataset

M_A = get_spec("m_a")


def _conclude(num, ok, detail, t0, budget):
    elapsed = time.monotonic() - t0
    ok = bool(ok) and elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} {verdict}: {detail} [{elapsed:.1f}s / {budget:.0f}s]"
    print(line)
    assert ok, line


def _shoe(nx, ny, seed=0, max_count=3):
    rng = np.random.default_rng(seed)
    contact = rng.uniform(size=(ny, nx))
    return ShoeRecord(
        shoe_id=f"a{seed}",
        side="left",
        contact=contact,
        contact_binary=(contact > 0.5).astype(np.uint8),
        gradient=rng.uniform(size=(ny, nx)),
        counts=rng.integers(0, max_count + 1, size=(ny, nx)),
    )


def test_criterion_01_uniform_baseline():
    t0 = time.monotonic()
    grid = GridSpec()  # the standard 39x91 geometry
    q = np.full(grid.n_cells, 1.0 / grid.n_cells)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(25):
        counts = rng.integers(0, 4, size=grid.n_cells)
        counts[rng.integers(grid.n_cells)] += 1  # never all-zero
        worst = max(worst, abs(shoe_metric(counts, q, grid) - (-12.480)))
    _conclude(1, worst <= 1e-3,
              f"uniform metric on 39x91 within {worst:.2e} of -12.480", t0, 1.0)


def test_criterion_02_multinomial_poisson_factorization():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        nx, ny = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        shoe = _shoe(nx, ny, seed=seed + 1000, max_count=3)
        n = nx * ny
        theta = 0.3 * rng.normal(size=1 + n)
        b = float(rng.normal())  # fixed shoe effect
        field = predictive_q(theta, shoe, M_A)
        y = shoe.counts.ravel().astype(float)

        lam = np.exp(b + field.eta1)
        joint = float((y * np.log(lam)).sum() - lam.sum() - gammaln(y + 1).sum())

        total = y.sum()
        big_lambda = float(np.exp(field.eta1).sum())
        log_pois = (total * (b + np.log(big_lambda))
                    - np.exp(b) * big_lambda - gammaln(total + 1))
        log_multi = log_multinomial(y, field.q, include_coefficient=True)
        split = log_pois + log_multi
        worst = max(worst, abs(joint - split) / max(1.0, abs(split)))
    _conclude(2, worst <= 1e-12,
              f"100 instances, joint = total x allocation, "
              f"worst rel err {worst:.2e}", t0, 5.0)


SMALL_SPEC = ModelSpec(
    "acceptance-small",
    fixed=((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)),
    varying=((1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1)),
)


def _small_model(seed):
    grid = GridSpec.synthetic(3, 2)
    recs = [_shoe(3, 2, seed=seed * 10 + i, max_count=4) for i in range(2)]
    recs[1].shoe_id += "b"
    model = ShoeModel(recs, SMALL_SPEC, grid)
    x = np.array([0.3, -0.2, 0.5])  # free log-precisions
    rng = np.random.default_rng(seed + 100)
    theta = 0.1 * rng.normal(size=model.layout.n_total)
    return model, x, theta


def test_criterion_03_gradient_hessian_vs_finite_differences():
    """lik_parts' gradient and negative Hessian against central differences
    of its own value and gradient, at a fixed prior precision Sigma."""
    t0 = time.monotonic()
    h = 1e-6
    worst_g, worst_h = 0.0, 0.0
    for seed in (0, 1, 2):
        model, x, theta = _small_model(seed)
        n = model.layout.n_total
        sigma, _ = model.prior_at(x)
        _, grad, neg_hess = model.lik_parts(theta, sigma)
        dense = arrow_to_dense(neg_hess)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            vp, gp, _ = model.lik_parts(theta + e, sigma)
            vm, gm, _ = model.lik_parts(theta - e, sigma)
            fd = (vp - vm) / (2 * h)
            worst_g = max(worst_g, abs(grad[i] - fd) / max(1.0, abs(fd)))
            fd_row = -(gp - gm) / (2 * h)
            scale = max(1.0, np.abs(fd_row).max())
            worst_h = max(worst_h, np.abs(dense[i] - fd_row).max() / scale)
    ok = worst_g <= 1e-6 and worst_h <= 1e-5
    _conclude(3, ok, f"gradient rel err {worst_g:.2e} <= 1e-6, "
              f"Hessian rel err {worst_h:.2e} <= 1e-5", t0, 10.0)


def _scalar_evidence_by_quadrature(toy, psi):
    from scipy.optimize import brentq
    t_star = brentq(lambda t: toy.y - np.exp(t) - psi * t,
                    -40.0, 40.0, xtol=1e-14)
    v_star = toy.loglik(np.array([t_star])) - 0.5 * psi * t_star**2
    width = 12.0 / np.sqrt(np.exp(t_star) + psi)

    def f(t):
        return np.exp(toy.loglik(np.array([t])) - 0.5 * psi * t * t - v_star)

    val, _ = scipy.integrate.quad(f, t_star - width, t_star + width,
                                  epsabs=1e-13, epsrel=1e-12)
    return v_star + np.log(val) + 0.5 * np.log(psi) - 0.5 * np.log(2 * np.pi)


def test_criterion_04_laplace_fidelity():
    t0 = time.monotonic()
    worst_pois = 0.0
    for y in (5.0, 9.0, 20.0):
        toy = ScalarPoissonToy(y)
        lp = _psi_objective(np.zeros(1), toy)[0]
        worst_pois = max(worst_pois,
                         abs(lp - _scalar_evidence_by_quadrature(toy, 1.0)))
    rng = np.random.default_rng(42)
    B = rng.normal(size=(8, 4))
    yv = rng.normal(size=8)
    worst_gauss = 0.0
    for blocks in ((), (np.arange(1, 4),)):
        toy = GaussianSurrogateToy(B, yv, 0.5, blocks=blocks)
        for psi in (0.3, 1.0, 4.0):
            lp = _psi_objective(np.log([psi]), toy)[0]
            worst_gauss = max(worst_gauss, abs(lp - toy.exact_evidence(psi)))
    ok = worst_pois <= 2e-2 and worst_gauss <= 1e-8
    _conclude(4, ok, f"Poisson toys |Laplace - quadrature| {worst_pois:.2e} "
              f"<= 2e-2, Gaussian exact to {worst_gauss:.2e}", t0, 10.0)


def test_criterion_05_generalized_determinant():
    t0 = time.monotonic()
    worst = 0.0
    for nx, ny in ((2, 2), (3, 2), (4, 4), (5, 3), (7, 7), (10, 10)):
        got = log_gen_det(GridSpec.synthetic(nx, ny))
        w = np.linalg.eigvalsh(queen_laplacian(nx, ny))
        pos = w[w > 1e-9 * max(1.0, w.max())]
        assert pos.size == nx * ny - 1  # one zero eigenvalue exactly
        want = float(np.log(pos).sum())
        worst = max(worst, abs(got - want) / abs(want))
    _conclude(5, worst <= 1e-8,
              f"queen lattices up to 10x10, worst rel err {worst:.2e}",
              t0, 5.0)


def _direct_convolve2d(image, kernel):
    ih, iw = image.shape
    kh, kw = kernel.shape
    cy, cx = (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros_like(image, dtype=float)
    for oy in range(ih):
        for ox in range(iw):
            acc = 0.0
            for dy in range(kh):
                for dx in range(kw):
                    sy = oy - (dy - cy)
                    sx = ox - (dx - cx)
                    if 0 <= sy < ih and 0 <= sx < iw:
                        acc += image[sy, sx] * kernel[dy, dx]
            out[oy, ox] = acc
    return out


def test_criterion_06_fft_convolution_and_sobel():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(12):
        ih, iw = int(rng.integers(3, 33)), int(rng.integers(3, 33))
        kh, kw = int(rng.integers(1, 4)) * 2 - 1, int(rng.integers(1, 4)) * 2 - 1
        img = rng.normal(size=(ih, iw))
        ker = rng.normal(size=(kh, kw))
        worst = max(worst, np.abs(
            fft_convolve2d(img, ker) - _direct_convolve2d(img, ker)).max())

    step = np.zeros((8, 10))
    step[:, 5:] = 1.0
    mag = sobel_magnitude(step)
    edge_err = np.abs(mag[1:-1, 4:6] - 4.0).max()
    ok = worst <= 1e-10 and edge_err <= 1e-12
    _conclude(6, ok, f"fft vs direct {worst:.2e} <= 1e-10; step-edge "
              f"magnitude 4 to within {edge_err:.1e} (float rounding)",
              t0, 5.0)


def test_criterion_08_shoe_effect_cancels_in_prediction():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        shoe = _shoe(6, 7, seed=seed + 50)
        rest = rng.normal(size=1 + 42)  # intercept + smooth field
        with_shoes = np.concatenate([rng.normal(size=4), rest])
        qa = predictive_q(with_shoes, shoe, M_A).q
        qb = predictive_q(rest, shoe, M_A).q
        worst = max(worst, np.abs(qa - qb).max())
    _conclude(8, worst <= 1e-15,
              f"q with vs without shoe block differs by {worst:.1e}", t0, 5.0)


def test_criterion_09_marginalization_quadrature():
    t0 = time.monotonic()
    worst_self = 0.0
    for total, lam, tau in ((4, 3.0, 2.0), (11, 5.5, 1.0), (0, 2.0, 4.0)):
        a = poisson_marginal(total, lam, tau, grid_d=512)
        b = poisson_marginal(total, lam, tau, grid_d=1024)
        worst_self = max(worst_self, abs(a - b))
    worst_limit = 0.0
    for k in (0, 2, 7):
        got = poisson_marginal(k, 3.5, 1e8)
        want = scipy.stats.poisson.logpmf(k, 3.5)
        worst_limit = max(worst_limit, abs(got - want))
    ok = worst_self < 1e-8 and worst_limit <= 1e-4
    _conclude(9, ok, f"D=512 vs 1024 differ {worst_self:.1e} < 1e-8; "
              f"tau=1e8 vs Poisson point mass {worst_limit:.1e} <= 1e-4",
              t0, 5.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    cfg = SimConfig(nx=6, ny=8, n_shoes=12, spec=M_A, intercept=-1.0, seed=5)
    r1, t1 = gen_dataset(cfg)
    r2, t2 = gen_dataset(cfg)
    ds.save_dataset(r1, cfg.grid, tmp_path / "a.json")
    ds.save_dataset(r2, cfg.grid, tmp_path / "b.json")
    scrub = re.compile(r'"created_utc": "[^"]*"')
    bytes_equal = (scrub.sub("", (tmp_path / "a.json").read_text())
                   == scrub.sub("", (tmp_path / "b.json").read_text()))
    theta_equal = np.array_equal(t1, t2)

    ids = [r.shoe_id for r in r1]
    plans_equal = make_folds(ids, 4, seed=9) == make_folds(ids, 4, seed=9)

    fa = fit(r1, M_A, cfg.grid, threads=1)
    fb = fit(r1, M_A, cfg.grid, threads=1)
    da, db = fa.to_json_dict(), fb.to_json_dict()
    for d in (da, db):
        d["diagnostics"].pop("seconds")
    fits_equal = json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    fc = fit(r1, M_A, cfg.grid, threads=3)
    thread_drift = max(
        np.abs(fa.marginal_mean - fc.marginal_mean).max(),
        np.abs(fa.marginal_sd - fc.marginal_sd).max(),
    )
    ok = (bytes_equal and theta_equal and plans_equal and fits_equal
          and thread_drift <= 1e-9)
    _conclude(10, ok, "byte-identical datasets/plans/fits at one thread; "
              f"cross-thread drift {thread_drift:.1e} <= 1e-9", t0, 120.0)


def test_criterion_11_config_fidelity():
    t0 = time.monotonic()
    names = set(builtin_specs())
    sizes = {n: (len(get_spec(n).fixed), len(get_spec(n).varying))
             for n in names}
    ok = (sizes["m_final"] == (64, 3)
          and sizes["m_b"] == (32, 0)
          and sizes["variant_a"][1] == 15
          and sizes["uniform"][0] == 1
          and sizes["m_a"][0] == 1)
    detail = ", ".join(f"{n} |I|={a}/|I*|={b}"
                       for n, (a, b) in sorted(sizes.items()))
    _conclude(11, ok, detail, t0, 5.0)


def test_criterion_07_parameter_recovery_and_cv():
    t0 = time.monotonic()
    cfg = SimConfig(seed=7)  # defaults: 12x16 grid, 200 shoes, m_final
    records, theta = gen_dataset(cfg)

    res = fit(records, cfg.spec, cfg.grid)
    blk = res.layout.fixed
    z = np.abs(res.marginal_mean[blk] - theta[blk]) / res.marginal_sd[blk]
    frac_recovered = float((z <= 3.0).mean())

    plan = make_folds([r.shoe_id for r in records], 5, seed=7)
    cv = run_cv(records, [get_spec("uniform"), cfg.spec], plan, grid=cfg.grid)
    mu = cv.per_shoe["uniform"]
    mf = cv.per_shoe["m_final"]
    shared = sorted(set(mu) & set(mf))
    beat = float(np.mean([mf[s] > mu[s] for s in shared]))

    ok = frac_recovered >= 0.90 and beat >= 0.95
    _conclude(7, ok, f"beta_f within 3 sd for {frac_recovered:.0%} of "
              f"coordinates (need 90%); fitted beats uniform on {beat:.0%} "
              f"of {len(shared)} held-out shoes (need 95%)", t0, 900.0)
