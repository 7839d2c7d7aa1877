import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxforge.errors import ConfigError
from coxforge.grids import GridSpec
from coxforge.metrics import (
    ComparisonStats,
    compare,
    fold_gain,
    median_loss_ratio,
    shoe_metric,
    uniform_metric,
)

STANDARD_GRID = GridSpec()


class TestUniformMetric:
    def test_standard_grid_value(self):
        # -log(n_cells * cell_area) = -log(336 * 783)
        assert uniform_metric(STANDARD_GRID) == pytest.approx(
            -12.480243855954008, abs=1e-12)

    def test_synthetic_grid(self):
        g = GridSpec.synthetic(8, 10)
        assert uniform_metric(g) == pytest.approx(-np.log(80.0), rel=1e-14)

    def test_equals_shoe_metric_of_uniform_prediction(self):
        g = GridSpec.synthetic(5, 4)
        counts = np.zeros(20)
        counts[[3, 11, 17]] = 1
        q = np.full(20, 1 / 20)
        assert shoe_metric(counts, q, g) == pytest.approx(uniform_metric(g),
                                                          rel=1e-14)


class TestShoeMetric:
    def test_single_accidental_full_mass(self):
        counts = np.zeros(STANDARD_GRID.n_cells)
        counts[100] = 1
        q = np.zeros(STANDARD_GRID.n_cells)
        q[100] = 1.0
        got = shoe_metric(counts, q, STANDARD_GRID)
        assert got == pytest.approx(-np.log(STANDARD_GRID.cell_area), rel=1e-12)
        assert got == pytest.approx(-4.305822703307511, abs=1e-12)
        assert got == pytest.approx(-4.3059, abs=2e-4)

    def test_two_accidentals_unit_area(self):
        g = GridSpec.synthetic(3, 3)
        counts = np.zeros(9)
        counts[4] = 2
        q = np.zeros(9)
        q[4] = 1.0
        assert shoe_metric(counts, q, g) == 0.0

    def test_formula_on_random_case(self):
        g = GridSpec.synthetic(4, 4)
        rng = np.random.default_rng(0)
        y = rng.integers(0, 4, size=16).astype(float)
        w = rng.uniform(0.01, 1, size=16)
        q = w / w.sum()
        want = (y @ np.log(q)) / y.sum() - np.log(g.cell_area)
        assert shoe_metric(y, q, g) == pytest.approx(want, rel=1e-13)

    def test_zero_accidentals_is_nan(self):
        g = GridSpec.synthetic(2, 2)
        assert np.isnan(shoe_metric(np.zeros(4), np.full(4, 0.25), g))

    def test_zero_mass_occupied_cell_is_neg_inf(self):
        g = GridSpec.synthetic(2, 2)
        got = shoe_metric([1, 0, 0, 0], [0.0, 0.5, 0.25, 0.25], g)
        assert got == -np.inf

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            shoe_metric([1, 2], [0.5, 0.25, 0.25], GridSpec.synthetic(2, 2))

    def test_joint_cell_permutation_invariance(self):
        g = GridSpec.synthetic(4, 3)
        rng = np.random.default_rng(1)
        y = rng.integers(0, 3, size=12).astype(float)
        y[0] = 1  # guarantee nonzero total
        w = rng.uniform(0.01, 1, size=12)
        q = w / w.sum()
        perm = rng.permutation(12)
        assert shoe_metric(y[perm], q[perm], g) == pytest.approx(
            shoe_metric(y, q, g), rel=1e-14)

    def test_mass_moving_to_occupied_cell_strictly_increases(self):
        g = GridSpec.synthetic(2, 2)
        y = np.array([2.0, 1.0, 0.0, 0.0])
        q1 = np.array([0.3, 0.2, 0.3, 0.2])
        q2 = np.array([0.45, 0.3, 0.15, 0.1])  # mass moved onto occupied
        assert shoe_metric(y, q2, g) > shoe_metric(y, q1, g)


class TestMedianLossRatio:
    def test_identical_models(self):
        m = [-1.0, -2.0, -3.5]
        assert median_loss_ratio(m, m) == 100.0

    def test_worked_triple(self):
        got = median_loss_ratio([-1.0, -2.0, -3.0], [-1.0, -1.0, -1.0])
        assert got == pytest.approx(100.0 * np.exp(-1.0), rel=1e-12)
        assert got == pytest.approx(36.79, abs=5e-3)

    def test_even_length_uses_middle_pair_mean(self):
        # ratios exp(d) = (1, 2, 4, 8): median = (2 + 4) / 2
        d = np.log([1.0, 2.0, 4.0, 8.0])
        got = median_loss_ratio(d, np.zeros(4))
        assert got == pytest.approx(300.0, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            median_loss_ratio([1.0], [1.0, 2.0])

    def test_swap_product_identity_holds_only_at_rounding_level(self):
        """R(a,b) * R(b,a) >= 100^2 in exact arithmetic, but float
        evaluation can land a few ulp below — callers must not rely on
        the exact inequality. This input dips ~4e-12 under 10000."""
        a = np.array([1.4898572901154916, -0.934868454228054,
                      0.4029252586801901, -1.1801552175643732,
                      0.6963800953131959])
        b = np.array([1.3305478716222123, 7.46815022186773,
                      2.2200509945141604, -2.935432441684995,
                      4.724683532083928])
        p = median_loss_ratio(a, b) * median_loss_ratio(b, a)
        assert p == pytest.approx(10000.0, rel=1e-12)
        assert p >= 10000.0 * (1 - 1e-11)

    def test_even_length_swap_product_exceeds_square(self):
        # distinct middle ratios make the product strictly larger
        d = np.log([1.0, 2.0, 4.0, 8.0])
        p = median_loss_ratio(d, np.zeros(4)) * median_loss_ratio(np.zeros(4), d)
        assert p == pytest.approx(11250.0, rel=1e-12)
        assert p > 10000.0

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
           st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_odd_length_swap_is_reciprocal(self, a, b):
        r1 = median_loss_ratio(a, b)
        r2 = median_loss_ratio(b, a)
        assert r1 * r2 == pytest.approx(10000.0, rel=1e-9)


class TestFoldGain:
    def test_identical_folds(self):
        m = [-3.0] * 10
        assert fold_gain(m, m) == 100.0

    def test_constant_improvement(self):
        a = np.full(10, -4.0)
        b = a + 0.1
        assert fold_gain(a, b) == pytest.approx(110.51709180756477, rel=1e-12)

    def test_antisymmetric_product(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=10), rng.normal(size=10)
        assert fold_gain(a, b) * fold_gain(b, a) == pytest.approx(
            10000.0, rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            fold_gain([1.0, 2.0], [1.0])


def ccc(x, y) -> float:
    """The concordance ``compare`` reports for two metric vectors."""
    return compare(x, y, [0.0], [0.0]).ccc


class TestCcc:
    def test_perfect_agreement(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert ccc(x, x) == pytest.approx(1.0, rel=1e-14)

    def test_worked_example(self):
        got = ccc([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        # rho = 1, nu = 1/2, u^2 = 2 -> 2 / 4.5
        assert got == pytest.approx(2.0 / 4.5, rel=1e-12)
        assert got == pytest.approx(0.4444, abs=5e-5)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=20), rng.normal(size=20)
        assert ccc(x, y) == pytest.approx(ccc(y, x), abs=1e-12)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_accuracy_factor_bounds(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        c = ccc(x, y)
        rho = np.corrcoef(x, y)[0, 1]
        assert abs(c) <= abs(rho) + 1e-12
        assert abs(rho) <= 1 + 1e-12

    def test_zero_variance_is_nan(self):
        assert np.isnan(ccc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_rounding_level_variance_is_nan(self):
        # per-shoe averaging reproduces a constant only up to an ulp; a
        # spread at that level is rounding noise, not variance
        c = -4.382026634673881
        x = np.array([c, np.nextafter(c, 5), np.nextafter(c, -5), c])
        assert x.std(ddof=1) > 0  # the trap: not exactly constant
        assert np.isnan(ccc(x, [1.0, 2.0, 3.0, 4.0]))


class TestCompare:
    def test_bundles_match_component_functions(self):
        rng = np.random.default_rng(4)
        m1, m2 = rng.normal(size=15) - 4, rng.normal(size=15) - 4
        f1, f2 = rng.normal(size=5) - 4, rng.normal(size=5) - 4
        stats = compare(m1, m2, f1, f2)
        assert stats.median_loss_ratio == median_loss_ratio(m1, m2)
        assert stats.fold_gain == fold_gain(f1, f2)
        # Lin's closed form: 2 s_xy / (s_x^2 + s_y^2 + (mean_x - mean_y)^2)
        s = np.cov(m1, m2)
        want = 2 * s[0, 1] / (s[0, 0] + s[1, 1] + (m1.mean() - m2.mean()) ** 2)
        assert stats.ccc == pytest.approx(want, rel=1e-12)
        assert stats.pearson == pytest.approx(np.corrcoef(m1, m2)[0, 1],
                                              rel=1e-12)
        assert stats.scale_ratio == pytest.approx(
            m1.std(ddof=1) / m2.std(ddof=1), rel=1e-12)

    def test_constant_input_yields_nan_block_but_valid_ratios(self):
        m1 = np.full(6, -4.0)
        m2 = np.linspace(-5, -3, 6)
        stats = compare(m1, m2, m1[:3], m2[:3])
        assert np.isnan(stats.ccc) and np.isnan(stats.pearson)
        assert np.isfinite(stats.median_loss_ratio)
        assert np.isfinite(stats.fold_gain)

    def test_json_cleans_non_finite(self):
        stats = ComparisonStats(
            median_loss_ratio=85.0, fold_gain=float("inf"), ccc=float("nan"),
            pearson=0.5, scale_ratio=1.2, location_shift=0.0)
        d = stats.to_json_dict()
        assert d["median_loss_ratio"] == 85.0
        assert d["fold_gain"] is None
        assert d["ccc"] is None
        assert d["pearson"] == 0.5
