import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import coxforge
from _toys import queen_laplacian
from coxforge import gmrf
from coxforge.errors import ConfigError
from coxforge.gmrf import (
    band_matvec,
    band_offsets,
    band_to_dense,
    besag_precision,
    log_gen_det,
    sample_constrained,
)
from coxforge.grids import GridSpec


def dense_log_gen_det(Q):
    """Eigendecomposition oracle: sum of logs of the nonzero eigenvalues."""
    w = np.linalg.eigvalsh(Q)
    nonzero = w[w > 1e-9 * max(1.0, w.max())]
    return float(np.sum(np.log(nonzero)))


def _dense_besag(nx, ny):
    return band_to_dense(besag_precision(GridSpec.synthetic(nx, ny)))


class TestBesagPrecision:
    @pytest.mark.parametrize("nx,ny", [(1, 1), (1, 5), (5, 1), (2, 2), (2, 3), (3, 2),
                                       (7, 7), (12, 16)])
    def test_band_matches_brute_force_laplacian(self, nx, ny):
        band = besag_precision(GridSpec.synthetic(nx, ny))
        assert band.shape == (nx + 2, nx * ny)
        assert np.array_equal(band_to_dense(band), queen_laplacian(nx, ny))

    @pytest.mark.parametrize("nx,ny", [(2, 3), (5, 4)])
    def test_band_product_reads_the_queen_offsets(self, nx, ny):
        band = besag_precision(GridSpec.synthetic(nx, ny))
        offsets = band_offsets(band)
        assert list(offsets) == sorted({0, 1, nx - 1, nx, nx + 1})
        x = np.random.default_rng(nx).normal(size=(2, nx * ny))
        want = x @ queen_laplacian(nx, ny)
        got = band_matvec(band[offsets], x, offsets)
        assert np.allclose(got, want, rtol=1e-14, atol=1e-13)

    def test_rows_sum_to_zero(self):
        Q = _dense_besag(5, 7)
        assert np.allclose(Q.sum(axis=1), 0.0)

    def test_degree_counts(self):
        Q = _dense_besag(4, 3)
        deg = np.diag(Q).reshape(3, 4)
        assert deg[0, 0] == 3  # corner
        assert deg[0, 1] == 5  # edge
        assert deg[1, 1] == 8  # interior

    def test_symmetric_and_psd(self):
        Q = _dense_besag(4, 4)
        assert np.array_equal(Q, Q.T)
        w = np.linalg.eigvalsh(Q)
        assert w.min() > -1e-10
        # exactly one zero eigenvalue (connected lattice)
        assert (np.abs(w) < 1e-9).sum() == 1

    def test_diagonal_adjacency_present(self):
        Q = _dense_besag(3, 3)
        # cell (0,0) index 0 and cell (1,1) index 4 are queen neighbors
        assert Q[0, 4] == -1

    def test_invalid_dims(self):
        with pytest.raises(ConfigError):
            besag_precision(GridSpec.synthetic(0, 3))


class TestLogGenDet:
    def test_two_cell_lattice(self):
        # K2 Laplacian [[1,-1],[-1,1]]: nonzero eigenvalue 2
        assert log_gen_det(GridSpec.synthetic(2, 1)) == pytest.approx(np.log(2.0))

    def test_2x2_queen_is_complete_graph(self):
        # K4: nonzero eigenvalues are 4,4,4 -> product 64
        assert log_gen_det(GridSpec.synthetic(2, 2)) == pytest.approx(np.log(64.0))

    def test_single_cell_empty_product(self):
        assert log_gen_det(GridSpec.synthetic(1, 1)) == 0.0

    @pytest.mark.parametrize("nx,ny", [(3, 2), (4, 4), (5, 3), (7, 7), (10, 10)])
    def test_matches_dense_eigendecomposition(self, nx, ny):
        got = log_gen_det(GridSpec.synthetic(nx, ny))
        want = dense_log_gen_det(queen_laplacian(nx, ny))
        assert got == pytest.approx(want, rel=1e-8)

    def test_paper_grid_matches_dense_minor(self):
        # cofactor identity: log n + log det of Q without its last row and column
        grid = GridSpec()
        n = grid.n_cells
        sign, logdet = np.linalg.slogdet(queen_laplacian(grid.nx, grid.ny)[:-1, :-1])
        assert sign == 1.0
        assert log_gen_det(grid) == pytest.approx(np.log(n) + logdet, rel=1e-12)


def test_package_does_not_load_scipy_sparse():
    code = "import coxforge, coxforge.cli, sys; assert 'scipy.sparse' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(Path(coxforge.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestSampling:
    def test_draws_sum_to_zero(self):
        x = sample_constrained(4, 5, 2.0, rng=0, size=50)
        assert x.shape == (50, 20)
        assert np.allclose(x.sum(axis=1), 0.0, atol=1e-10)

    def test_deterministic_given_seed(self):
        a = sample_constrained(3, 3, 1.0, rng=42, size=5)
        b = sample_constrained(3, 3, 1.0, rng=42, size=5)
        assert np.array_equal(a, b)

    def test_precision_scaling(self):
        # doubling tau shrinks draws by sqrt(2) exactly (same normal deviates)
        a = sample_constrained(3, 4, 1.0, rng=7, size=4)
        b = sample_constrained(3, 4, 2.0, rng=7, size=4)
        assert np.allclose(a / np.sqrt(2.0), b, atol=1e-12)

    @pytest.mark.parametrize("nx,ny", [(2, 2), (3, 2), (4, 4)])
    def test_empirical_covariance_matches_pinv(self, nx, ny):
        tau = 3.0
        x = sample_constrained(nx, ny, tau, rng=11, size=100_000)
        emp = x.T @ x / x.shape[0]
        want = np.linalg.pinv(queen_laplacian(nx, ny)) / tau
        scale = np.abs(want).max()
        assert np.abs(emp - want).max() < 0.05 * scale

    def test_bad_tau_rejected(self):
        for tau in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigError):
                sample_constrained(3, 3, tau, rng=0)

    def test_draws_equal_the_dense_formula(self):
        # the factor of Q + 11'/n built densely, as the formula reads
        nx, ny, tau, size = 5, 4, 2.5, 3
        Q = queen_laplacian(nx, ny)
        n = Q.shape[0]
        R = scipy.linalg.cholesky(Q + np.full((n, n), 1.0 / n), lower=False)
        z = np.random.default_rng(9).standard_normal((n, size))
        x = scipy.linalg.solve_triangular(R, z, lower=False) / np.sqrt(tau)
        x -= x.mean(axis=0, keepdims=True)
        got = sample_constrained(nx, ny, tau, rng=9, size=size)
        assert np.array_equal(got, x.T)

    def test_factor_build_holds_under_two_dense_copies(self):
        nx, ny = 12, 16
        gmrf._sampling_factor.cache_clear()
        tracemalloc.start()
        try:
            gmrf._sampling_factor(nx, ny)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gmrf._sampling_factor.cache_clear()
        assert peak < 2 * 8 * (nx * ny) ** 2
