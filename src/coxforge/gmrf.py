"""Intrinsic Gaussian Markov random fields on the cell grid.

The spatial fields in the model get an intrinsic prior whose precision is
the graph Laplacian of the grid under 8-neighbor (queen) adjacency:
``Q = D - W`` with ``W`` the 0/1 adjacency and ``D`` the degree diagonal.
``Q`` is singular — constant fields cost nothing — so densities use the
generalized determinant (product of nonzero eigenvalues) and sampling is
done under a sum-to-zero constraint.

With cells ordered row-major, queen neighbors sit at index offsets 1,
nx - 1, nx and nx + 1, so ``Q`` is kept as its lower band in LAPACK
storage, ``band[d, j] = Q[j + d, j]``; the generalized determinant comes
from a banded Cholesky factor (Rue & Held 2005, *Gaussian Markov Random
Fields*, §2.4).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import ConfigError, NumericError
from .grids import GridSpec


def besag_precision(grid: GridSpec) -> np.ndarray:
    """Queen-adjacency graph Laplacian of the grid's cells, as a lower band.

    Cell (row y, col x) has index y*nx + x. Returns shape (nx + 2, n_cells)
    with ``band[d, j] = Q[j + d, j]``; entries past the end of a row are
    zero. Rows of Q sum to zero; diagonal entries are the neighbor counts
    (3, 5, or 8 for corner, edge, interior cells).
    """
    nx, ny = grid.nx, grid.ny
    xs, ys = np.tile(np.arange(nx), ny), np.repeat(np.arange(ny), nx)
    band = np.zeros((nx + 2, nx * ny))
    # at nx = 2 the offsets 1 and nx - 1 share a band row, so accumulate
    for dx, dy in ((1, 0), (-1, 1), (0, 1), (1, 1)):
        ok = (xs + dx >= 0) & (xs + dx < nx) & (ys + dy < ny)
        band[dy * nx + dx] -= ok
    # a cell's neighbors and itself form a (cols in reach) x (rows in reach) block
    reach_x = 1 + (xs > 0) + (xs < nx - 1)
    reach_y = 1 + (ys > 0) + (ys < ny - 1)
    band[0] = reach_x * reach_y - 1
    return band


def band_to_dense(band: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower band (LAPACK storage) is ``band``."""
    n = band.shape[1]
    out = np.zeros((n, n))
    for d in range(min(len(band), n)):
        i = np.arange(n - d)
        out[i + d, i] = out[i, i + d] = band[d, :n - d]
    return out


def band_offsets(band: np.ndarray) -> np.ndarray:
    """The rows of a lower band that hold a nonzero entry, the diagonal (0) first."""
    return np.concatenate(([0], np.flatnonzero((band[1:] != 0).any(axis=1)) + 1))


def band_matvec(rows: np.ndarray, x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """M @ x along the last axis of x, for M symmetric with the band rows ``rows``.

    ``rows[k]`` is M's lower band row ``offsets[k]`` in LAPACK storage,
    ``rows[k, j] = M[j + offsets[k], j]``, as :func:`band_offsets` lists
    them: ``offsets`` ascends from 0, the diagonal, and M is zero off the
    rows given. Each entry adds its terms in ascending column order.
    """
    n = x.shape[-1]
    y = np.zeros(x.shape)
    for row, d in zip(rows[:0:-1], offsets[:0:-1]):  # M[p, p - d]
        y[..., d:] += row[:n - d] * x[..., :n - d]
    y += rows[0] * x
    for row, d in zip(rows[1:], offsets[1:]):        # M[p, p + d]
        y[..., :n - d] += row[:n - d] * x[..., d:]
    return y


def log_gen_det(grid: GridSpec) -> float:
    """Log of the product of the nonzero eigenvalues of the grid's Laplacian.

    Uses the cofactor identity for Laplacians of connected graphs (and a
    grid's queen lattice is always connected): the product of the n-1
    nonzero eigenvalues equals n times the determinant of Q with its last
    row and column deleted. That minor is positive definite and keeps
    Q's band, so a banded Cholesky factor gives its determinant. For
    n = 1 the empty product is returned (0.0).
    """
    n = grid.n_cells
    if n == 1:
        return 0.0
    factor, info = lapack.dpbtrf(besag_precision(grid)[:, :n - 1], lower=1)
    if info != 0:
        raise NumericError(f"Laplacian minor is not positive definite (minor {info})")
    return float(np.log(n)) + 2.0 * float(np.log(factor[0]).sum())


@lru_cache(maxsize=4)
def _sampling_factor(nx: int, ny: int) -> np.ndarray:
    """Upper Cholesky factor of Q + (1/n) 11^T (a proper completion of Q).

    The rank-one shift only adds a unit eigenvalue along the constant
    vector, which the sum-to-zero projection removes again, so draws
    conditioned on the constraint have exactly the intrinsic covariance
    pinv(Q). Dense is fine here: sampling happens only at simulation
    scale, never inside the fit path.
    """
    Q = band_to_dense(besag_precision(GridSpec.synthetic(nx, ny)))
    Q += 1.0 / Q.shape[0]
    # Q is symmetric, so Q.T is the same matrix in LAPACK's column-major
    # order, and it is factored in place
    return scipy.linalg.cholesky(Q.T, lower=False, overwrite_a=True)


def sample_constrained(
    nx: int, ny: int, tau: float, rng: np.random.Generator | int, size: int = 1
) -> np.ndarray:
    """Draws from the intrinsic field N(0, (tau Q)^-) on an (nx, ny)
    lattice, Q its queen-adjacency Laplacian, each summing to zero.

    Returns shape (size, nx*ny); the ensemble covariance is pinv(Q)/tau.
    Sampling solves ``R x = z`` with ``R`` the Cholesky factor of the
    completed precision, then centers — centering is exactly conditioning
    on the constraint because the completion is flat along the constant
    vector. Deterministic given the seed / generator state.
    """
    if not tau > 0:
        raise ConfigError(f"precision must be positive, got {tau}")
    rng = np.random.default_rng(rng)  # a Generator is returned as it is
    R = _sampling_factor(nx, ny)
    n = R.shape[0]
    z = rng.standard_normal((n, size))
    x = scipy.linalg.solve_triangular(R, z, lower=False)
    x = x / np.sqrt(tau)
    x -= x.mean(axis=0, keepdims=True)
    return np.ascontiguousarray(x.T)
