"""The latent Gaussian model: parameter layout, priors, likelihood, derivatives.

The log intensity for shoe ``s`` at cell ``a`` is

    eta[s, a] = shoe[s] + sum_k x_k[s, a] * fixed[k]
              + smooth[a] + sum_j xv_j[s, a] * varying[j][a]

with ``x_k``/``xv_j`` the covariates of :mod:`coxforge.design`, counts
Poisson(exp(eta)), Gaussian priors on every block (intrinsic ones on the
spatial fields), and Exponential hyperpriors on the free precisions.

:class:`Design` holds the covariates in factor form and computes eta;
every predictor in the package, fitted or predictive, is its
:meth:`Design.eta`. A covariate is the product of a column of ``U``
(factors 1-3) and a column of ``V`` (factors 4-6), so the fixed part of
eta is sum_ij u_i beta_ij v_j with beta laid out over the two halves,
and no (shoe, cell, covariate) tensor is formed.

:class:`ShoeModel` packages all of that behind the small interface the
inference engine consumes, in the coordinates its search runs over, the
free log-precisions x: ``prior_at(x)``, the prior precision Sigma with
the log prior's terms in x alone (½ log |Sigma|_* and the hyperprior);
``prior_tangents``, Sigma's derivatives in x; and ``lik_parts``, the one
evaluation a Newton point costs. From one intensity pass and
Sigma, ``lik_parts`` gives the log-joint less its psi-only terms, its
gradient, and the negative Hessian as :class:`ArrowMatrix`, the one
format of that matrix: a band over the field coordinates, interleaved
cell by cell, and dense blocks for the shoe and fixed effects, the form
the Newton solver factors in place. Sigma comes compact, as its field
band and border diagonal, and ``lik_parts`` adds it into the Fisher
term's own arrays, so the sum copies nothing. Every Fisher
entry is a sum of w times a product of two covariates, a monomial in the
six factors with exponents in {0, 1, 2}, hence a moment of one column of
``U`` against one of ``V``: the fixed x fixed block and the field blocks
are gathered from per-cell moments (U w)' V, and the shoe x fixed block
from per-shoe products (u w)' v. The same build gives B' w, and with the
counts as weights the B' y of the gradient.

The model's precisions are listed once, in ``ShoeModel.precisions``:
tau_s, then one per field in theta's order, the smooth field first, each
with the block of theta it scales, whether it is free (a varying field's
is pinned when its covariate multiplies two or more factors), its name
(:func:`precision_names`) and its hyperprior rate. Sigma, its tangents,
log-determinant and hyperprior, the sum-to-zero blocks and every record
of the precisions (a fit's ``psi_map``, a simulation's true ``psi``)
all read that table.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import gammaln

from . import design as dz
from .design import ModelSpec, interaction_order
from .errors import ConfigError, InputDataError, NumericError
from .gmrf import band_matvec, band_offsets, besag_precision, log_gen_det
from .grids import GridSpec, ShoeRecord
from .util import json_number

log = logging.getLogger("coxforge.model")

# entries of the one (shoe, cell, column of U) work array that eta and the
# Fisher build form at a time: 2^17 doubles are 1 MB, which stays in cache
CHUNK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class PriorSpec:
    """Prior and hyperprior settings.

    ``rate_*`` are Exponential-hyperprior rates on the precisions;
    ``fixef_var`` is the Gaussian prior variance of the fixed effects
    (the precision block is its reciprocal); ``fixed_tau_high_order`` is
    the precision pinned on varying-coefficient fields whose covariate
    index multiplies two or more factors — those precisions are policy
    constants, not inferred.
    """

    rate_tau_s: float = 5e-5
    rate_tau_sm: float = 5e-4
    rate_tau_i: float = 5e-4
    fixef_var: float = 1000.0
    fixed_tau_high_order: float = 100.0

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"prior setting {name} must be finite and positive, "
                                  f"got {value}")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "PriorSpec":
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown prior keys: {sorted(extra)}")
        try:
            values = {f: json_number(d[f], f) for f in cls.__dataclass_fields__ if f in d}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"prior settings must be numbers: {exc}") from exc
        return cls(**values)


def precision_names(spec: ModelSpec) -> list[str]:
    """The names of a spec's precisions in theta's order: tau_s, tau_sm
    when it has a smooth field, then tau_v[<bits>] per varying field."""
    return (["tau_s"] + ["tau_sm"] * spec.smooth
            + [f"tau_v[{dz.index_to_string(i)}]" for i in spec.varying])


def precision_free(spec: ModelSpec) -> list[bool]:
    """Whether the search infers each precision of :func:`precision_names`:
    a varying field's is free when its covariate has order <= 1, else
    pinned at ``fixed_tau_high_order``; tau_s and tau_sm are always free."""
    return [True] * (1 + spec.smooth) + [interaction_order(i) <= 1 for i in spec.varying]


class Precision(NamedTuple):
    """One entry of ``ShoeModel.precisions``: the coordinates of theta the
    precision scales, whether the hyperparameter search infers it, its name
    and its Exponential hyperprior's rate."""

    block: np.ndarray
    free: bool
    name: str
    rate: float


@dataclass(frozen=True)
class ThetaLayout:
    """Block offsets inside the stacked parameter vector.

    Order: shoe effects, fixed effects, smooth field (if present), one
    field per varying index. ``constrained_dim`` is the total length minus
    one per sum-to-zero block — the dimension the posterior actually
    lives in.
    """

    n_shoes: int
    n_fixed: int
    n_cells: int
    n_varying: int
    smooth: bool

    @property
    def shoe(self) -> slice:
        return slice(0, self.n_shoes)

    @property
    def fixed(self) -> slice:
        return slice(self.n_shoes, self.n_shoes + self.n_fixed)

    @property
    def smooth_block(self) -> slice | None:
        if not self.smooth:
            return None
        start = self.n_shoes + self.n_fixed
        return slice(start, start + self.n_cells)

    def varying_block(self, j: int) -> slice:
        if not 0 <= j < self.n_varying:
            raise ConfigError(f"varying block {j} out of range")
        start = self.n_shoes + self.n_fixed + (1 if self.smooth else 0) * self.n_cells
        start += j * self.n_cells
        return slice(start, start + self.n_cells)

    @property
    def n_total(self) -> int:
        return self.n_shoes + self.n_fixed + self.n_constraints * self.n_cells

    @property
    def n_constraints(self) -> int:
        return self.smooth + self.n_varying

    @property
    def constrained_dim(self) -> int:
        return self.n_total - self.n_constraints

    @classmethod
    def for_model(cls, n_shoes: int, spec: ModelSpec, n_cells: int) -> "ThetaLayout":
        return cls(
            n_shoes=n_shoes,
            n_fixed=len(spec.fixed),
            n_cells=n_cells,
            n_varying=len(spec.varying),
            smooth=spec.smooth,
        )


@dataclass(frozen=True, eq=False)
class ArrowMatrix:
    """A symmetric matrix over the field and border coordinates of theta.

    ``field`` and ``border`` list coordinates of theta; together they
    cover it once. With H the matrix in theta's order,

        band[i - j, j] = H[field[i], field[j]]   (i >= j, LAPACK lower band)
        C[i, k]        = H[field[i], border[k]]
        B[k, l]        = H[border[k], border[l]]

    so the field block is banded in ``field`` order and the rest is dense.
    Entries of ``band`` past the end of its rows are zero and unused.
    Plain storage, no methods: :meth:`ShoeModel.lik_parts` builds the one a
    Newton point needs, and its factorization overwrites the band and C.
    """

    field: np.ndarray
    border: np.ndarray
    band: np.ndarray  # (bandwidth + 1, n_field)
    C: np.ndarray     # (n_field, n_border)
    B: np.ndarray     # (n_border, n_border)


class Design:
    """Covariates of a list of records under a spec, and their predictor.

    The covariates are kept in factor form (see
    :class:`coxforge.design.FactorColumns`): ``u`` (A, S, I) and ``v``
    (A, S, J), indexed [cell, shoe, column], hold the halves of the
    spec's fixed indices, and ``beta`` scattered into an I x J matrix
    gives eta_fixed = sum_ij u_i beta_ij v_j. They are the leading columns
    of the maps ``U`` and ``V``, which also hold the halves of the varying
    covariates and, with ``products``, of every product of two
    covariates. A run of cells is one block of a map, the unit that eta
    and the Fisher build work through. ``layout`` places the blocks of
    theta. :meth:`eta` is the package's one linear predictor. The records
    share one grid shape, which sets the cell count.
    """

    def __init__(self, records: Sequence[ShoeRecord], spec: ModelSpec,
                 products: bool = False) -> None:
        self.spec = spec
        self.records = list(records)
        n_cells = self.records[0].contact.size
        self.layout = ThetaLayout.for_model(len(self.records), spec, n_cells)
        self.columns = cols = dz.factor_columns(spec, products)
        self.U, self.V = self._factor_maps(cols.u_columns, cols.v_columns)
        self.u = self.U[:, :, :cols.n_u]
        self.v = self.V[:, :, :cols.n_v]

    def _factor_maps(self, u_columns, v_columns) -> tuple[np.ndarray, np.ndarray]:
        """``build_tensor`` of the columns of U (A, S, P) and of V (A, S, Q),
        indexed [cell, shoe, column], from one build per record."""
        A, S, P = self.layout.n_cells, len(self.records), len(u_columns)
        U, V = np.empty((A, S, P)), np.empty((A, S, len(v_columns)))
        for s, rec in enumerate(self.records):
            both = dz.build_tensor(rec, u_columns + v_columns, self.spec)
            U[:, s], V[:, s] = both[:, :P], both[:, P:]
        return U, V

    def _cell_chunks(self) -> list[slice]:
        """Runs of cells whose rows of U hold about ``CHUNK_ENTRIES`` entries."""
        step = max(1, CHUNK_ENTRIES // (self.layout.n_shoes * max(1, self.U.shape[2])))
        return [slice(a, a + step) for a in range(0, self.layout.n_cells, step)]

    def eta(self, theta: np.ndarray) -> np.ndarray:
        """Linear predictor per (shoe, cell), shape (S, A), stored cell by cell."""
        lay, cols = self.layout, self.columns
        beta = np.zeros((cols.n_u, cols.n_v))
        beta[cols.fixed_u, cols.fixed_v] = theta[lay.fixed]
        varying = [(p, q, theta[lay.varying_block(j)][:, None])
                   for j, (p, q) in enumerate(zip(cols.varying_u, cols.varying_v))]
        out = np.empty((lay.n_cells, lay.n_shoes))
        for cells in self._cell_chunks():
            U, V = self.U[cells], self.V[cells]
            part = np.einsum("asj,asj->as", U[:, :, :cols.n_u] @ beta, V[:, :, :cols.n_v])
            for p, q, coef in varying:
                part += U[:, :, p] * V[:, :, q] * coef[cells]
            out[cells] = part
        out += theta[lay.shoe][None, :]
        if lay.smooth:
            out += theta[lay.smooth_block][:, None]
        return out.T


class ShoeModel(Design):
    """Likelihood, priors, and derivatives for a set of shoe records.

    Parameters
    ----------
    records : list of ShoeRecord
        The data; order fixes the shoe-effect indexing.
    spec : ModelSpec
    grid : GridSpec
    prior : PriorSpec
    """

    def __init__(
        self,
        records: Sequence[ShoeRecord],
        spec: ModelSpec,
        grid: GridSpec,
        prior: PriorSpec | None = None,
    ) -> None:
        if not records:
            raise InputDataError("no shoe records")
        for rec in records:
            rec.validate(grid)
        self.grid = grid
        self.prior = prior or PriorSpec()
        self.shoe_ids = [r.shoe_id for r in records]
        if len(set(self.shoe_ids)) != len(self.shoe_ids):
            raise ConfigError("duplicate shoe_ids in record list")
        super().__init__(records, spec, products=True)
        # (S, A), stored cell by cell as eta is
        self.y = np.stack([r.counts.reshape(-1) for r in self.records], axis=1).astype(float).T
        # sum of log y!: the log-likelihood's constant, and the size of the
        # terms that cancel in it at large counts (inference.find_mode)
        self.log_y_factorial = float(gammaln(self.y + 1.0).sum())

        lay = self.layout
        n_fields = lay.n_constraints
        # Q's band rows that hold entries, at their offsets (the diagonal first)
        if n_fields > 0:
            q_band = besag_precision(grid)
            self._q_offsets = band_offsets(q_band)
            self._q_rows = q_band[self._q_offsets]
            self.log_gendet_q = log_gen_det(grid)
            # H's band has the prior's width, and Q's band row d is the
            # prior's row d * n_fields: those rows hold Sigma's field block
            self._band_rows = (len(q_band) - 1) * n_fields + 1
            self._prior_rows = self._q_offsets * n_fields
        else:
            self.log_gendet_q = 0.0
            self._band_rows = 1
            self._prior_rows = np.zeros(1, dtype=np.intp)

        # the precisions, listed once
        p, A, start = self.prior, lay.n_cells, lay.n_shoes + lay.n_fixed
        blocks = [np.arange(lay.n_shoes)] + [np.arange(start + j * A, start + (j + 1) * A)
                                             for j in range(n_fields)]
        rates = ([p.rate_tau_s] + [p.rate_tau_sm] * spec.smooth
                 + [p.rate_tau_i] * len(spec.varying))
        self.precisions = [Precision(*q) for q in zip(blocks, precision_free(spec),
                                                      precision_names(spec), rates)]
        self.n_free = sum(q.free for q in self.precisions)
        self.constraint_blocks = tuple(q.block for q in self.precisions[1:])
        # fields on one grid couple cell by cell, so interleaving them keeps
        # the band of the negative Hessian as narrow as one field's
        self._field = (np.stack(self.constraint_blocks, axis=1).ravel() if n_fields
                       else np.zeros(0, dtype=np.intp))
        self._border = np.arange(lay.n_shoes + lay.n_fixed)
        # where each Fisher entry sits among the moments of U and V: the
        # product of two covariates (a field's multiplier is 1 for the
        # smooth field) is one column of U times one of V
        fixed = dz.index_array(spec.fixed)
        fields = dz.index_array((dz.INTERCEPT,) * spec.smooth + spec.varying)
        self._kk = self.columns.at(fixed[:, None] + fixed[None])
        self._field_cols = self.columns.at(fields)
        self._field_fixed = self.columns.at(fields[:, None] + fixed[None])
        # for each pair of fields i <= j: band row j - i, field i, and the
        # columns of U and V of their product
        first, second = np.triu_indices(len(fields))
        self._field_pairs = ((second - first, first)
                             + self.columns.at(fields[first] + fields[second]))
        self._bty = self._counts_moments()  # the gradient is B'y - B' lambda

    # -- hyperparameter plumbing -------------------------------------------

    def _taus(self, x: np.ndarray) -> np.ndarray:
        """The precisions at free log-precisions ``x``, in the order of
        :attr:`precisions`: exp(x) for the free ones, fixed_tau_high_order
        for the pinned ones."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_free,):
            raise ConfigError(f"expected {self.n_free} free log-precisions, got {x.shape}")
        it = iter(np.exp(x))
        return np.array([next(it) if q.free else self.prior.fixed_tau_high_order
                         for q in self.precisions])

    def free_names(self) -> list[str]:
        return [q.name for q in self.precisions if q.free]

    # -- likelihood and derivatives ------------------------------------------

    def cold_start(self) -> np.ndarray:
        """Where a mode search with no neighbouring mode begins.

        Zero, except the intercept at the log of the mean count per (shoe,
        cell): from theta = 0 the first Newton step grows with the counts,
        and at 1e12 accidentals a step of that size overflows the
        intensity for more halvings than the line search allows.
        """
        theta = np.zeros(self.layout.n_total)
        mean = self.y.mean()
        if dz.INTERCEPT in self.spec.fixed and mean > 0:
            theta[self.layout.fixed.start + self.spec.fixed.index(dz.INTERCEPT)] = np.log(mean)
        return theta

    def loglik(self, theta: np.ndarray) -> float:
        eta = self.eta(theta)
        with np.errstate(over="ignore"):
            lam_sum = np.exp(eta).sum()
        if not np.isfinite(lam_sum):
            return -np.inf
        return float((self.y * eta).sum() - lam_sum - self.log_y_factorial)

    def lik_parts(
        self, theta: np.ndarray, sigma: tuple[np.ndarray, np.ndarray]
    ) -> tuple[float, np.ndarray, ArrowMatrix]:
        """The log-joint at fixed psi, less its psi-only terms, with its derivatives.

        With ``sigma`` the prior precision Sigma of :meth:`prior_at`,
        returns loglik − ½ theta' Sigma theta, its gradient
        grad loglik − Sigma theta, and the negative Hessian H =
        Sigma + B' diag(lambda) B, from one intensity pass. H is the Fisher
        term with Sigma's band rows and border diagonal added in place, once
        the gradient has summed its shoe columns. Raises NumericError where
        the intensity overflows.
        """
        rows, diag = sigma
        eta = self.eta(theta)
        y_eta = (self.y * eta).sum()
        with np.errstate(over="ignore"):
            lam = np.exp(eta, out=eta)  # eta is not needed again
        if not np.all(np.isfinite(lam)):
            raise NumericError("non-finite intensity in likelihood evaluation")
        value = float(y_eta - lam.sum() - self.log_y_factorial)
        H, b_lam = self._fisher(lam)
        H.band[self._prior_rows] += rows
        H.B.flat[::diag.size + 1] += diag
        s_theta = np.empty(theta.shape)
        s_theta[self._field] = band_matvec(rows, theta[self._field], self._prior_rows)
        s_theta[self._border] = diag * theta[self._border]
        return value - 0.5 * float(theta @ s_theta), self._bty - b_lam - s_theta, H

    @property
    def n_total(self) -> int:
        return self.layout.n_total

    def _fisher(self, w: np.ndarray) -> tuple[ArrowMatrix, np.ndarray]:
        """B' diag(w) B for weights w (S, A), block by block, and B' w.

        Every entry is a sum of w times a product of two covariates, which
        is one column of U times one of V. So one product per cell,
        (U w)' V over the shoes, gives every moment the field blocks need,
        and its sum over cells every moment of the fixed x fixed block: a
        gather places them (27 x 27 moments for the 64 x 64 block of
        ``m_final``). The shoe x fixed block is (u w)' v per shoe, and the
        field x shoe block is w times the field's covariate. The weighted
        map is formed ``CHUNK_ENTRIES`` entries at a time.

        Field j's cell a is field position a * n_fields + j, so the
        products of fields i <= j fill band row j - i at columns i, i +
        n_fields, ...; the shoe and fixed effects form the border. The band
        has the prior's width, and it and C are column-major, LAPACK's
        order, so that the factorization of H works in place.

        Each row of the design B holds one shoe indicator, so B' w, the
        Fisher matrix times that indicator, sums the shoe columns; a field
        row's sum is taken from the chunk that writes it.
        """
        lay, cols = self.layout, self.columns
        S, A, K, n_fields = lay.n_shoes, lay.n_cells, lay.n_fixed, lay.n_constraints
        wt = np.ascontiguousarray(w.T)  # [cell, shoe], as the factor maps
        C = np.empty((S + K, self._field.size)).T
        band = np.zeros((self._field.size, self._band_rows)).T
        C3 = C.T.reshape(S + K, A, n_fields)                  # [border, cell, field]
        band3 = band.T.reshape(A, n_fields, self._band_rows)  # [cell, field, row]
        field_sums = np.empty((A, n_fields))
        diag, field, pu, pv = self._field_pairs
        kk = np.zeros((self.U.shape[2], self.V.shape[2]))
        m_sf = np.zeros((S, cols.n_u, cols.n_v))
        for cells in self._cell_chunks():
            uw = self.U[cells] * wt[cells, :, None]
            moments = uw.transpose(0, 2, 1) @ self.V[cells]  # per cell
            kk += moments.sum(axis=0)
            # per shoe
            m_sf += uw.transpose(1, 2, 0)[:, :cols.n_u] @ self.v[cells].transpose(1, 0, 2)
            ff = moments[:, self._field_fixed[0], self._field_fixed[1]]  # [cell, field, fixed]
            C3[S:, cells] = ff.transpose(2, 0, 1)
            band3[cells, field, diag] = moments[:, pu, pv]
            for i, (p, q) in enumerate(zip(*self._field_cols)):
                wx = uw[:, :, p] * self.V[cells, :, q]  # w times the covariate
                C3[:S, cells, i] = wx.T
                field_sums[cells, i] = wx.sum(axis=1)
        B = np.zeros((S + K, S + K))
        B[range(S), range(S)] = w.sum(axis=1)                     # shoe diag
        B[:S, S:] = m_sf[:, cols.fixed_u, cols.fixed_v]
        B[S:, :S] = B[:S, S:].T
        B[S:, S:] = kk[self._kk]                                  # (K, K)
        b_w = np.empty(lay.n_total)
        b_w[self._border] = B[:, :S].sum(axis=1)
        b_w[self._field] = field_sums.ravel()
        return ArrowMatrix(self._field, self._border, band, C, B), b_w

    def _counts_moments(self) -> np.ndarray:
        """B' y, the vector :meth:`_fisher` of the counts gives, without its matrix.

        The shoe rows are each shoe's total count, the fixed rows the
        per-shoe moments (u y)' v summed over the shoes, and the field rows
        y times the field's covariate summed over the shoes. The chunks and
        the order of every sum are ``_fisher``'s, so the two agree to the bit.
        """
        lay, cols = self.layout, self.columns
        yt = np.ascontiguousarray(self.y.T)  # [cell, shoe], as the factor maps
        m_sf = np.zeros((lay.n_shoes, cols.n_u, cols.n_v))
        field_sums = np.empty((lay.n_cells, lay.n_constraints))
        for cells in self._cell_chunks():
            uy = self.U[cells] * yt[cells, :, None]
            m_sf += uy.transpose(1, 2, 0)[:, :cols.n_u] @ self.v[cells].transpose(1, 0, 2)
            for i, (p, q) in enumerate(zip(*self._field_cols)):
                field_sums[cells, i] = (uy[:, :, p] * self.V[cells, :, q]).sum(axis=1)
        out = np.empty(lay.n_total)
        out[lay.shoe] = self.y.sum(axis=1)
        # one row per fixed effect, summed over the shoes as _fisher sums B's rows
        out[lay.fixed] = np.ascontiguousarray(m_sf[:, cols.fixed_u, cols.fixed_v].T).sum(axis=1)
        out[self._field] = field_sums.ravel()
        return out

    def _leverage(self, M: ArrowMatrix) -> np.ndarray:
        """h_i = b_i' M b_i for each design row b_i, (S, A), with M on H's arrow pattern.

        The adjoint of :meth:`_fisher`, tr(M B' diag(w) B) = sum w ⊙ h: M's
        entry at each moment (U w)' V it gathers is added to the cell's
        weight on the columns of U and V, twice off the diagonal, which meets
        the rows of U and V ``CHUNK_ENTRIES`` entries at a time. The shoe x
        fixed block is a per-shoe beta, the shoe x field block a covariate.
        """
        lay, cols = self.layout, self.columns
        S, A, n_fields = lay.n_shoes, lay.n_cells, lay.n_constraints
        C3 = M.C.T.reshape(S + lay.n_fixed, A, n_fields)        # [border, cell, field]
        band3 = M.band.T.reshape(A, n_fields, self._band_rows)  # [cell, field, row]
        kk = np.zeros((self.U.shape[2], self.V.shape[2]))
        np.add.at(kk, self._kk, M.B[S:, S:])
        beta = np.zeros((S, cols.n_u, cols.n_v))
        beta[:, cols.fixed_u, cols.fixed_v] = 2.0 * M.B[:S, S:]
        diag, field, pu, pv = self._field_pairs
        out = np.empty((A, S))
        for cells in self._cell_chunks():
            U, V = self.U[cells], self.V[cells]
            weight = np.repeat(kk[None], len(U), axis=0)
            np.add.at(weight, (slice(None), *self._field_fixed),
                      2.0 * C3[S:, cells].transpose(1, 2, 0))
            np.add.at(weight, (slice(None), pu, pv),
                      np.where(diag, 2.0, 1.0) * band3[cells, field, diag])
            uw = U @ weight
            uw[:, :, :cols.n_v] += (self.u[cells].transpose(1, 0, 2) @ beta).transpose(1, 0, 2)
            for i, (p, q) in enumerate(zip(*self._field_cols)):
                uw[:, :, q] += 2.0 * U[:, :, p] * C3[:S, cells, i].T
            out[cells] = np.einsum("asq,asq->as", uw, V)
        return (out + M.B.diagonal()[:S]).T

    # -- prior ---------------------------------------------------------------

    def prior_at(self, x: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], float]:
        """Sigma at free log-precisions ``x``, and the log prior's terms in x alone.

        Sigma, the prior precision of theta (singular on the fields), comes
        compact for :meth:`lik_parts` to take back: the border diagonal,
        tau_s for the shoe effects and 1 / fixef_var for the fixed ones,
        and the field band's rows that hold entries. Field j's block is
        tau_j Q; with the fields interleaved cell by cell (cell a of field j
        at field position a * n_fields + j), Q's band row d becomes band row
        d * n_fields, holding tau_j Q[a + d, a] at column a * n_fields + j,
        and row k of the field rows is band row ``_prior_rows[k]``, the
        diagonal first. The log terms are ½ log |Sigma|_*, over Sigma's
        nonzero eigenvalues (each field block gives (n_cells − 1) log tau +
        log_gen_det(grid)), plus the Exponential log-densities of the free
        precisions.
        """
        lay, fixef_var = self.layout, self.prior.fixef_var
        taus = self._taus(x)
        if lay.n_constraints:
            q = self._q_rows
            rows = (q[:, :, None] * taus[1:]).reshape(len(q), -1)
        else:
            rows = np.zeros((1, 0))
        diag = np.concatenate([np.full(lay.n_shoes, taus[0]),
                               np.full(lay.n_fixed, 1.0 / fixef_var)])
        log_det = lay.n_shoes * np.log(taus[0]) - lay.n_fixed * np.log(fixef_var)
        for tau in taus[1:]:
            log_det += (lay.n_cells - 1) * np.log(tau) + self.log_gendet_q
        hyper = sum(np.log(q.rate) - q.rate * tau
                    for q, tau in zip(self.precisions, taus) if q.free)
        return (rows, diag), float(0.5 * log_det + hyper)

    def psi_gradient(self, x: np.ndarray, theta: np.ndarray, dtheta: np.ndarray,
                     cov: ArrowMatrix) -> np.ndarray:
        """The gradient in ``x`` of the Laplace log posterior, at its mode ``theta``.

        ``dtheta`` (n_free, n_total) holds the mode's derivatives in x, and
        ``cov`` the constrained covariance H_c^-1 on H's arrow pattern.
        With Sigma_j = d Sigma / d x_j, r_j its rank (n_shoes for tau_s,
        n_cells - 1 for a field) and rate_j its hyperprior's rate, entry j is

            -½ theta' Sigma_j theta + ½ r_j - rate_j tau_j - ½ tr(H_c^-1 Sigma_j)
            - ½ tr(H_c^-1 B' diag(lambda ⊙ B dtheta_j) B):

        the log-joint's and the log prior's derivatives in x at a fixed
        mode (the mode's own movement does not change the log-joint to
        first order), and the log-determinant's, whose last term is H's
        change through lambda as the mode moves (Kristensen, Nielsen, Berg,
        Skaug & Bell 2016, J. Stat. Softw. 70(5), §2): sum lambda ⊙ h ⊙ B dtheta_j,
        h the predictor's variances (:meth:`_leverage`). Sigma_j's trace reads
        Sigma's band rows of ``cov``, or its shoe diagonal.
        """
        lay = self.layout
        lam_h = np.exp(self.eta(theta)) * self._leverage(cov)
        tangents = self.prior_tangents(x, theta)
        free = [(slot, q, tau) for slot, (q, tau) in enumerate(zip(self.precisions, self._taus(x)))
                if q.free]
        out = np.empty(self.n_free)
        for j, (slot, q, tau) in enumerate(free):
            if slot == 0:
                rank, unit = lay.n_shoes, cov.B.diagonal()[:lay.n_shoes].sum()
            else:
                # field slot - 1 sits at every n_fields-th column of the band
                rank = lay.n_cells - 1
                prod = cov.band[self._prior_rows, slot - 1::lay.n_constraints] * self._q_rows
                unit = 2.0 * prod.sum() - prod[0].sum()
            out[j] = (-0.5 * tangents[j] @ theta + 0.5 * rank - q.rate * tau
                      - 0.5 * tau * unit - 0.5 * (lam_h * self.eta(dtheta[j])).sum())
        return out

    def prior_tangents(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """d(Sigma theta) / d x_j at free log-precisions ``x``, (n_free, n_total).

        Sigma is linear in the precisions, so row j is tau_j times the
        block of theta that tau_j scales, multiplied by that block's
        unit precision (the identity for the shoe effects, Q for a field).
        """
        out = np.zeros((self.n_free, self.layout.n_total))
        free = [(q.block, tau) for q, tau in zip(self.precisions, self._taus(x)) if q.free]
        for row, (blk, tau) in enumerate(free):
            v = theta[blk] if row == 0 else band_matvec(self._q_rows, theta[blk], self._q_offsets)
            out[row, blk] = tau * v
        return out

