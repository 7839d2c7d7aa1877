"""Model configurations and covariate construction.

A covariate is indexed by six bits selecting which local quantities are
multiplied together for each cell ``a``:

====  ============================================
bit   factor
====  ============================================
i1    contact at the cell itself
i2    contact at the left neighbor  (x - 1)
i3    contact at the right neighbor (x + 1)
i4    contact at the lower neighbor (y - 1)
i5    contact at the upper neighbor (y + 1)
i6    gradient magnitude at the cell
====  ============================================

``x^i = prod_{j: i_j = 1} factor_j``, with out-of-grid neighbors
contributing 0 and the empty product (the all-zero index) equal to 1, so
"000000" is the intercept. A :class:`ModelSpec` holds one set of indices
``fixed`` whose effects are constant across the grid and one set
``varying`` whose effects get their own spatial field.

Every covariate splits into a product of two halves, ``x^i = u^(i1 i2 i3)
* v^(i4 i5 i6)``: the contact at the cell and its left and right
neighbors, times the lower and upper neighbors and the gradient. So a
spec's fixed covariates are the Kronecker products of two short factor
maps (8 + 8 columns for ``m_final``, 1 + 1 for the intercept alone), and
the product of any two covariates is ``prod_j factor_j^(i_j + k_j)``, a
monomial with exponents in {0, 1, 2} (Van Loan 2000, "The ubiquitous
Kronecker product", J. Comput. Appl. Math. 123). :class:`FactorColumns`
lays out those half maps, and :func:`build_tensor` evaluates any such
monomial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .grids import ShoeRecord

InteractionIndex = tuple[int, int, int, int, int, int]

N_BITS = 6


def index_from_string(bits: str) -> InteractionIndex:
    """Parse "100001"-style covariate indices."""
    if len(bits) != N_BITS or any(c not in "01" for c in bits):
        raise ConfigError(f"covariate index must be {N_BITS} bits of 0/1, got {bits!r}")
    return tuple(int(c) for c in bits)  # type: ignore[return-value]


def index_to_string(index: InteractionIndex) -> str:
    return "".join(str(int(b)) for b in index)


def interaction_order(index: InteractionIndex) -> int:
    """Number of factors multiplied together (0 for the intercept)."""
    return int(sum(index))


@dataclass(frozen=True)
class ModelSpec:
    """One model configuration.

    ``fixed`` lists indices with grid-constant coefficients, ``varying``
    those with per-cell coefficient fields. ``contact`` selects whether
    covariates read the continuous surface or its binarized version, and
    ``smooth`` toggles the baseline spatial field (off only for the
    uniform-rate reference model).
    """

    name: str
    fixed: tuple[InteractionIndex, ...]
    varying: tuple[InteractionIndex, ...] = ()
    contact: str = "continuous"  # 'continuous' | 'binary'
    smooth: bool = True

    def __post_init__(self) -> None:
        if self.contact not in ("continuous", "binary"):
            raise ConfigError(f"contact must be continuous|binary, got {self.contact!r}")
        if len(set(self.fixed)) != len(self.fixed):
            raise ConfigError(f"model {self.name}: duplicate fixed indices")
        if len(set(self.varying)) != len(self.varying):
            raise ConfigError(f"model {self.name}: duplicate varying indices")
        for idx in self.fixed + self.varying:
            if len(idx) != N_BITS or any(b not in (0, 1) for b in idx):
                raise ConfigError(f"model {self.name}: bad index {idx}")
        if not isinstance(self.smooth, bool):
            raise ConfigError(f"model {self.name}: smooth must be true or false, "
                              f"got {self.smooth!r}")
        if not self.smooth and self.varying:
            raise ConfigError(
                f"model {self.name}: varying coefficients require the smooth field"
            )

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "fixed": [index_to_string(i) for i in self.fixed],
            "varying": [index_to_string(i) for i in self.varying],
            "contact": self.contact,
            "smooth": self.smooth,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelSpec":
        """The spec a JSON object describes: ``name`` and ``contact`` are
        JSON strings, ``fixed`` and ``varying`` JSON lists of bit strings."""
        def string(key, value) -> str:
            if not isinstance(value, str):
                raise TypeError(f"{key} must be a JSON string, got {value!r}")
            return value

        def indices(key, value) -> tuple[InteractionIndex, ...]:
            if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
                raise TypeError(f"{key} must be a JSON list of bit strings, got {value!r}")
            try:
                return tuple(index_from_string(s) for s in value)
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}") from exc

        try:
            return cls(
                name=string("name", d["name"]),
                fixed=indices("fixed", d["fixed"]),
                varying=indices("varying", d.get("varying", [])),
                contact=string("contact", d.get("contact", "continuous")),
                smooth=d.get("smooth", True),
            )
        except KeyError as exc:
            raise ConfigError(f"model description missing key {exc}") from exc
        except TypeError as exc:
            raise ConfigError(f"model description has a value of the wrong type: {exc}") from exc


def _all_indices(include_gradient: bool) -> tuple[InteractionIndex, ...]:
    """All 2^5 (or 2^6) indices in lexicographic bit order, intercept first."""
    last = (0, 1) if include_gradient else (0,)
    return tuple(
        itertools.product((0, 1), (0, 1), (0, 1), (0, 1), (0, 1), last)
    )


INTERCEPT: InteractionIndex = (0, 0, 0, 0, 0, 0)
_CENTER: InteractionIndex = (1, 0, 0, 0, 0, 0)
_GRAD: InteractionIndex = (0, 0, 0, 0, 0, 1)
_CENTER_GRAD: InteractionIndex = (1, 0, 0, 0, 0, 1)


def _battery() -> dict[str, ModelSpec]:
    contact_only = _all_indices(include_gradient=False)  # 32 indices
    with_gradient = _all_indices(include_gradient=True)  # 64 indices
    varying_a = tuple(
        i for i in contact_only if 1 <= interaction_order(i) <= 2
    )  # 5 singles + 10 pairs
    return {
        "uniform": ModelSpec("uniform", fixed=(INTERCEPT,), smooth=False),
        "m_a": ModelSpec("m_a", fixed=(INTERCEPT,)),
        "m_b": ModelSpec("m_b", fixed=contact_only, contact="binary"),
        "variant_a": ModelSpec("variant_a", fixed=contact_only, varying=varying_a),
        "variant_b": ModelSpec("variant_b", fixed=with_gradient),
        "variant_c": ModelSpec("variant_c", fixed=with_gradient, varying=(_CENTER,)),
        "variant_d": ModelSpec(
            "variant_d", fixed=with_gradient, varying=(_CENTER, _GRAD)
        ),
        "m_final": ModelSpec(
            "m_final", fixed=with_gradient, varying=(_CENTER, _GRAD, _CENTER_GRAD)
        ),
    }


# built once: a ModelSpec is frozen, so every caller can share it
_BUILTIN = _battery()


def builtin_specs() -> dict[str, ModelSpec]:
    """The standard model battery, keyed by name, in a dict of the caller's own.

    ``uniform`` has the intercept only and no spatial field; ``m_a`` adds
    the field; ``m_b`` uses all 32 binary-contact neighborhood products;
    the variants explore continuous contact with and without gradient
    terms and spatially varying coefficients; ``m_final`` is the full
    configuration (64 fixed products, varying fields for contact, gradient,
    and their product).
    """
    return dict(_BUILTIN)


def get_spec(name: str) -> ModelSpec:
    try:
        return _BUILTIN[name]
    except KeyError:
        raise ConfigError(
            f"unknown model {name!r}; built-ins: {', '.join(sorted(_BUILTIN))}"
        ) from None


# ---------------------------------------------------------------------------
# covariate evaluation


def _factor_stack(contact: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """(6, ny, nx) stack of the per-cell factors, zero outside the grid."""
    c = np.asarray(contact, dtype=float)
    g = np.asarray(grad, dtype=float)
    if c.shape != g.shape:
        raise ConfigError(f"contact {c.shape} and gradient {g.shape} shapes differ")
    left = np.zeros_like(c)
    left[:, 1:] = c[:, :-1]
    right = np.zeros_like(c)
    right[:, :-1] = c[:, 1:]
    down = np.zeros_like(c)
    down[1:, :] = c[:-1, :]
    up = np.zeros_like(c)
    up[:-1, :] = c[1:, :]
    return np.stack([c, left, right, down, up, g])


def build_tensor(
    record: ShoeRecord,
    indices: Sequence[tuple[int, ...]],
    spec: ModelSpec,
) -> np.ndarray:
    """Covariate values of one record for every (cell, index), shape (ny*nx, K).

    Entry j of an index is the exponent of factor j, so the 0/1 covariate
    indices give the covariates and an index with 2s gives the product of
    two covariates. Cells are flattened row-major. The contact surface
    used is either ``record.contact`` or ``record.contact_binary``
    depending on ``spec.contact``; the binary contact and the gradient
    are those the record derives from its contact.
    """
    contact = record.contact if spec.contact == "continuous" else record.contact_binary
    flat = _factor_stack(contact, record.gradient).reshape(N_BITS, -1)
    out = np.empty((flat.shape[1], len(indices)))
    for k, idx in enumerate(indices):
        sel = [j for j, e in enumerate(idx) for _ in range(e)]
        if sel:
            out[:, k] = np.prod(flat[sel], axis=0)
        else:
            out[:, k] = 1.0
    return out


_BASE3 = np.array([9, 3, 1])


def index_array(indices: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Covariate indices (or exponent vectors) as an (n, 6) integer array."""
    return np.array(indices, dtype=np.intp).reshape(-1, N_BITS)


class FactorColumns:
    """Columns of the two factor maps ``U`` (bits 1-3) and ``V`` (bits 4-6).

    A column is a half-index of exponents, and ``build_tensor`` of it
    (padded with zeros) is the map. The first ``n_u`` columns of ``U`` and
    ``n_v`` of ``V`` are the halves the spec's fixed indices use, the maps
    ``u`` and ``v`` of the linear predictor: fixed index k is
    ``u[..., fixed_u[k]] * v[..., fixed_v[k]]``, and varying index j is
    ``U[..., varying_u[j]] * V[..., varying_v[j]]``. With ``products`` the
    maps also hold every half of a product of two of the model's
    covariates (fixed, varying, and the constant of the smooth field), so
    that :meth:`at` can place any such product.
    """

    def __init__(self, spec: ModelSpec, products: bool = False) -> None:
        columns, n_used = [], []
        for half in (slice(0, 3), slice(3, 6)):
            used = sorted({i[half] for i in spec.fixed})
            if products:
                base = {i[half] for i in spec.fixed + spec.varying + (INTERCEPT,) * spec.smooth}
                more = {tuple(x + y for x, y in zip(a, b)) for a in base for b in base}
            else:
                more = {i[half] for i in spec.varying}
            columns.append(used + sorted(more - set(used)))
            n_used.append(len(used))
        first, second = columns
        self.n_u, self.n_v = n_used
        self.u_columns = [h + (0, 0, 0) for h in first]
        self.v_columns = [(0, 0, 0) + h for h in second]
        # column of each half, by its exponents read as a base-3 number
        self._u = np.full(27, -1, dtype=np.intp)
        self._v = np.full(27, -1, dtype=np.intp)
        for table, halves in ((self._u, first), (self._v, second)):
            table[np.array(halves, dtype=np.intp).reshape(-1, 3) @ _BASE3] = np.arange(len(halves))
        self.fixed_u, self.fixed_v = self.at(index_array(spec.fixed))
        self.varying_u, self.varying_v = self.at(index_array(spec.varying))

    def at(self, exponents) -> tuple[np.ndarray, np.ndarray]:
        """(column of U, column of V) of each product with these exponents.

        ``exponents`` (..., 6) is a sum of covariate indices; the product
        of those covariates is ``U[..., cu] * V[..., cv]``.
        """
        e = np.asarray(exponents, dtype=np.intp)
        return self._u[e[..., :3] @ _BASE3], self._v[e[..., 3:] @ _BASE3]
