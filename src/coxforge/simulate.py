"""Synthetic data from the model's own generative process.

This is the verification oracle for the whole inference stack: draw a
latent vector from the prior at known precisions, draw Poisson counts
from the implied intensities, and check that fitting recovers the truth.
Surfaces are synthetic (smoothed blobs by default) but run through the
same thresholding and gradient code as scanned prints.

Randomness is split so per-shoe surface generation can run in parallel:
the master generator seeded with ``seed`` draws, in this order, the shoe
effects, the fixed effects, the smooth field, each varying field in spec
order, and finally the count matrix; shoe ``i``'s contact surface uses an
independent generator seeded with ``(seed, i)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .design import ModelSpec, get_spec
from .errors import ConfigError
from .gmrf import sample_constrained
from .gradient import sobel_magnitude
from .grids import GridSpec, ShoeRecord, surface_record
from .model import Design, ThetaLayout, precision_names

CONTACT_KINDS = ("blobs", "stripes", "uniform_noise")

# the largest mean numpy's Generator.poisson accepts
POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10

# sd of the fixed effects' draw around zero (see true_theta)
FIXEF_SD = 0.3


@dataclass(frozen=True)
class SimConfig:
    nx: int = 12
    ny: int = 16
    n_shoes: int = 200
    spec: ModelSpec = field(default_factory=lambda: get_spec("m_final"))
    tau_s: float = 4.0
    tau_sm: float = 2.0
    tau_v: float = 4.0
    seed: int = 0
    contact_kind: str = "blobs"
    intercept: float = -2.5

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2 or self.n_shoes < 1:
            raise ConfigError("simulation needs nx, ny >= 2 and n_shoes >= 1")
        if self.contact_kind not in CONTACT_KINDS:
            raise ConfigError(
                f"contact_kind must be one of {CONTACT_KINDS}, got {self.contact_kind!r}"
            )
        values = (self.tau_s, self.tau_sm, self.tau_v, self.intercept)
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"simulation settings must be finite, got {values}")
        if min(self.tau_s, self.tau_sm, self.tau_v) <= 0:
            raise ConfigError("true precisions must be positive")

    @property
    def grid(self) -> GridSpec:
        return GridSpec.synthetic(self.nx, self.ny)

    @property
    def psi(self) -> dict[str, float]:
        """The true precisions, keyed as a fit's ``psi_map``: tau_v for
        every varying field, pinned or free."""
        spec = self.spec
        taus = [self.tau_s] + [self.tau_sm] * spec.smooth + [self.tau_v] * len(spec.varying)
        return dict(zip(precision_names(spec), taus))


def _blobs(rng: np.random.Generator, ny: int, nx: int) -> np.ndarray:
    """Sum of random Gaussian bumps, rescaled into [0.15, 0.95]."""
    yy, xx = np.mgrid[0:ny, 0:nx].astype(float)
    n_b = int(rng.integers(3, 9))
    out = np.zeros((ny, nx))
    for _ in range(n_b):
        cy = rng.uniform(0, ny - 1)
        cx = rng.uniform(0, nx - 1)
        s = rng.uniform(0.10, 0.25) * min(nx, ny)
        amp = rng.uniform(0.5, 1.0)
        out += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
    return 0.15 + 0.8 * out / out.max()


def _stripes(rng: np.random.Generator, ny: int, nx: int) -> np.ndarray:
    yy, xx = np.mgrid[0:ny, 0:nx].astype(float)
    fx = rng.uniform(0.5, 3.0)
    fy = rng.uniform(0.5, 3.0)
    phase = rng.uniform(0, 2 * np.pi)
    wave = np.sin(2 * np.pi * (fx * xx / nx + fy * yy / ny) + phase)
    return 0.5 + 0.45 * wave


def gen_contact(config: SimConfig, shoe_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic contact surface in [0,1] and its edge-magnitude field."""
    rng = np.random.default_rng([config.seed, shoe_index])
    if config.contact_kind == "blobs":
        surface = _blobs(rng, config.ny, config.nx)
    elif config.contact_kind == "stripes":
        surface = _stripes(rng, config.ny, config.nx)
    else:
        surface = rng.uniform(0.0, 1.0, size=(config.ny, config.nx))
    return surface, sobel_magnitude(surface)


def true_theta(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the latent vector from the prior, except the fixed effects.

    The prior variance for fixed effects (10^3) produces intensities
    exp(beta'x) far beyond float range, so fixed effects are drawn from a
    tight N(0, FIXEF_SD^2) around zero instead, with the empty-product
    coordinate pinned at the configured intercept; hyperprior-level truth
    (the precisions) is exactly what the fit estimates.
    """
    spec = config.spec
    lay = ThetaLayout.for_model(config.n_shoes, spec, config.nx * config.ny)
    theta = np.zeros(lay.n_total)
    theta[lay.shoe] = rng.normal(0.0, 1.0 / np.sqrt(config.tau_s), size=lay.n_shoes)
    beta = rng.normal(0.0, FIXEF_SD, size=lay.n_fixed)
    empty = (0, 0, 0, 0, 0, 0)
    if empty in spec.fixed:
        beta[spec.fixed.index(empty)] = config.intercept
    theta[lay.fixed] = beta
    # the fields follow the fixed effects, one block each, in the order of psi
    fields = theta[lay.fixed.stop:].reshape(-1, lay.n_cells)
    for block, tau in zip(fields, list(config.psi.values())[1:]):
        block[:] = sample_constrained(config.nx, config.ny, tau, rng)[0]
    return theta


def gen_dataset(config: SimConfig) -> tuple[list[ShoeRecord], np.ndarray]:
    """Simulate shoes: surfaces, a prior draw of theta, Poisson counts."""
    rng = np.random.default_rng(config.seed)
    shape = (config.ny, config.nx)
    records = [
        surface_record(f"sim{i:04d}", "left" if i % 2 == 0 else "right",
                       *gen_contact(config, i), np.zeros(shape, dtype=np.int64))
        for i in range(config.n_shoes)
    ]
    theta = true_theta(config, rng)
    eta = Design(records, config.spec).eta(theta)  # (S, A)
    with np.errstate(over="ignore"):
        lam = np.exp(eta)
    if not np.all(lam <= POISSON_LAM_MAX):
        raise ConfigError(f"simulated log intensity reaches {eta.max():.4g}, past what the "
                          "Poisson sampler accepts; lower the intercept or raise the precisions")
    counts = rng.poisson(lam)
    out = [
        replace(rec, counts=counts[s].reshape(config.ny, config.nx).astype(np.int64))
        for s, rec in enumerate(records)
    ]
    return out, theta
