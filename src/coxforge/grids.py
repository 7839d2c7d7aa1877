"""Grid geometry and shoeprint preprocessing.

Everything downstream works on a fixed rectangular cell grid laid over a
cropped scan. This module owns that geometry (:class:`GridSpec`) and the
pipeline that turns raw material into per-cell arrays:

* ``crop_reflect`` — cut the informative window out of a scan and mirror
  right shoes so every print shares the left-shoe layout,
* ``coarsen``     — area-weighted averaging of pixels into grid cells
  (cell edges fall at fractional pixel positions, so pixels straddling an
  edge are split proportionally),
* ``binarize``    — threshold a contact surface, by a fixed cut or Otsu's
  histogram criterion,
* ``bin_accidentals`` — count marked accidental locations per grid cell.

Array convention: 2-D arrays are indexed ``[row, col] == [y, x]`` with row 0
at the top of the scan, and intensities live in ``[0, 1]`` with 1 meaning
full contact (dark ink). Flattened cell order is row-major.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import ConfigError, InputDataError

log = logging.getLogger("coxforge.grids")

Side = Literal["left", "right"]

# a Sobel response of a surface in [0, 1] is at most 4 per direction
_MAX_GRADIENT = 4.0 * np.sqrt(2.0)


@dataclass(frozen=True)
class GridSpec:
    """Geometry linking a source scan to the analysis grid.

    Defaults describe the shoeprint scans this package targets: an
    869x869 scan cropped to columns 262..597 and rows 44..826 (inclusive),
    i.e. a 336x783 window, overlaid with a 39x91 grid of equal cells.

    Attributes
    ----------
    nx, ny : int
        Number of grid cells horizontally / vertically.
    src_w, src_h : int
        Width / height in pixels of the cropped window.
    crop_x, crop_y : (int, int)
        Inclusive source pixel ranges of the crop window.
    x_range, y_range : (float, float)
        Physical coordinate ranges the grid axes correspond to; carried as
        metadata for plotting and untouched by the numerics.
    """

    nx: int = 39
    ny: int = 91
    src_w: int = 336
    src_h: int = 783
    crop_x: tuple[int, int] = (262, 597)
    crop_y: tuple[int, int] = (44, 826)
    x_range: tuple[float, float] = (30.0, 68.0)
    y_range: tuple[float, float] = (5.0, 95.0)

    def __post_init__(self) -> None:
        if self.nx <= 0 or self.ny <= 0 or self.src_w <= 0 or self.src_h <= 0:
            raise ConfigError("grid and source dimensions must be positive")
        if self.crop_x[1] - self.crop_x[0] + 1 != self.src_w:
            raise ConfigError(
                f"crop_x {self.crop_x} spans {self.crop_x[1] - self.crop_x[0] + 1} "
                f"columns, expected src_w={self.src_w}"
            )
        if self.crop_y[1] - self.crop_y[0] + 1 != self.src_h:
            raise ConfigError(
                f"crop_y {self.crop_y} spans {self.crop_y[1] - self.crop_y[0] + 1} "
                f"rows, expected src_h={self.src_h}"
            )

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        """Pixels per cell: (src_w * src_h) / (nx * ny)."""
        return (self.src_w * self.src_h) / (self.nx * self.ny)

    @classmethod
    def synthetic(cls, nx: int, ny: int) -> "GridSpec":
        """A grid with no real scan behind it (one pixel per cell, unit area)."""
        return cls(
            nx=nx, ny=ny, src_w=nx, src_h=ny,
            crop_x=(0, nx - 1), crop_y=(0, ny - 1),
            x_range=(0.0, float(nx)), y_range=(0.0, float(ny)),
        )

    def to_json_dict(self) -> dict:
        return {
            "nx": self.nx, "ny": self.ny,
            "src_w": self.src_w, "src_h": self.src_h,
            "crop_x": list(self.crop_x), "crop_y": list(self.crop_y),
            "x_range": list(self.x_range), "y_range": list(self.y_range),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridSpec":
        try:
            return cls(
                nx=int(d["nx"]), ny=int(d["ny"]),
                src_w=int(d["src_w"]), src_h=int(d["src_h"]),
                crop_x=(int(d["crop_x"][0]), int(d["crop_x"][1])),
                crop_y=(int(d["crop_y"][0]), int(d["crop_y"][1])),
                x_range=(float(d["x_range"][0]), float(d["x_range"][1])),
                y_range=(float(d["y_range"][0]), float(d["y_range"][1])),
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InputDataError(f"malformed grid description: {exc}") from exc


@dataclass(frozen=True)
class RawImage:
    """A full scan plus which foot it came from."""

    pixels: np.ndarray  # (H, W) float in [0, 1], 1 = dark / contact
    side: Side

    def __post_init__(self) -> None:
        if self.pixels.ndim != 2:
            raise InputDataError("scan must be a 2-D array")
        if self.side not in ("left", "right"):
            raise InputDataError(f"side must be 'left' or 'right', got {self.side!r}")


@dataclass
class ShoeRecord:
    """Per-cell data for one shoe, ready for model building.

    ``contact`` is the coarsened continuous surface in [0, 1];
    ``contact_binary`` its thresholded version; ``gradient`` the edge
    magnitude field; ``counts`` the accidentals per cell. All arrays are
    (ny, nx).
    """

    shoe_id: str
    side: Side
    contact: np.ndarray
    contact_binary: np.ndarray
    gradient: np.ndarray
    counts: np.ndarray
    threshold: float = field(default=float("nan"))

    def validate(self, spec: GridSpec) -> None:
        shape = (spec.ny, spec.nx)
        for name in ("contact", "contact_binary", "gradient", "counts"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ConfigError(
                    f"shoe {self.shoe_id}: {name} has shape {arr.shape}, "
                    f"expected {shape}"
                )
        for name in ("contact", "gradient", "counts"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InputDataError(f"shoe {self.shoe_id}: non-finite {name} values")
        if np.any(self.counts < 0):
            raise InputDataError(f"shoe {self.shoe_id}: negative accidental counts")
        if np.any(self.counts != np.round(self.counts)):
            raise InputDataError(f"shoe {self.shoe_id}: accidental counts must be whole numbers")
        # counts are stored and summed as int64
        with np.errstate(over="ignore"):
            total = float(np.sum(self.counts, dtype=float))
        if total >= 2.0**63:
            raise InputDataError(f"shoe {self.shoe_id}: accidental counts exceed the int64 range")
        # the tolerance matches the one crop_reflect allows scan intensities
        if np.any((self.contact < -1e-9) | (self.contact > 1 + 1e-9)):
            raise InputDataError(
                f"shoe {self.shoe_id}: contact must lie in [0, 1], found "
                f"[{self.contact.min()}, {self.contact.max()}]"
            )
        if not np.all((self.contact_binary == 0) | (self.contact_binary == 1)):
            raise InputDataError(f"shoe {self.shoe_id}: binary contact must be 0 or 1")
        # the slack covers the 1e-9 that contact may stray outside [0, 1]
        if np.any((self.gradient < 0) | (self.gradient > _MAX_GRADIENT + 1e-6)):
            raise InputDataError(
                f"shoe {self.shoe_id}: gradient must lie in [0, 4*sqrt(2)], found "
                f"[{self.gradient.min()}, {self.gradient.max()}]"
            )


def crop_reflect(image: RawImage, spec: GridSpec) -> np.ndarray:
    """Crop a scan to the analysis window; mirror right shoes horizontally.

    Left shoes pass through the crop unchanged. Right shoes are flipped
    within the cropped frame (a dark pixel at cropped column ``j`` lands at
    column ``src_w - 1 - j``), so the output always has left-shoe layout.

    Returns a (src_h, src_w) array.
    """
    px = np.asarray(image.pixels, dtype=float)
    x0, x1 = spec.crop_x
    y0, y1 = spec.crop_y
    if px.shape[0] <= y1 or px.shape[1] <= x1:
        raise InputDataError(
            f"scan of shape {px.shape} too small for crop window "
            f"x={spec.crop_x}, y={spec.crop_y}"
        )
    lo, hi = float(px.min()), float(px.max())
    if lo < -1e-9 or hi > 1 + 1e-9:
        raise InputDataError(f"scan intensities must lie in [0, 1], found [{lo}, {hi}]")
    out = px[y0 : y1 + 1, x0 : x1 + 1]
    if image.side == "right":
        out = out[:, ::-1]
    return np.ascontiguousarray(out)


@lru_cache(maxsize=32)
def _overlap_weights(n_coarse: int, n_src: int) -> np.ndarray:
    """Row-stochastic (n_coarse, n_src) matrix of fractional pixel overlaps.

    Cell k covers the interval [k*w, (k+1)*w) with w = n_src / n_coarse;
    pixel p covers [p, p+1). Entry (k, p) is their overlap length divided
    by w, so each row sums to 1 and each column sums to 1/w.
    """
    w = n_src / n_coarse
    W = np.zeros((n_coarse, n_src))
    for k in range(n_coarse):
        lo, hi = k * w, (k + 1) * w
        p0 = int(np.floor(lo))
        p1 = min(int(np.ceil(hi)), n_src)
        for p in range(p0, p1):
            W[k, p] = max(0.0, min(hi, p + 1) - max(lo, p)) / w
    return W


def coarsen(cropped: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Average a (src_h, src_w) pixel field into the (ny, nx) cell grid.

    Pixels straddling a cell edge contribute proportionally to both cells,
    so the total intensity is conserved:
    ``coarsen(img).sum() * spec.cell_area == img.sum()``.
    """
    img = np.asarray(cropped, dtype=float)
    if img.shape != (spec.src_h, spec.src_w):
        raise ConfigError(
            f"expected cropped shape {(spec.src_h, spec.src_w)}, got {img.shape}"
        )
    wy = _overlap_weights(spec.ny, spec.src_h)
    wx = _overlap_weights(spec.nx, spec.src_w)
    return wy @ img @ wx.T


def otsu_threshold(values: np.ndarray, bins: int = 256) -> float:
    """Otsu's threshold on a histogram over [0, 1].

    Splits the ``bins``-bin histogram at the cut maximizing between-class
    variance w0*w1*(mu0 - mu1)^2; ties go to the lowest cut. Returns the bin
    edge separating the classes, so ``value > threshold`` selects the upper
    class exactly.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ConfigError("cannot threshold an empty array")
    hist, edges = np.histogram(v, bins=bins, range=(0.0, 1.0))
    p = hist.astype(float) / hist.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    w0 = np.cumsum(p)
    m0 = np.cumsum(p * centers)
    mu_total = m0[-1]
    # between-class variance for a cut after bin t, guarded where a class is empty
    with np.errstate(divide="ignore", invalid="ignore"):
        num = (mu_total * w0 - m0) ** 2
        den = w0 * (1.0 - w0)
        sigma_b = np.where(den > 0, num / den, -np.inf)
    t = int(np.argmax(sigma_b[:-1]))  # a cut must leave the top class nonempty
    return float(edges[t + 1])


def binarize(surface: np.ndarray, threshold: float | None = None) -> np.ndarray:
    """Binary contact grid: 1 where ``surface > threshold``.

    With ``threshold=None`` the cut is chosen by :func:`otsu_threshold` on
    the surface itself. Returns a uint8 array of the same shape.
    """
    surf = np.asarray(surface, dtype=float)
    thr = otsu_threshold(surf) if threshold is None else float(threshold)
    if not 0.0 <= thr < 1.0:
        raise ConfigError(f"threshold must lie in [0, 1), got {thr}")
    return (surf > thr).astype(np.uint8)


def bin_accidentals(
    points: Iterable[tuple[float, float]],
    side: Side,
    spec: GridSpec,
) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Count accidental locations per grid cell.

    ``points`` are (x, y) in source-scan pixel coordinates. A point is kept
    iff it falls inside the crop window (half-open: ``crop_x0 <= x <
    crop_x0 + src_w`` and likewise for y); everything else is returned in
    the rejects list untouched. Right-shoe points are mirrored with the
    same convention as :func:`crop_reflect` (u -> src_w - u in cropped
    coordinates). Cells are half-open with the far edge clamped inward, so
    boundary points never fall off the grid.
    """
    counts = np.zeros((spec.ny, spec.nx), dtype=np.int64)
    rejects: list[tuple[float, float]] = []
    wx = spec.src_w / spec.nx
    wy = spec.src_h / spec.ny
    for x, y in points:
        u = float(x) - spec.crop_x[0]
        v = float(y) - spec.crop_y[0]
        if not (0.0 <= u < spec.src_w and 0.0 <= v < spec.src_h):
            rejects.append((float(x), float(y)))
            continue
        if side == "right":
            u = spec.src_w - u
        kx = min(int(u / wx), spec.nx - 1)
        ky = min(int(v / wy), spec.ny - 1)
        counts[ky, kx] += 1
    if rejects:
        log.debug("rejected %d accidental points outside the crop window", len(rejects))
    return counts, rejects


def make_record(
    image: RawImage,
    shoe_id: str,
    points: Sequence[tuple[float, float]],
    spec: GridSpec,
    threshold: float | None = None,
) -> tuple[ShoeRecord, list[tuple[float, float]]]:
    """Full preprocessing for one shoe: crop, coarsen, threshold, gradient, bin.

    Returns the finished :class:`ShoeRecord` and the rejected points.
    """
    from .gradient import sobel_magnitude  # deferred: gradient imports nothing from here

    cropped = crop_reflect(image, spec)
    contact = coarsen(cropped, spec)
    thr = otsu_threshold(contact) if threshold is None else float(threshold)
    binary = binarize(contact, thr)
    grad = sobel_magnitude(contact)
    counts, rejects = bin_accidentals(points, image.side, spec)
    rec = ShoeRecord(
        shoe_id=shoe_id,
        side=image.side,
        contact=contact,
        contact_binary=binary,
        gradient=grad,
        counts=counts,
        threshold=thr,
    )
    rec.validate(spec)
    return rec, rejects
