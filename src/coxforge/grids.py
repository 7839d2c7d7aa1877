"""Grid geometry and shoeprint preprocessing.

Everything downstream works on a fixed rectangular cell grid laid over a
cropped scan. This module owns that geometry (:class:`GridSpec`: the cell
counts and the crop window, whose size in pixels is derived) and the
pipeline that turns raw material into per-cell arrays:

* ``crop_reflect`` — cut the informative window out of a scan and mirror
  right shoes so every print shares the left-shoe layout,
* ``coarsen``     — area-weighted averaging of pixels into grid cells
  (cell edges fall at fractional pixel positions, so pixels straddling an
  edge are split proportionally),
* ``binarize``    — threshold a contact surface at a cut,
* ``bin_accidentals`` — count marked accidental locations per grid cell.

A :class:`ShoeRecord` holds what was measured of one shoe: its surface,
its counts and the cut (a fixed threshold or Otsu's histogram criterion);
it derives its binary contact and Sobel gradient itself.

Array convention: 2-D arrays are indexed ``[row, col] == [y, x]`` with row 0
at the top of the scan, and intensities live in ``[0, 1]`` with 1 meaning
full contact (dark ink). Flattened cell order is row-major.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Literal, Sequence

import numpy as np

# the module, not its function: a wrapper set on gradient.sobel_magnitude
# sees the records' calls
from . import gradient as _gradient
from .errors import ConfigError, InputDataError
from .util import json_int

log = logging.getLogger("coxforge.grids")

Side = Literal["left", "right"]


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
    crop_x, crop_y : (int, int)
        Inclusive source pixel ranges of the crop window; its width and
        height in pixels are :attr:`src_w` and :attr:`src_h`.
    """

    nx: int = 39
    ny: int = 91
    crop_x: tuple[int, int] = (262, 597)
    crop_y: tuple[int, int] = (44, 826)

    def __post_init__(self) -> None:
        if self.nx <= 0 or self.ny <= 0 or self.src_w <= 0 or self.src_h <= 0:
            raise ConfigError("grid and source dimensions must be positive")

    @property
    def src_w(self) -> int:
        """Width in pixels of the crop window."""
        return self.crop_x[1] - self.crop_x[0] + 1

    @property
    def src_h(self) -> int:
        """Height in pixels of the crop window."""
        return self.crop_y[1] - self.crop_y[0] + 1

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
        return cls(nx=nx, ny=ny, crop_x=(0, nx - 1), crop_y=(0, ny - 1))

    def to_json_dict(self) -> dict:
        return {"nx": self.nx, "ny": self.ny,
                "crop_x": list(self.crop_x), "crop_y": list(self.crop_y)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridSpec":
        """The grid a JSON object describes: cell counts and pixel ranges are
        JSON integers, each range a pair. Other keys are not read."""
        def pair(key):
            v = d[key]
            if not (isinstance(v, list) and len(v) == 2):
                raise TypeError(f"{key} must be a list of two integers, got {v!r}")
            return json_int(v[0], key), json_int(v[1], key)

        try:
            return cls(nx=json_int(d["nx"], "nx"), ny=json_int(d["ny"], "ny"),
                       crop_x=pair("crop_x"), crop_y=pair("crop_y"))
        except (KeyError, TypeError, ValueError) as exc:
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


@dataclass(frozen=True)
class ShoeRecord:
    """What was measured of one shoe, ready for model building.

    ``contact`` is the coarsened continuous surface in [0, 1] and
    ``counts`` the accidentals per cell, both (ny, nx); ``threshold`` in
    [0, 1) is the cut of the binary contact. The binary contact and the
    edge-magnitude gradient are derived from the contact on first use and
    are read-only, so a record cannot disagree with its contact.
    """

    shoe_id: str
    side: Side
    contact: np.ndarray
    counts: np.ndarray
    threshold: float

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise InputDataError(
                f"shoe {self.shoe_id}: side must be 'left' or 'right', got {self.side!r}")
        # written so that a NaN fails it
        if not 0.0 <= self.threshold < 1.0:
            raise ConfigError(
                f"shoe {self.shoe_id}: threshold must lie in [0, 1), got {self.threshold}")

    @cached_property
    def contact_binary(self) -> np.ndarray:
        """The contact cut at the threshold, uint8."""
        return _read_only(binarize(self.contact, self.threshold))

    @cached_property
    def gradient(self) -> np.ndarray:
        """The Sobel magnitude of the contact."""
        return _read_only(_gradient.sobel_magnitude(self.contact))

    def validate(self, spec: GridSpec) -> None:
        shape = (spec.ny, spec.nx)
        for name in ("contact", "counts"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ConfigError(
                    f"shoe {self.shoe_id}: {name} has shape {arr.shape}, "
                    f"expected {shape}"
                )
            if not np.all(np.isfinite(arr)):
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


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
    # written so that a NaN fails it
    if not (lo >= -1e-9 and hi <= 1 + 1e-9):
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


# bins of the histogram Otsu's threshold is chosen on
OTSU_BINS = 256


def otsu_threshold(values: np.ndarray) -> float:
    """Otsu's threshold on a histogram over [0, 1].

    Splits the ``OTSU_BINS``-bin histogram at the cut maximizing between-class
    variance w0*w1*(mu0 - mu1)^2; ties go to the lowest cut. Returns the bin
    edge separating the classes, so ``value > threshold`` selects the upper
    class exactly.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ConfigError("cannot threshold an empty array")
    hist, edges = np.histogram(v, bins=OTSU_BINS, range=(0.0, 1.0))
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


def binarize(surface: np.ndarray, threshold: float) -> np.ndarray:
    """Binary contact grid: 1 where ``surface > threshold``.

    Returns a uint8 array of the same shape.
    """
    thr = float(threshold)
    if not 0.0 <= thr < 1.0:
        raise ConfigError(f"threshold must lie in [0, 1), got {thr}")
    return (np.asarray(surface, dtype=float) > thr).astype(np.uint8)


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
    """Full preprocessing for one shoe: crop, coarsen, choose the cut, bin.

    The surface is cut at ``threshold``, or at :func:`otsu_threshold` of
    the surface itself when none is given. Returns the finished
    :class:`ShoeRecord` and the rejected points.
    """
    contact = coarsen(crop_reflect(image, spec), spec)
    counts, rejects = bin_accidentals(points, image.side, spec)
    thr = otsu_threshold(contact) if threshold is None else threshold
    rec = ShoeRecord(shoe_id, image.side, contact, counts, thr)
    rec.validate(spec)
    return rec, rejects
