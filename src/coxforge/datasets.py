"""File formats: images in, datasets and result artifacts out.

Grayscale images arrive as PGM (P2/P5) or CSV grids; processed shoes and
grid geometry travel together in one JSON dataset file; fitted results
round-trip through JSON; heatmaps leave as CSV plus 8-bit PGM with the
scaling recorded in a sidecar JSON. Timestamps live in a single metadata
field so that outputs are otherwise byte-reproducible.

A dataset file (format ``coxforge-dataset-v3``) is one JSON object: the
format tag, the grid, and what was measured of each shoe: its ``shoe_id``,
``side``, ``threshold``, ``counts`` (a JSON integer list, so their checks
still read in a hand-edited file) and ``contact`` (the base64 of its
row-major, little-endian float64 bytes, which round-trip exactly). The
record derives its binary contact and gradient from these, so neither is
stored. Shoe ids are JSON strings, distinct within a file. A file of an
earlier format is refused with the file named: rewrite it with this
version's ``prep`` or ``simulate``.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import logging
import re
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, InputDataError
from .grids import GridSpec, RawImage, ShoeRecord, Side
from .util import json_number

log = logging.getLogger("coxforge.datasets")

DATASET_FORMAT = "coxforge-dataset-v3"


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# images


def read_pgm(path) -> np.ndarray:
    """PGM (P2 ascii or P5 binary) to brightness in [0, 1]."""
    raw = Path(path).read_bytes()
    if raw[:2] not in (b"P2", b"P5"):
        raise InputDataError(f"{path}: not a PGM file (magic {raw[:2]!r})")
    # header: magic, width, height, maxval — with # comments allowed
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        m = re.compile(rb"\s*(#[^\n]*\n|\S+)").match(raw, pos)
        if m is None:
            raise InputDataError(f"{path}: truncated PGM header")
        pos = m.end()
        tok = m.group(1)
        if not tok.startswith(b"#"):
            tokens.append(tok)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise InputDataError(f"{path}: malformed PGM header: {exc}") from exc
    if maxval <= 0 or maxval > 65535:
        raise InputDataError(f"{path}: unsupported PGM maxval {maxval}")
    if width <= 0 or height <= 0:
        raise InputDataError(f"{path}: PGM size {width}x{height} is not positive")
    if raw[:2] == b"P5":
        pos += 1  # single whitespace after maxval
        dt = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
        need = width * height * dt.itemsize
        if len(raw) - pos < need:
            raise InputDataError(
                f"{path}: truncated PGM data: expected {need} bytes, found {max(len(raw) - pos, 0)}"
            )
        data = np.frombuffer(raw, dtype=dt, count=width * height, offset=pos)
        # unsigned samples are >= 0 by their type
        in_range = data.max() <= maxval
    else:
        try:
            data = np.array(raw[pos:].split(), dtype=float)
        except ValueError as exc:
            raise InputDataError(f"{path}: non-numeric PGM sample: {exc}") from exc
        if data.size != width * height:
            raise InputDataError(
                f"{path}: expected {width * height} samples, found {data.size}"
            )
        # written so that NaN fails it
        in_range = np.all((data >= 0) & (data <= maxval))
    if not in_range:
        raise InputDataError(f"{path}: PGM samples must lie in [0, {maxval}]")
    img = data.reshape(height, width).astype(float) / maxval
    return img


def write_pgm(path, values: np.ndarray) -> None:
    """8-bit binary PGM of an array already scaled to [0, 1]."""
    v = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
    data = np.round(v * 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def read_csv_grid(path) -> np.ndarray:
    """A CSV grid of samples; a UTF-8 byte-order mark, as spreadsheet
    programs write, is skipped."""
    try:
        arr = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2, encoding="utf-8-sig")
    except ValueError as exc:
        raise InputDataError(f"{path}: malformed CSV grid: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise InputDataError(f"{path}: CSV grid holds a non-finite sample")
    return arr


def write_csv_grid(path, values: np.ndarray) -> None:
    np.savetxt(path, np.asarray(values, dtype=float), delimiter=",", fmt="%.10g")


def read_image(path, side: Side) -> RawImage:
    """Load a scan: PGM brightness is inverted so 1 means contact (dark ink);
    CSV grids are taken as contact values directly."""
    p = Path(path)
    if not p.exists():
        raise InputDataError(f"image file not found: {p}")
    if p.suffix.lower() == ".pgm":
        pixels = 1.0 - read_pgm(p)
    elif p.suffix.lower() == ".csv":
        pixels = read_csv_grid(p)
    else:
        raise InputDataError(f"{p}: unsupported image format {p.suffix!r}")
    return RawImage(pixels=pixels, side=side)


# ---------------------------------------------------------------------------
# accidentals


def read_accidentals(path) -> dict[str, tuple[Side, list[tuple[float, float]]]]:
    """Parse the annotation CSV with header shoe_id,side,x,y.

    Returns per-shoe side and point list, in file order. A shoe listed
    with conflicting sides is an error.
    """
    p = Path(path)
    if not p.exists():
        raise InputDataError(f"accidentals file not found: {p}")
    try:
        # utf-8-sig drops the byte-order mark spreadsheet programs write
        text = p.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{p}: not UTF-8 text: {exc}") from exc
    out: dict[str, tuple[Side, list[tuple[float, float]]]] = {}
    with io.StringIO(text, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"shoe_id", "side", "x", "y"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise InputDataError(
                f"{p}: header must contain shoe_id,side,x,y "
                f"(found {reader.fieldnames})"
            )
        for row in reader:
            i = reader.line_num
            if any(row[k] is None for k in need):
                raise InputDataError(f"{p}:{i}: row has fewer than the 4 fields shoe_id,side,x,y")
            sid = row["shoe_id"].strip()
            side = row["side"].strip().lower()
            if side not in ("left", "right"):
                raise InputDataError(f"{p}:{i}: side must be left|right, got {side!r}")
            try:
                pt = (float(row["x"]), float(row["y"]))
            except ValueError as exc:
                raise InputDataError(f"{p}:{i}: bad coordinate: {exc}") from exc
            if sid in out:
                if out[sid][0] != side:
                    raise InputDataError(f"{p}:{i}: shoe {sid!r} listed with both sides")
                out[sid][1].append(pt)
            else:
                out[sid] = (side, [pt])
    return out


# ---------------------------------------------------------------------------
# JSON files: datasets and fits, and the one reader of every JSON input


def read_json(path, what: str, object_hook=None) -> dict:
    """The one JSON object a ``what`` file holds (dataset, fit, model, ...).

    A file that is missing, whose bytes are not JSON (in UTF-8, with or
    without a byte-order mark), or whose document is not one object is an
    InputDataError that names the file.
    ``object_hook`` goes to :func:`json.loads`.
    """
    p = Path(path)
    if not p.exists():
        raise InputDataError(f"{what} file not found: {p}")
    try:
        # the file text is a temporary, dropped once parsed
        doc = json.loads(p.read_text(encoding="utf-8-sig"), object_hook=object_hook)
    except ValueError as exc:  # also UnicodeDecodeError
        raise InputDataError(f"{p}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputDataError(f"{p}: a {what} file holds one JSON object")
    return doc


def _encode_floats(arr: np.ndarray) -> str:
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _decode_floats(key: str, value, n_cells: int) -> np.ndarray:
    """The float64 cells that ``_encode_floats`` wrote, as a writable array."""
    if not isinstance(value, str):
        raise TypeError(f"{key}: expected a base64 string, found {type(value).__name__}")
    try:
        # without validate, characters outside the alphabet are silently dropped
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a string that is not ASCII
        raise ValueError(f"{key}: not base64: {exc}") from exc
    if len(raw) != 8 * n_cells:
        raise ValueError(f"{key}: {len(raw)} bytes, expected 8 per cell x {n_cells} cells")
    return np.frombuffer(raw, dtype="<f8").astype(float)


def save_dataset(records: Sequence[ShoeRecord], grid: GridSpec, path) -> None:
    """Write what was measured of each shoe."""
    shoes = [{
        "shoe_id": r.shoe_id,
        "side": r.side,
        "threshold": float(r.threshold),
        "contact": _encode_floats(r.contact),
        "counts": np.asarray(r.counts, dtype=np.int64).ravel().tolist(),
    } for r in records]
    doc = {
        "format": DATASET_FORMAT,
        "metadata": {"created_utc": _utc_now()},
        "grid": grid.to_json_dict(),
        "shoes": shoes,
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def _counts_to_array(obj: dict) -> dict:
    """A JSON object hook: a shoe's counts list becomes a float array as
    it closes.

    So the parser never holds more than one shoe's counts as a Python
    list. It never raises: a list it cannot convert stays a list, for
    :func:`load_dataset` to report with the file and the shoe.
    """
    value = obj.get("counts")
    if isinstance(value, list):
        try:
            obj["counts"] = np.array(value, dtype=float)
        except (TypeError, ValueError, OverflowError):
            pass
    return obj


def load_dataset(path) -> tuple[list[ShoeRecord], GridSpec]:
    """Each shoe's record, in file order, and the grid."""
    p = Path(path)
    doc = read_json(p, "dataset", object_hook=_counts_to_array)
    if doc.get("format") != DATASET_FORMAT:
        raise InputDataError(
            f"{p}: format tag {doc.get('format')!r}, expected {DATASET_FORMAT!r}; "
            f"rewrite the dataset with this version's prep or simulate"
        )
    try:
        grid = GridSpec.from_json_dict(doc["grid"])
        shoes = list(doc["shoes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"{p}: malformed dataset: {exc!r}") from exc
    except (ConfigError, InputDataError) as exc:
        raise type(exc)(f"{p}: {exc}") from exc
    shape = (grid.ny, grid.nx)
    records, seen = [], set()
    for i, s in enumerate(shoes):
        sid = s.get("shoe_id", f"#{i}") if isinstance(s, dict) else f"#{i}"
        try:
            if not isinstance(s["shoe_id"], str):
                raise TypeError(f"shoe_id must be a JSON string, found {s['shoe_id']!r}")
            contact = _decode_floats("contact", s["contact"], grid.n_cells).reshape(shape)
            # the record checks the side, and that the threshold lies in [0, 1)
            rec = ShoeRecord(s["shoe_id"], s["side"], contact,
                             np.asarray(s["counts"], dtype=float).reshape(shape),
                             json_number(s["threshold"], "threshold"))
            # counts (whole, within int64) are checked before the cast below
            # can hide a bad value
            rec.validate(grid)
        except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
            raise InputDataError(f"{p}: shoe {sid}: malformed record: {exc!r}") from exc
        except InputDataError as exc:
            raise InputDataError(f"{p}: {exc}") from exc
        if sid in seen:
            raise InputDataError(f"{p}: shoe {sid}: an earlier shoe has the same id")
        seen.add(sid)
        records.append(replace(rec, counts=rec.counts.astype(np.int64)))
    return records, grid


def save_fit(fit_result, path) -> None:
    doc = fit_result.to_json_dict()
    doc["metadata"] = {"created_utc": _utc_now()}
    Path(path).write_text(json.dumps(doc) + "\n")


def load_fit(path):
    from .inference import FitResult

    p = Path(path)
    doc = read_json(p, "fit")
    try:
        return FitResult.from_json_dict(doc)
    except InputDataError as exc:
        raise InputDataError(f"{p}: {exc}") from exc


# ---------------------------------------------------------------------------
# heatmaps


def write_heatmap(field: np.ndarray, basepath) -> list[Path]:
    """Emit one field as CSV and min-max-scaled 8-bit PGM plus a sidecar.

    The sidecar JSON records the scaling so the PGM remains quantitative:
    value = min + pixel/255 * (max - min).
    """
    base = Path(basepath)
    base.parent.mkdir(parents=True, exist_ok=True)
    arr = np.asarray(field, dtype=float)
    lo = float(arr.min())
    hi = float(arr.max())
    scaled = np.zeros_like(arr) if hi == lo else (arr - lo) / (hi - lo)
    paths = [base.with_suffix(".csv"), base.with_suffix(".pgm"),
             base.with_suffix(".json")]
    write_csv_grid(paths[0], arr)
    write_pgm(paths[1], scaled)
    paths[2].write_text(json.dumps(
        {"min": lo, "max": hi, "shape": list(arr.shape),
         "encoding": "value = min + pixel/255*(max-min)"}) + "\n")
    return paths
