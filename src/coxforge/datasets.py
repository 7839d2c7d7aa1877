"""File formats: images in, datasets and result artifacts out.

Grayscale images arrive as PGM (P2/P5) or CSV grids; processed shoes and
grid geometry travel together in one JSON dataset file; fitted results
round-trip through JSON; heatmaps leave as CSV plus 8-bit PGM with the
scaling recorded in a sidecar JSON. Timestamps live in a single metadata
field so that outputs are otherwise byte-reproducible.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputDataError
from .grids import GridSpec, RawImage, ShoeRecord, Side

log = logging.getLogger("coxforge.datasets")

DATASET_FORMAT = "coxforge-dataset-v1"


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
    else:
        data = np.array(raw[pos:].split(), dtype=float)
        if data.size != width * height:
            raise InputDataError(
                f"{path}: expected {width * height} samples, found {data.size}"
            )
    img = data.reshape(height, width).astype(float) / maxval
    return img


def write_pgm(path, values: np.ndarray, maxval: int = 255) -> None:
    """8-bit binary PGM of an array already scaled to [0, 1]."""
    v = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
    data = np.round(v * maxval).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode())
        fh.write(data.tobytes())


def read_csv_grid(path) -> np.ndarray:
    try:
        arr = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        raise InputDataError(f"{path}: malformed CSV grid: {exc}") from exc
    return arr


def write_csv_grid(path, values: np.ndarray, fmt: str = "%.10g") -> None:
    np.savetxt(path, np.asarray(values, dtype=float), delimiter=",", fmt=fmt)


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
    out: dict[str, tuple[Side, list[tuple[float, float]]]] = {}
    with p.open(newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"shoe_id", "side", "x", "y"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise InputDataError(
                f"{p}: header must contain shoe_id,side,x,y "
                f"(found {reader.fieldnames})"
            )
        for i, row in enumerate(reader, start=2):
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
# dataset JSON


def _grid_to_list(arr: np.ndarray) -> list:
    return [float(v) for v in np.asarray(arr).reshape(-1)]


def save_dataset(records: Sequence[ShoeRecord], grid: GridSpec, path) -> None:
    shoes = []
    for r in records:
        shoes.append({
            "shoe_id": r.shoe_id,
            "side": r.side,
            "threshold": float(r.threshold),
            "contact": _grid_to_list(r.contact),
            "contact_binary": [int(v) for v in r.contact_binary.reshape(-1)],
            "gradient": _grid_to_list(r.gradient),
            "counts": [int(v) for v in r.counts.reshape(-1)],
        })
    doc = {
        "format": DATASET_FORMAT,
        "metadata": {"created_utc": _utc_now()},
        "grid": grid.to_json_dict(),
        "shoes": shoes,
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def load_dataset(path) -> tuple[list[ShoeRecord], GridSpec]:
    p = Path(path)
    if not p.exists():
        raise InputDataError(f"dataset file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputDataError(f"{p}: not valid JSON: {exc}") from exc
    if doc.get("format") != DATASET_FORMAT:
        raise InputDataError(
            f"{p}: format tag {doc.get('format')!r}, expected {DATASET_FORMAT!r}"
        )
    try:
        grid = GridSpec.from_json_dict(doc["grid"])
        shoes = list(doc["shoes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"{p}: malformed dataset: {exc!r}") from exc
    shape = (grid.ny, grid.nx)
    records = []
    for i, s in enumerate(shoes):
        sid = s.get("shoe_id", f"#{i}") if isinstance(s, dict) else f"#{i}"
        try:
            cells = {
                key: np.array(s[key], dtype=float).reshape(shape)
                for key in ("contact", "contact_binary", "gradient", "counts")
            }
            rec = ShoeRecord(
                shoe_id=str(s["shoe_id"]),
                side=s["side"],
                threshold=float(s.get("threshold", float("nan"))),
                **cells,
            )
            # binary contact (0/1) and counts (whole, within int64) are
            # checked before the casts below can hide a bad value
            rec.validate(grid)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputDataError(f"{p}: shoe {sid}: malformed record: {exc!r}") from exc
        except InputDataError as exc:
            raise InputDataError(f"{p}: {exc}") from exc
        rec.contact_binary = rec.contact_binary.astype(np.uint8)
        rec.counts = rec.counts.astype(np.int64)
        records.append(rec)
    return records, grid


def save_fit(fit_result, path) -> None:
    doc = fit_result.to_json_dict()
    doc["metadata"] = {"created_utc": _utc_now()}
    Path(path).write_text(json.dumps(doc) + "\n")


def load_fit(path):
    from .inference import FitResult

    p = Path(path)
    if not p.exists():
        raise InputDataError(f"fit file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputDataError(f"{p}: not valid JSON: {exc}") from exc
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
