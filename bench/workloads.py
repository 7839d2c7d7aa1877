"""The benchmark's workloads: inputs from a seed, one timed operation, checks.

Every workload drives the public ``coxforge`` API through module
attributes (``inference.fit``, not a name imported from it), so the
tracer in :mod:`tracer` sees every call the workload makes.

Each workload has a full size, at which one operation takes a few seconds
on a 2-vCPU machine so that a run holds several, and a smoke size that
runs in about a second for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from coxforge import (
    crossval, datasets, design, grids, inference, metrics, model, predict, simulate,
)

# A fit may find a better optimum than the recorded one, never a worse one.
LP_TOL = 1e-3            # nats of log p(psi | y)
MEAN_TOL_SD = 0.1        # marginal means, in recorded posterior sds
BLOCK_SUM_TOL = 1e-8     # |sum| of a constrained block, relative to its scale
FOLD_MEAN_TOL = 1e-3     # CV fold means, nats per accidental
PAIRWISE_TOL = 1e-2      # CV pairwise statistics (percent units)
Q_SUM_TOL = 1e-12
METRIC_TOL = 1e-9


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str(p.dtype).encode() + str(p.shape).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(json.dumps(p, sort_keys=True).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class Checked:
    """Outcome of checking one operation's outputs.

    ``items`` counts the operations it covers (one fit, one CV run, or one
    scan prepped plus one shoe scored per model); ``failed`` those with a
    problem.
    """

    items: int
    failed: int
    problems: tuple[str, ...] = ()


def _checked(items: int, problems_by_item: dict[str, list[str]]) -> Checked:
    bad = {k: v for k, v in problems_by_item.items() if v}
    return Checked(items, len(bad), tuple(f"{k}: {p}" for k, v in bad.items() for p in v))


@dataclass(frozen=True)
class SimInputs:
    records: list
    grid: grids.GridSpec


class _Simulated:
    """Fit and CV workloads: one fixed simulated dataset, named by the seed.

    The cost of a fit depends strongly on its data: the hyperparameter
    search takes a data-dependent path, and inner Newton solves that stall
    at floating-point resolution run on to their iteration limit. Between
    datasets simulated from different seeds, and even between orderings
    of one dataset's shoes, a fit's time and memory vary by more than any
    bound a regression check could use. So every seed fits the same data
    (``SimConfig`` seed 0); the run's seed only names the shoes. Every
    operation is then checked against ``reference.json``, recorded from
    this commit.
    """

    uses_reference = True
    fastest_share = 1.0    # op_s is the mean of every operation in the run

    def setup(self, seed: int, workdir: Path) -> SimInputs:
        cfg = self.sim_config()
        records, _ = simulate.gen_dataset(cfg)
        named = [replace(r, shoe_id=f"s{seed}-{i:04d}") for i, r in enumerate(records)]
        return SimInputs(named, cfg.grid)

    def items(self, inputs: SimInputs) -> int:
        return 1

    def check(self, out, ref: dict | None, inputs: SimInputs) -> Checked:
        return self.check_summary(self.summary(out), ref)

    def warm_up(self, inputs: SimInputs, stored: dict | None):
        """Nothing to run: the recorded outputs are the reference for every operation."""
        return Checked(0, 0), stored


# ---------------------------------------------------------------------------
# fit workloads


def fit_summary(res: inference.FitResult) -> dict:
    lay = res.layout
    blocks = []
    if lay.smooth:
        blocks.append((lay.smooth_block.start, lay.smooth_block.stop))
    for j in range(lay.n_varying):
        b = lay.varying_block(j)
        blocks.append((b.start, b.stop))
    return {
        "log_psi_posterior_map": float(res.diagnostics["log_psi_posterior_map"]),
        "marginal_mean": np.asarray(res.marginal_mean, dtype=float),
        "marginal_sd": np.asarray(res.marginal_sd, dtype=float),
        "blocks": blocks,
    }


def check_fit(summary: dict, ref: dict | None) -> Checked:
    """Invariants of any fit, plus agreement with a recorded fit when given."""
    p = []
    lp = summary["log_psi_posterior_map"]
    mean, sd = summary["marginal_mean"], summary["marginal_sd"]
    if not math.isfinite(lp):
        p.append(f"MAP log posterior is {lp}")
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(sd)) and np.all(sd > 0)):
        p.append("non-finite marginal mean or non-positive sd")
    for start, stop in summary["blocks"]:
        blk = mean[start:stop]
        scale = max(1.0, float(np.abs(blk).sum()))
        if abs(float(blk.sum())) > BLOCK_SUM_TOL * scale:
            p.append(f"block {start}:{stop} sums to {float(blk.sum()):.3e}")
    if ref is not None:
        if lp < ref["log_psi_posterior_map"] - LP_TOL:
            p.append(
                f"MAP log posterior {lp:.6f} below the reference "
                f"{ref['log_psi_posterior_map']:.6f}"
            )
        ref_mean = np.asarray(ref["marginal_mean"])
        if ref_mean.shape != mean.shape:
            p.append(f"{mean.size} marginal means, reference has {ref_mean.size}")
        else:
            dev = float(np.max(np.abs(mean - ref_mean) / np.asarray(ref["marginal_sd"])))
            if dev > MEAN_TOL_SD:
                p.append(f"marginal means differ from the reference by {dev:.3g} sd")
    return _checked(1, {"fit": p})


@dataclass(frozen=True)
class FitWorkload(_Simulated):
    name: str
    spec: str
    nx: int
    ny: int
    n_shoes: int
    setup_repeats: int = 15

    def sim_config(self) -> simulate.SimConfig:
        return simulate.SimConfig(
            nx=self.nx, ny=self.ny, n_shoes=self.n_shoes, spec=design.get_spec(self.spec), seed=0,
        )

    def run(self, inputs: SimInputs) -> inference.FitResult:
        return inference.fit(inputs.records, design.get_spec(self.spec), inputs.grid)

    def summary(self, out) -> dict:
        return fit_summary(out)

    def check_summary(self, summary: dict, ref) -> Checked:
        return check_fit(summary, ref)

    def digest(self, out) -> str:
        doc = out.to_json_dict()
        doc["diagnostics"] = {k: v for k, v in doc["diagnostics"].items() if k != "seconds"}
        return _digest(doc)

    def record(self, out) -> dict:
        summary = self.summary(out)
        return {
            "log_psi_posterior_map": summary["log_psi_posterior_map"],
            "marginal_mean": [float(f"{v:.10g}") for v in summary["marginal_mean"]],
            "marginal_sd": [float(f"{v:.10g}") for v in summary["marginal_sd"]],
        }


# ---------------------------------------------------------------------------
# cross-validation workload


CV_FOLDS = 5
CV_SPECS = ("uniform", "m_a")


def cv_summary(res) -> dict:
    return {
        "models": list(res.model_names),
        "folds": res.plan.k,
        "failures": {f"{f}:{m}": v for (f, m), v in res.failures.items()},
        "fold_means": {f"{f}:{m}": v for (f, m), v in res.fold_means.items()},
        "pairwise": res.pairwise,
    }


def check_cv(summary: dict, ref: dict | None) -> Checked:
    p = [f"cell {k} failed: {v}" for k, v in summary["failures"].items()]
    means = summary["fold_means"]
    for f in range(summary["folds"]):
        for m in summary["models"]:
            v = means.get(f"{f}:{m}")
            if v is None or not math.isfinite(v):
                p.append(f"fold {f}, model {m}: mean metric {v}")
    if ref is not None:
        if set(means) != set(ref["fold_means"]):
            p.append("fold-mean cells differ from the reference")
        for k in set(means) & set(ref["fold_means"]):
            if abs(means[k] - ref["fold_means"][k]) > FOLD_MEAN_TOL:
                p.append(f"fold mean {k}: {means[k]:.6f} vs reference {ref['fold_means'][k]:.6f}")
        if set(summary["pairwise"]) != set(ref["pairwise"]):
            p.append("pairwise comparisons differ from the reference")
        for pair in set(summary["pairwise"]) & set(ref["pairwise"]):
            got, want = summary["pairwise"][pair], ref["pairwise"][pair]
            for stat, w in want.items():
                g = got.get(stat)
                if (g is None) != (w is None) or (w is not None and abs(g - w) > PAIRWISE_TOL):
                    p.append(f"{pair} {stat}: {g} vs reference {w}")
    return _checked(1, {"cv": p})


@dataclass(frozen=True)
class CvWorkload(_Simulated):
    name: str
    nx: int
    ny: int
    n_shoes: int
    setup_repeats: int = 15

    @property
    def expected_marginal_sd_calls(self) -> int:
        """Grid strategy: one marginal_sd per lattice point, ``points ** n_free``
        per model and fold."""
        n_free = {"uniform": 1, "m_a": 2}
        points = inference.GridConfig().points
        return CV_FOLDS * sum(points ** n_free[s] for s in CV_SPECS)

    def sim_config(self) -> simulate.SimConfig:
        return simulate.SimConfig(
            nx=self.nx, ny=self.ny, n_shoes=self.n_shoes, spec=design.get_spec("m_a"), seed=0,
        )

    def run(self, inputs: SimInputs):
        # folds follow record positions, so the shoe names do not change them
        plan = crossval.make_folds([r.shoe_id for r in inputs.records], CV_FOLDS, seed=0)
        return crossval.run_cv(
            inputs.records, [design.get_spec(s) for s in CV_SPECS], plan,
            fit_strategy="grid", grid=inputs.grid, threads=1,
        )

    def summary(self, out) -> dict:
        return cv_summary(out)

    def check_summary(self, summary: dict, ref) -> Checked:
        return check_cv(summary, ref)

    def digest(self, out) -> str:
        return _digest(out.to_json_dict(), out.per_shoe)

    def record(self, out) -> dict:
        summary = self.summary(out)
        return {"fold_means": summary["fold_means"], "pairwise": summary["pairwise"]}


# ---------------------------------------------------------------------------
# ingest-and-score workload

SCAN_SIZE = 869
SCORE_SPECS = ("m_final", "m_b")


@dataclass(frozen=True)
class IngestInputs:
    grid: grids.GridSpec
    scan_dir: Path
    accidentals: Path
    dataset: Path
    expected_counts: dict      # shoe_id -> in-window points, counted independently
    thetas: dict               # spec name -> latent vector drawn from the prior


@dataclass
class IngestOutput:
    records: list
    loaded: list
    q: dict                    # (shoe_id, spec) -> q
    metric: dict               # (shoe_id, spec) -> shoe_metric
    prep_s: float
    score_s: float
    bytes_read: int
    bytes_written: int


def _write_pgm(path: Path, brightness: np.ndarray) -> None:
    data = np.round(np.clip(brightness, 0.0, 1.0) * 255).astype(np.uint8)
    h, w = data.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode() + data.tobytes())


def _scan_contact(rng: np.random.Generator, grid: grids.GridSpec) -> np.ndarray:
    """Contact in [0, 0.9]: separable Gaussian bumps inside the crop window."""
    yy = np.arange(SCAN_SIZE, dtype=float)[:, None]
    xx = np.arange(SCAN_SIZE, dtype=float)[None, :]
    img = np.zeros((SCAN_SIZE, SCAN_SIZE))
    for _ in range(int(rng.integers(4, 9))):
        cy = rng.uniform(*grid.crop_y)
        cx = rng.uniform(*grid.crop_x)
        sy = rng.uniform(0.05, 0.2) * grid.src_h
        sx = rng.uniform(0.1, 0.3) * grid.src_w
        img += rng.uniform(0.5, 1.0) * (
            np.exp(-((yy - cy) ** 2) / (2 * sy * sy)) * np.exp(-((xx - cx) ** 2) / (2 * sx * sx))
        )
    return 0.9 * img / img.max()


def _points(rng: np.random.Generator, grid: grids.GridSpec) -> list[tuple[float, float]]:
    """Accidental marks, mostly inside the crop window; the first always is."""
    n = int(rng.integers(20, 60))
    inside = rng.random(n) < 0.8
    inside[0] = True
    xs = np.where(inside, rng.uniform(grid.crop_x[0], grid.crop_x[1], n), rng.uniform(0, SCAN_SIZE, n))
    ys = np.where(inside, rng.uniform(grid.crop_y[0], grid.crop_y[1], n), rng.uniform(0, SCAN_SIZE, n))
    return [(round(float(x), 1), round(float(y), 1)) for x, y in zip(xs, ys)]


def in_window(points, grid: grids.GridSpec) -> int:
    x0, y0 = grid.crop_x[0], grid.crop_y[0]
    return sum(
        1 for x, y in points if x0 <= x < x0 + grid.src_w and y0 <= y < y0 + grid.src_h
    )


def score_reference(out: IngestOutput, inputs: IngestInputs) -> dict:
    """Metrics computed another way: softmax of ShoeModel.eta rows.

    The shoe effect is constant across a shoe's cells, so it cancels in
    the softmax and the full predictor gives the predictive distribution.
    """
    grid = inputs.grid
    ref = {}
    for name in SCORE_SPECS:
        sm = model.ShoeModel(out.loaded, design.get_spec(name), grid)
        eta = sm.eta(inputs.thetas[name])
        top = eta.max(axis=1, keepdims=True)
        log_q = eta - top - np.log(np.exp(eta - top).sum(axis=1, keepdims=True))
        for s, rec in enumerate(out.loaded):
            y = rec.counts.reshape(-1).astype(float)
            ref[(rec.shoe_id, name)] = float(y @ log_q[s] / y.sum() - np.log(grid.cell_area))
    return ref


def ingest_summary(out: IngestOutput) -> dict:
    return {
        "count_totals": {r.shoe_id: int(r.counts.sum()) for r in out.records},
        "roundtrip_equal": {
            a.shoe_id: a.shoe_id == b.shoe_id and a.side == b.side
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("contact", "contact_binary", "gradient", "counts"))
            for a, b in zip(out.records, out.loaded)
        } if len(out.records) == len(out.loaded) else {},
        "q_sums": {k: float(q.sum()) for k, q in out.q.items()},
        "metrics": dict(out.metric),
    }


def check_ingest(summary: dict, expected_counts: dict, ref: dict | None) -> Checked:
    """One item per scan prepped and one per (shoe, model) scored."""
    problems: dict[str, list[str]] = {}
    for sid, want in expected_counts.items():
        p = problems.setdefault(f"scan {sid}", [])
        got = summary["count_totals"].get(sid)
        if got != want:
            p.append(f"{got} binned accidentals, {want} points inside the window")
        if not summary["roundtrip_equal"].get(sid, False):
            p.append("dataset JSON round trip changed the record")
    for sid in expected_counts:
        for name in SCORE_SPECS:
            key = (sid, name)
            p = problems.setdefault(f"score {sid}/{name}", [])
            s = summary["q_sums"].get(key)
            if s is None or abs(s - 1.0) > Q_SUM_TOL:
                p.append(f"q sums to {s}")
            m = summary["metrics"].get(key)
            if m is None or not math.isfinite(m):
                p.append(f"metric {m}")
            elif ref is not None and abs(m - ref[key]) > METRIC_TOL:
                p.append(f"metric {m:.12f} vs softmax reference {ref[key]:.12f}")
    return _checked(len(problems), problems)


@dataclass(frozen=True)
class IngestWorkload:
    name: str
    n_scans: int
    setup_repeats: int = 3
    uses_reference = False
    # a run holds about 50 operations: op_s is the mean of the fastest tenth
    fastest_share = 0.1

    def setup(self, seed: int, workdir: Path) -> IngestInputs:
        rng = np.random.default_rng(seed)
        grid = grids.GridSpec()
        scan_dir = workdir / "scans"
        scan_dir.mkdir(parents=True, exist_ok=True)
        rows, expected = [], {}
        for i in range(self.n_scans):
            sid = f"shoe{i:03d}"
            side = "left" if i % 2 == 0 else "right"
            _write_pgm(scan_dir / f"{sid}.pgm", 1.0 - _scan_contact(rng, grid))
            pts = _points(rng, grid)
            expected[sid] = in_window(pts, grid)
            rows += [f"{sid},{side},{x!r},{y!r}" for x, y in pts]
        accidentals = workdir / "accidentals.csv"
        accidentals.write_text("shoe_id,side,x,y\n" + "\n".join(rows) + "\n")
        thetas = {
            name: simulate.true_theta(
                simulate.SimConfig(
                    nx=grid.nx, ny=grid.ny, n_shoes=self.n_scans,
                    spec=design.get_spec(name), seed=seed,
                ),
                rng,
            )
            for name in SCORE_SPECS
        }
        return IngestInputs(grid, scan_dir, accidentals, workdir / "dataset.json", expected, thetas)

    def run(self, inputs: IngestInputs) -> IngestOutput:
        t0 = perf_counter()
        table = datasets.read_accidentals(inputs.accidentals)
        records = []
        bytes_read = inputs.accidentals.stat().st_size
        for sid, (side, points) in table.items():
            path = inputs.scan_dir / f"{sid}.pgm"
            bytes_read += path.stat().st_size
            rec, _ = grids.make_record(datasets.read_image(path, side), sid, points, inputs.grid)
            records.append(rec)
        datasets.save_dataset(records, inputs.grid, inputs.dataset)
        loaded, grid = datasets.load_dataset(inputs.dataset)
        size = inputs.dataset.stat().st_size
        t1 = perf_counter()
        q, metric = {}, {}
        for rec in loaded:
            for name in SCORE_SPECS:
                field = predict.predictive_q(inputs.thetas[name], rec, design.get_spec(name))
                q[(rec.shoe_id, name)] = field.q
                metric[(rec.shoe_id, name)] = metrics.shoe_metric(rec.counts, field, grid)
        t2 = perf_counter()
        return IngestOutput(records, loaded, q, metric, t1 - t0, t2 - t1, bytes_read + size, size)

    def items(self, inputs: IngestInputs) -> int:
        return len(inputs.expected_counts) * (1 + len(SCORE_SPECS))

    def warm_up(self, inputs: IngestInputs, stored):
        """Prep and score once untimed; the metrics it gives are checked
        against the softmax reference, which later operations then reuse."""
        out = self.run(inputs)
        ref = score_reference(out, inputs)
        return self.check(out, ref, inputs), ref

    def check(self, out: IngestOutput, ref, inputs: IngestInputs) -> Checked:
        return check_ingest(ingest_summary(out), inputs.expected_counts, ref)

    def digest(self, out) -> str:
        arrays = [
            getattr(r, f) for r in out.loaded
            for f in ("contact", "contact_binary", "gradient", "counts")
        ]
        return _digest(*arrays, *(out.q[k] for k in sorted(out.q)),
                       [[list(k), v] for k, v in sorted(out.metric.items())])


def make_workloads(smoke: bool = False) -> dict:
    """The benchmark's workloads by name, at full or smoke size."""
    if smoke:
        wls = [
            FitWorkload("fit_m_final_6x8", "m_final", 2, 3, 4, setup_repeats=2),
            FitWorkload("fit_m_a_26x61", "m_a", 6, 14, 6, setup_repeats=2),
            CvWorkload("cv_grid_8x10", 3, 4, 12, setup_repeats=2),
            IngestWorkload("ingest_score_39x91", 3, setup_repeats=2),
        ]
    else:
        wls = [
            FitWorkload("fit_m_final_6x8", "m_final", 6, 8, 20),
            FitWorkload("fit_m_a_26x61", "m_a", 26, 61, 20),
            CvWorkload("cv_grid_8x10", 8, 10, 40),
            IngestWorkload("ingest_score_39x91", 24),
        ]
    return {w.name: w for w in wls}
