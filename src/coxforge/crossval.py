"""k-fold cross-validation over shoes with pairwise model comparison.

Shoes are partitioned into folds; each model is fit on the training
shoes of each fold and scored on the held-out shoes with the per-shoe
predictive metric. Besides the fold x model table, the harness emits the
pairwise comparison statistics (median loss ratio over pooled held-out
shoes, gain over fold averages) for every ordered model pair.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .design import ModelSpec
from .errors import ConfigError, CoxforgeError
from .grids import GridSpec, ShoeRecord
from .inference import FitResult, GridConfig, fit
from .metrics import compare, shoe_metric
from .model import PriorSpec
from .predict import predictive_q
from .util import parallel_map

log = logging.getLogger("coxforge.cv")

_SIDE_SUFFIX = re.compile(r"^(.*?)[_\-]?(?:[LlRr]|left|right|LEFT|RIGHT)$")


def pair_stem(shoe_id: str) -> str:
    """The left/right-agnostic part of a shoe id ("123_L" -> "123")."""
    m = _SIDE_SUFFIX.match(shoe_id)
    return m.group(1) if m and m.group(1) else shoe_id


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: dict[str, int]  # shoe_id -> fold index
    seed: int

    def __post_init__(self) -> None:
        got = sorted(set(self.assignments.values()))
        if got and (got[0] < 0 or got[-1] >= self.k):
            raise ConfigError(f"fold indices {got} out of range for k={self.k}")

    def fold_of(self, shoe_id: str) -> int:
        return self.assignments[shoe_id]

    def to_json_dict(self) -> dict:
        return {"k": self.k, "seed": self.seed, "assignments": dict(self.assignments)}


def make_folds(
    shoe_ids: Sequence[str], k: int, seed: int, pair_folds: bool = False
) -> FoldPlan:
    """Seeded shuffle, then round-robin assignment to k folds.

    Fold sizes differ by at most one. With ``pair_folds`` shoes sharing a
    left/right id stem travel together (sizes then differ by at most one
    group), preventing a pair from straddling the train/test split.
    """
    ids = list(shoe_ids)
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate shoe ids")
    if k < 2:
        raise ConfigError("need at least 2 folds")
    units: list[list[str]]
    if pair_folds:
        groups: dict[str, list[str]] = {}
        for sid in ids:
            groups.setdefault(pair_stem(sid), []).append(sid)
        units = [groups[stem] for stem in sorted(groups)]
    else:
        units = [[sid] for sid in ids]
    if k > len(units):
        raise ConfigError(f"k={k} exceeds the {len(units)} assignable units")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(units))
    assignments = {}
    for j, u in enumerate(order):
        for sid in units[u]:
            assignments[sid] = j % k
    return FoldPlan(k=k, assignments=assignments, seed=seed)


@dataclass
class CvResult:
    """Everything run_cv measured, ready for table/JSON emission."""

    plan: FoldPlan
    model_names: list[str]
    # (fold, model) -> mean metric over scored shoes; missing on failure
    fold_means: dict[tuple[int, str], float]
    fold_counts: dict[tuple[int, str], int]
    failures: dict[tuple[int, str], str]
    # model -> shoe_id -> metric (held-out only, zero-count shoes excluded)
    per_shoe: dict[str, dict[str, float]]
    n_accidentals: dict[str, int]
    excluded_zero_count: int
    pairwise: dict[str, dict]

    def model_fold_means(self, name: str) -> list[float]:
        return [
            self.fold_means[(f, name)]
            for f in range(self.plan.k)
            if (f, name) in self.fold_means
        ]

    def to_json_dict(self) -> dict:
        return {
            "plan": self.plan.to_json_dict(),
            "models": list(self.model_names),
            "fold_means": {
                f"{f}:{m}": v for (f, m), v in sorted(self.fold_means.items())
            },
            "failures": {f"{f}:{m}": v for (f, m), v in sorted(self.failures.items())},
            "excluded_zero_count": self.excluded_zero_count,
            "pairwise": self.pairwise,
        }


def score_shoes(res: FitResult, records: Sequence[ShoeRecord]) -> list[tuple[ShoeRecord, float]]:
    """Each shoe with accidentals and its held-out metric under the fit ``res``,
    on the fit's grid and spec and at its posterior marginal means.

    Zero-count shoes are skipped: their metric is undefined. A record off
    the fit's grid is a ConfigError naming the shoe.
    """
    g = res.grid
    for rec in records:
        if rec.contact.shape != (g.ny, g.nx):
            ny, nx = rec.contact.shape
            raise ConfigError(
                f"shoe {rec.shoe_id!r} is on a {nx}x{ny} grid, the fit on {g.nx}x{g.ny}")
    return [
        (rec, shoe_metric(rec.counts, predictive_q(res.marginal_mean, rec, res.spec), g))
        for rec in records
        if rec.counts.sum() > 0
    ]


def _score_cell(
    fold: int,
    spec: ModelSpec,
    train: list[ShoeRecord],
    test: list[ShoeRecord],
    grid: GridSpec,
    prior: PriorSpec | None,
    strategy: str,
    grid_config: GridConfig | None,
) -> tuple[int, str, dict[str, float], str | None]:
    try:
        res = fit(train, spec, grid, prior=prior, strategy=strategy, grid_config=grid_config)
    except CoxforgeError as exc:
        log.warning("fold %d, model %s: fit failed: %s", fold, spec.name, exc)
        return fold, spec.name, {}, str(exc)
    scores = {rec.shoe_id: m for rec, m in score_shoes(res, test)}
    return fold, spec.name, scores, None


def run_cv(
    records: Sequence[ShoeRecord],
    specs: Sequence[ModelSpec],
    plan: FoldPlan,
    grid: GridSpec,
    fit_strategy: str = "empirical_bayes",
    prior: PriorSpec | None = None,
    grid_config: GridConfig | None = None,
    threads: int = 1,
) -> CvResult:
    """Fit every (fold, model) cell and score held-out shoes.

    A failing fit is recorded for its cell and the remaining table is
    still produced. Cells run in parallel; aggregation is by cell index,
    so results do not depend on completion order or thread count. An
    empty model list is a ConfigError.
    """
    if not specs:
        raise ConfigError("the model list is empty: no model to cross-validate")
    recs = list(records)
    missing = [r.shoe_id for r in recs if r.shoe_id not in plan.assignments]
    if missing:
        raise ConfigError(f"{len(missing)} records missing from the fold plan: {missing[:3]}")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate model names in spec list")

    n_zero = sum(1 for r in recs if r.counts.sum() == 0)
    if n_zero:
        log.info("%d zero-count shoes will be excluded from metric tables", n_zero)

    cells = []
    for f in range(plan.k):
        train = [r for r in recs if plan.fold_of(r.shoe_id) != f]
        test = [r for r in recs if plan.fold_of(r.shoe_id) == f]
        for spec in specs:
            cells.append((f, spec, train, test))

    results = parallel_map(
        lambda c: _score_cell(*c, grid, prior, fit_strategy, grid_config),
        cells,
        threads,
    )

    fold_means: dict[tuple[int, str], float] = {}
    fold_counts: dict[tuple[int, str], int] = {}
    failures: dict[tuple[int, str], str] = {}
    per_shoe: dict[str, dict[str, float]] = {n: {} for n in names}
    for fold, name, scores, err in results:
        if err is not None:
            failures[(fold, name)] = err
            continue
        fold_counts[(fold, name)] = len(scores)
        if scores:
            fold_means[(fold, name)] = float(np.mean(list(scores.values())))
        per_shoe[name].update(scores)

    n_acc = {
        r.shoe_id: int(r.counts.sum()) for r in recs if r.counts.sum() > 0
    }

    pairwise: dict[str, dict] = {}
    for a in names:
        for b in names:
            if a == b:
                continue
            shared = sorted(set(per_shoe[a]) & set(per_shoe[b]))
            folds = [
                f for f in range(plan.k)
                if (f, a) in fold_means and (f, b) in fold_means
            ]
            if not shared or not folds:
                continue
            stats = compare(
                [per_shoe[a][s] for s in shared],
                [per_shoe[b][s] for s in shared],
                [fold_means[(f, a)] for f in folds],
                [fold_means[(f, b)] for f in folds],
            )
            pairwise[f"{a}_vs_{b}"] = stats.to_json_dict()

    return CvResult(
        plan=plan,
        model_names=names,
        fold_means=fold_means,
        fold_counts=fold_counts,
        failures=failures,
        per_shoe=per_shoe,
        n_accidentals=n_acc,
        excluded_zero_count=n_zero,
        pairwise=pairwise,
    )


def write_cv_outputs(result: CvResult, outdir) -> list[Path]:
    """Emit cv_table.csv, per_shoe.csv, and pairwise.json into ``outdir``."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    table = out / "cv_table.csv"
    with table.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["fold", "model", "mean_metric", "n_shoes", "error"])
        for name in result.model_names:
            for f in range(result.plan.k):
                if (f, name) in result.failures:
                    w.writerow([f, name, "", 0, result.failures[(f, name)]])
                elif (f, name) in result.fold_means:
                    w.writerow([
                        f, name,
                        f"{result.fold_means[(f, name)]:.10g}",
                        result.fold_counts[(f, name)], "",
                    ])
            means = result.model_fold_means(name)
            if means:
                w.writerow([
                    "avg", name, f"{float(np.mean(means)):.10g}",
                    sum(
                        result.fold_counts[(f, name)]
                        for f in range(result.plan.k)
                        if (f, name) in result.fold_counts
                    ),
                    "",
                ])
    shoes = out / "per_shoe.csv"
    with shoes.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["fold", "model", "shoe_id", "metric", "n_accidentals"])
        for name in result.model_names:
            for sid in sorted(result.per_shoe[name]):
                w.writerow([
                    result.plan.fold_of(sid), name, sid,
                    f"{result.per_shoe[name][sid]:.10g}",
                    result.n_accidentals[sid],
                ])
    pair = out / "pairwise.json"
    pair.write_text(json.dumps(result.pairwise, indent=2, sort_keys=True) + "\n")
    return [table, shoes, pair]
