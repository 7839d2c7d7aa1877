"""Command-line pipeline: scans and annotations in, fitted artifacts out.

Subcommands
    prep      images + accidentals CSV -> dataset JSON
    gradient  one image -> edge-magnitude heatmap
    simulate  synthetic dataset + ground truth
    fit       dataset -> posterior fit JSON (+ field heatmaps)
    predict   fit + dataset -> per-shoe q heatmaps
    evaluate  fit + dataset -> per-shoe metric table
    cv        dataset -> cross-validated model comparison tables

Verbosity is controlled by the COXFORGE_LOG environment variable
(DEBUG/INFO/WARNING/ERROR; default WARNING). Exit codes: 0 success,
1 I/O problems, 2 configuration problems, 3 numeric failures.

All randomness flows from --seed, which `simulate` and `cv` take:
`simulate` seeds its master generator with it directly and derives shoe
i's surface stream from (seed, i); `cv` uses it for the fold shuffle.
Fitting consumes no randomness, so `fit` has no --seed, and outputs are
reproducible given equal inputs, seeds, and flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import datasets as ds
from .crossval import make_folds, run_cv, score_shoes, write_cv_outputs
from .design import ModelSpec, builtin_specs, get_spec, index_to_string
from .errors import ConfigError, CoxforgeError, InputDataError, NumericError
from .grids import GridSpec, make_record
from .inference import STRATEGIES, FitResult, GridConfig, fit
from .model import PriorSpec
from .predict import predictive_q
from .simulate import SimConfig, gen_dataset

log = logging.getLogger("coxforge.cli")


def _setup_logging() -> None:
    level = os.environ.get("COXFORGE_LOG", "WARNING").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _parse_grid_dims(text: str) -> tuple[int, int]:
    try:
        nx, ny = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"--grid wants NXxNY (e.g. 12x16), got {text!r}")
    return nx, ny


def _read_config(path: str, what: str, parse):
    """``parse`` of the JSON object in a configuration file.

    A file that is missing or is not a JSON object is an input error
    (exit 1); an error in what it says keeps its kind. Every message
    names the file.
    """
    p = Path(path)
    doc = ds.read_json(p, what)
    try:
        return parse(doc)
    except (ConfigError, InputDataError) as exc:
        raise type(exc)(f"{p}: {exc}") from exc


def _load_grid(args) -> GridSpec:
    if getattr(args, "grid_file", None):
        return _read_config(args.grid_file, "grid", GridSpec.from_json_dict)
    return GridSpec()


def _load_model(args) -> ModelSpec:
    if getattr(args, "model_file", None):
        return _read_config(args.model_file, "model", ModelSpec.from_json_dict)
    return get_spec(args.model)


def _load_prior(args) -> PriorSpec | None:
    if getattr(args, "prior_file", None):
        return _read_config(args.prior_file, "prior", PriorSpec.from_json_dict)
    return None


def _threshold(text: str) -> float | None:
    if text == "otsu":
        return None
    if text.startswith("fixed:"):
        try:
            return float(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad threshold {text!r}")
    raise ConfigError(f"--threshold wants 'otsu' or 'fixed:C', got {text!r}")


# ---------------------------------------------------------------------------


def cmd_prep(args) -> int:
    grid = _load_grid(args)
    thr = _threshold(args.threshold)
    table = ds.read_accidentals(args.accidentals)
    imgdir = Path(args.images)
    records = []
    for sid, (side, points) in table.items():
        path = None
        for ext in (".pgm", ".csv"):
            cand = imgdir / f"{sid}{ext}"
            if cand.exists():
                path = cand
                break
        if path is None:
            raise InputDataError(f"no image found for shoe {sid!r} in {imgdir}")
        img = ds.read_image(path, side)
        try:
            rec, rejects = make_record(img, sid, points, grid, thr)
        except InputDataError as exc:
            raise InputDataError(f"{path}: {exc}") from exc
        records.append(rec)
        print(f"{sid}: cells={grid.n_cells} counts={int(rec.counts.sum())} "
              f"rejects={len(rejects)}")
    ds.save_dataset(records, grid, args.out)
    print(f"wrote {len(records)} shoes to {args.out}")
    return 0


def cmd_gradient(args) -> int:
    from .gradient import sobel_magnitude
    from .grids import coarsen, crop_reflect

    img = ds.read_image(args.image, args.side)
    if args.raw:
        field = sobel_magnitude(img.pixels)
    else:
        grid = _load_grid(args)
        field = sobel_magnitude(coarsen(crop_reflect(img, grid), grid))
    paths = ds.write_heatmap(field, args.out)
    print(f"wrote {', '.join(str(p) for p in paths)}")
    return 0


def cmd_simulate(args) -> int:
    nx, ny = _parse_grid_dims(args.grid)
    cfg = SimConfig(
        nx=nx, ny=ny, n_shoes=args.shoes, spec=_load_model(args),
        tau_s=args.tau_s, tau_sm=args.tau_sm, tau_v=args.tau_v,
        seed=args.seed, contact_kind=args.contact, intercept=args.intercept,
    )
    records, theta = gen_dataset(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ds.save_dataset(records, cfg.grid, outdir / "dataset.json")
    truth = {
        "theta": theta.tolist(),
        "psi": cfg.psi,
        "config": {
            "nx": nx, "ny": ny, "n_shoes": cfg.n_shoes, "model": cfg.spec.name,
            "seed": cfg.seed, "contact_kind": cfg.contact_kind,
            "intercept": cfg.intercept,
        },
    }
    (outdir / "truth.json").write_text(json.dumps(truth) + "\n")
    total = sum(int(r.counts.sum()) for r in records)
    print(f"simulated {cfg.n_shoes} shoes on {nx}x{ny}, {total} accidentals "
          f"-> {outdir / 'dataset.json'}")
    return 0


def _fit_heatmaps(res: FitResult, outdir) -> None:
    base = Path(outdir)
    if res.spec.smooth:
        ds.write_heatmap(res.heatmap("smooth"), base / "smooth")
    for idx in res.spec.varying:
        name = index_to_string(idx)
        ds.write_heatmap(res.heatmap(name), base / f"sv_{name}")


def _check_threads(args) -> None:
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")


def cmd_fit(args) -> int:
    _check_threads(args)
    records, grid = ds.load_dataset(args.dataset)
    spec = _load_model(args)
    prior = _load_prior(args)
    try:
        res = fit(
            records, spec, grid, prior=prior, strategy=args.strategy,
            grid_config=GridConfig(points=args.grid_points, spacing=args.grid_spacing),
            threads=args.threads,
        )
    except NumericError as exc:
        Path(args.out).write_text(json.dumps({
            "format": "coxforge-fit-error-v1",
            "error": str(exc),
            "model": spec.name,
            "n_shoes": len(records),
        }) + "\n")
        log.error("fit failed numerically: %s (partial diagnostics in %s)",
                  exc, args.out)
        raise
    ds.save_fit(res, args.out)
    if args.heatmaps:
        _fit_heatmaps(res, args.heatmaps)
    d = res.diagnostics
    print(f"fit {spec.name}: {d['psi_evaluations']} hyperparameter evaluations, "
          f"log posterior {d['log_psi_posterior_map']:.3f}, "
          f"{d['seconds']:.1f}s -> {args.out}")
    return 0


def _load_fit_and_dataset(args) -> tuple[FitResult, list, GridSpec]:
    """The fit and the dataset it is applied to, which must share one grid:
    on another crop window every metric would shift by the cell area."""
    res = ds.load_fit(args.fit)
    records, grid = ds.load_dataset(args.dataset)
    if res.grid != grid:
        def where(g):
            return f"a {g.nx}x{g.ny} grid over pixels x {list(g.crop_x)}, y {list(g.crop_y)}"
        raise ConfigError(f"{args.fit} was fitted on {where(res.grid)}, "
                          f"but {args.dataset} is on {where(grid)}")
    return res, records, grid


def cmd_predict(args) -> int:
    res, records, _ = _load_fit_and_dataset(args)
    if args.shoe:
        records = [r for r in records if r.shoe_id == args.shoe]
        if not records:
            raise InputDataError(f"shoe {args.shoe!r} not in dataset")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for rec in records:
        field = predictive_q(res, rec, res.spec)
        ds.write_heatmap(field.q_grid(), outdir / f"q_{rec.shoe_id}")
    print(f"wrote {len(records)} predictive fields to {outdir}")
    return 0


def cmd_evaluate(args) -> int:
    res, records, grid = _load_fit_and_dataset(args)
    rows = [(rec.shoe_id, m, int(rec.counts.sum()))
            for rec, m in score_shoes(res, records, grid)]
    excluded = len(records) - len(rows)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "metrics.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["shoe_id", "metric", "n_accidentals"])
        for sid, m, n in rows:
            w.writerow([sid, f"{m:.10g}", n])
    if excluded:
        log.info("excluded %d zero-count shoes", excluded)
    mean = float(np.mean([m for _, m, _ in rows])) if rows else float("nan")
    print(f"{len(rows)} shoes scored (excluded {excluded}), "
          f"mean metric {mean:.4f} -> {path}")
    return 0


def cmd_cv(args) -> int:
    _check_threads(args)
    records, grid = ds.load_dataset(args.dataset)
    specs = [get_spec(n.strip()) for n in args.models.split(",") if n.strip()]
    plan = make_folds(
        [r.shoe_id for r in records], args.folds, args.seed,
        pair_folds=args.pair_folds,
    )
    result = run_cv(
        records, specs, plan, fit_strategy=args.strategy, grid=grid,
        prior=_load_prior(args), threads=args.threads,
    )
    outdir = Path(args.out)
    paths = write_cv_outputs(result, outdir)
    (outdir / "plan.json").write_text(
        json.dumps(plan.to_json_dict(), sort_keys=True) + "\n"
    )
    for name in result.model_names:
        means = result.model_fold_means(name)
        if means:
            print(f"{name}: mean held-out metric {float(np.mean(means)):.4f} "
                  f"over {len(means)} folds")
    if result.failures:
        print(f"{len(result.failures)} (fold, model) fits failed; see cv_table.csv")
    print(f"wrote {', '.join(str(p) for p in paths)}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coxforge",
        description="Spatial accidental-distribution modeling for shoeprints.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seed=True, threads=False):
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master RNG seed")
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="worker threads (default: 1)")

    p = sub.add_parser("prep", help="build a dataset from images + accidentals")
    p.add_argument("--images", required=True, help="directory of PGM/CSV scans")
    p.add_argument("--accidentals", required=True,
                   help="CSV with header shoe_id,side,x,y")
    p.add_argument("--out", required=True, help="output dataset JSON")
    p.add_argument("--grid-file", help="GridSpec JSON (default: standard geometry)")
    p.add_argument("--threshold", default="otsu", help="otsu | fixed:C")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("gradient", help="edge-magnitude heatmap of one image")
    p.add_argument("--image", required=True)
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("--raw", action="store_true",
                   help="skip crop/coarsen, run directly on pixels")
    p.add_argument("--grid-file")
    p.add_argument("--out", required=True, help="output basename (writes .csv/.pgm/.json)")
    p.set_defaults(func=cmd_gradient)

    p = sub.add_parser("simulate", help="generate a synthetic dataset with truth")
    p.add_argument("--grid", default="12x16", help="NXxNY (default 12x16)")
    p.add_argument("--shoes", type=int, default=200)
    p.add_argument("--model", default="m_final")
    p.add_argument("--model-file")
    p.add_argument("--contact", default="blobs",
                   choices=("blobs", "stripes", "uniform_noise"))
    p.add_argument("--intercept", type=float, default=-2.5)
    p.add_argument("--tau-s", type=float, default=4.0)
    p.add_argument("--tau-sm", type=float, default=2.0)
    p.add_argument("--tau-v", type=float, default=4.0)
    p.add_argument("--out", required=True, help="output directory")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a model to a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", default="m_final",
                   help=f"one of: {', '.join(sorted(builtin_specs()))}")
    p.add_argument("--model-file", help="inline ModelSpec JSON instead of --model")
    p.add_argument("--prior-file", help="PriorSpec JSON overrides")
    p.add_argument("--strategy", default="empirical_bayes",
                   choices=STRATEGIES)
    p.add_argument("--grid-points", type=int, default=5)
    p.add_argument("--grid-spacing", type=float, default=0.75)
    p.add_argument("--out", required=True, help="output fit JSON")
    p.add_argument("--heatmaps", help="directory for field heatmaps")
    common(p, seed=False, threads=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="write predictive q heatmaps")
    p.add_argument("--fit", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--shoe", help="restrict to one shoe id")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="per-shoe metric table for one fit")
    p.add_argument("--fit", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cv", help="k-fold cross-validated model comparison")
    p.add_argument("--dataset", required=True)
    p.add_argument("--models", default="uniform,m_final",
                   help="comma-separated spec names")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--pair-folds", action="store_true",
                   help="keep left/right pairs in the same fold")
    p.add_argument("--strategy", default="empirical_bayes",
                   choices=STRATEGIES)
    p.add_argument("--prior-file")
    p.add_argument("--out", required=True, help="output directory")
    common(p, threads=True)
    p.set_defaults(func=cmd_cv)

    return ap


def main(argv=None) -> int:
    _setup_logging()
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InputDataError as exc:
        log.error("%s", exc)
        return 1
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    except NumericError as exc:
        log.error("%s", exc)
        return 3
    except CoxforgeError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:
        log.error("%s", exc)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
