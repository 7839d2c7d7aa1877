"""Which package functions are traced, and the per-layer metrics built from them.

A layer is a module of ``coxforge``. Each binding names the module whose
global (or class attribute) the caller looks up, so a wrapper on
``coxforge.crossval.fit`` sees the fits that ``run_cv`` makes, and one on
``coxforge.design.build_tensor`` sees the calls ``ShoeModel`` and
``predictive_q`` make through the ``design`` module.
"""

from __future__ import annotations

from tracer import Binding, Tracer


def _count_fit(counters, res) -> None:
    counters["inference.psi_evaluations"] += int(res.diagnostics["psi_evaluations"])
    if res.strategy == "grid":
        counters["inference.grid_points"] += len(res.psi_grid.weights)


def _count_mode(counters, mode) -> None:
    counters["inference.newton_iters"] += int(mode.iterations)
    counters["inference.find_mode.unconverged"] += int(not mode.converged)


BINDINGS = (
    Binding("coxforge.simulate", "gen_dataset", "simulate.gen_dataset"),
    Binding("coxforge.simulate", "sobel_magnitude", "gradient.sobel_magnitude"),
    Binding("coxforge.design", "build_tensor", "design.build_tensor"),
    Binding("coxforge.model", "ShoeModel.__init__", "model.ShoeModel.init"),
    Binding("coxforge.model", "ShoeModel.lik_parts", "model.lik_parts"),
    Binding("coxforge.model", "ShoeModel.loglik", "model.loglik"),
    Binding("coxforge.model", "log_gen_det", "gmrf.log_gen_det"),
    Binding("coxforge.inference", "fit", "inference.fit", _count_fit),
    Binding("coxforge.inference", "find_mode", "inference.find_mode", _count_mode),
    Binding("coxforge.inference", "empirical_bayes", "inference.empirical_bayes"),
    Binding("coxforge.inference", "grid_posterior", "inference.grid_posterior"),
    Binding("coxforge.inference", "marginal_sd", "inference.marginal_sd"),
    Binding("coxforge.crossval", "run_cv", "crossval.run_cv"),
    Binding("coxforge.crossval", "fit", "inference.fit", _count_fit),
    Binding("coxforge.crossval", "predictive_q", "predict.predictive_q"),
    Binding("coxforge.crossval", "shoe_metric", "metrics.shoe_metric"),
    Binding("coxforge.predict", "predictive_q", "predict.predictive_q"),
    Binding("coxforge.metrics", "shoe_metric", "metrics.shoe_metric"),
    Binding("coxforge.grids", "make_record", "grids.make_record"),
    Binding("coxforge.grids", "coarsen", "grids.coarsen"),
    Binding("coxforge.grids", "bin_accidentals", "grids.bin_accidentals"),
    Binding("coxforge.gradient", "sobel_magnitude", "gradient.sobel_magnitude"),
    Binding("coxforge.datasets", "read_image", "datasets.read_image"),
    Binding("coxforge.datasets", "save_dataset", "datasets.save_dataset"),
    Binding("coxforge.datasets", "load_dataset", "datasets.load_dataset"),
)

#: Per-layer metrics that count work; two traced passes must agree on them.
COUNTS = (
    "design.build_tensor.calls",
    "model.lik_parts.calls",
    "model.loglik.calls",
    "inference.find_mode.calls",
    "inference.newton_iters",
    "inference.find_mode.unconverged",
    "inference.grid_posterior.calls",
    "inference.marginal_sd.calls",
    "crossval.cells",
    "crossval.cells_failed",
    "predict.predictive_q.calls",
    "metrics.shoe_metric.calls",
)

_INCLUSIVE = (
    "design.build_tensor", "model.ShoeModel.init", "gmrf.log_gen_det",
    "model.lik_parts", "model.loglik", "inference.fit", "inference.find_mode",
    "inference.empirical_bayes", "inference.grid_posterior", "inference.marginal_sd",
    "crossval.run_cv", "predict.predictive_q", "metrics.shoe_metric",
    "grids.make_record", "grids.coarsen", "grids.bin_accidentals",
    "gradient.sobel_magnitude", "datasets.read_image", "datasets.save_dataset",
    "datasets.load_dataset", "simulate.gen_dataset",
)


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    out = {}
    for name in _INCLUSIVE:
        out[f"{name}.s"] = (t.seconds(name), "s")
    for name in ("design.build_tensor", "model.lik_parts", "model.loglik",
                 "inference.find_mode", "inference.grid_posterior",
                 "inference.marginal_sd", "predict.predictive_q", "metrics.shoe_metric"):
        out[f"{name}.calls"] = (t.calls(name), "count")
    out["inference.find_mode.self_s"] = (t.self_seconds("inference.find_mode"), "s")
    iters = t.counters["inference.newton_iters"]
    modes = t.calls("inference.find_mode")
    unconverged = t.counters["inference.find_mode.unconverged"]
    out["inference.newton_iters"] = (iters, "count")
    out["inference.find_mode.unconverged"] = (unconverged, "count")
    out["inference.mode_converged_ratio"] = ((modes - unconverged) / modes if modes else 0.0, "ratio")
    out["inference.loglik_per_newton_iter"] = (
        t.calls("model.loglik") / iters if iters else 0.0, "ratio")
    cv = "crossval.run_cv"
    out["crossval.cells"] = (t.calls("inference.fit", cv), "count")
    out["crossval.cells_failed"] = (t.raised("inference.fit", cv), "count")
    out["crossval.cell_fit_s"] = (t.seconds("inference.fit", cv), "s")
    out["crossval.cell_score_s"] = (
        t.seconds("predict.predictive_q", cv) + t.seconds("metrics.shoe_metric", cv), "s")
    return out


def self_check(wl, tracers, per_layer, digests) -> list[str]:
    """Problems with the trace itself; an empty list means it can be trusted.

    The traced outputs must equal the untraced ones byte for byte, counts
    must repeat exactly between two traced passes, and the counts must
    agree with what the results themselves report.
    """
    problems = []
    if None in digests or len(set(digests)) != 1:
        problems.append("traced and untraced outputs differ")
    for name in COUNTS:
        a, b = per_layer[0][name][0], per_layer[1][name][0]
        if a != b:
            problems.append(f"{name} differs between traced passes: {a} vs {b}")
    t = tracers[-1]
    expected_modes = t.counters["inference.psi_evaluations"] + t.counters["inference.grid_points"]
    if t.calls("inference.find_mode") != expected_modes:
        problems.append(
            f"find_mode traced {t.calls('inference.find_mode')} times, results report "
            f"{expected_modes} psi evaluations plus grid points"
        )
    want = getattr(wl, "expected_marginal_sd_calls", None)
    if want is not None and t.calls("inference.marginal_sd") != want:
        problems.append(f"marginal_sd traced {t.calls('inference.marginal_sd')} times, expected {want}")
    return problems
