"""Tests of the benchmark itself: smoke runs, output checks, the tracer.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads as W  # noqa: E402
from coxforge import design, inference, metrics  # noqa: E402
from tracer import Binding, Tracer, installed  # noqa: E402

REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_every_workload(trace):
    proc = _bench("--workload", "all", "--smoke", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(ln) for ln in proc.stdout.splitlines()]
    results = [ln for ln in lines if set(ln) == {"correct", "attempted", "failed", "metrics"}]
    assert len(results) == len(W.make_workloads(smoke=True))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    for res in results:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stderr
        assert set(res["metrics"]) == wanted
    assert proc.stdout.splitlines()[-1] == json.dumps(results[-1])


def test_op_seconds_averages_the_fastest_share():
    from run import op_seconds

    assert op_seconds([5.0, 1.0, 3.0, 2.0, 4.0], 1.0) == 3.0
    assert op_seconds([float(t) for t in range(20, 0, -1)], 0.1) == 1.5
    assert op_seconds([7.0, 9.0], 0.1) == 7.0  # at least one operation


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    proc = _bench("--workload", "fit_m_final_6x8", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- output checks: pass on recorded outputs, fail on perturbed ones -------


def _fit_summary(name: str) -> dict:
    wl = W.make_workloads(smoke=True)[name]
    ref = REFERENCE[name]["smoke"]
    n_cells = wl.nx * wl.ny
    spec = design.get_spec(wl.spec)
    start = wl.n_shoes + len(spec.fixed)
    n_fields = int(spec.smooth) + len(spec.varying)
    return {
        "log_psi_posterior_map": ref["log_psi_posterior_map"],
        "marginal_mean": np.array(ref["marginal_mean"]),
        "marginal_sd": np.array(ref["marginal_sd"]),
        "blocks": [(start + j * n_cells, start + (j + 1) * n_cells) for j in range(n_fields)],
    }, ref


@pytest.mark.parametrize("name", ["fit_m_final_6x8", "fit_m_a_26x61"])
def test_fit_check(name):
    summary, ref = _fit_summary(name)
    assert W.check_fit(summary, ref).failed == 0

    shifted = dict(summary, marginal_mean=summary["marginal_mean"].copy())
    i = summary["blocks"][0][0]
    shifted["marginal_mean"][i] += 0.5 * summary["marginal_sd"][i]
    shifted["marginal_mean"][i + 1] -= 0.5 * summary["marginal_sd"][i]  # keeps the block sum
    assert W.check_fit(shifted, ref).failed == 1

    lower = dict(summary, log_psi_posterior_map=summary["log_psi_posterior_map"] - 0.01)
    assert W.check_fit(lower, ref).failed == 1

    unbalanced = dict(summary, marginal_mean=summary["marginal_mean"].copy())
    unbalanced["marginal_mean"][i] += 1e-4
    assert W.check_fit(unbalanced, None).failed == 1


def _cv_summary():
    ref = REFERENCE["cv_grid_8x10"]["smoke"]
    summary = {
        "models": list(W.CV_SPECS), "folds": W.CV_FOLDS, "failures": {},
        "fold_means": dict(ref["fold_means"]),
        "pairwise": json.loads(json.dumps(ref["pairwise"])),
    }
    return summary, ref


def test_cv_check():
    summary, ref = _cv_summary()
    assert W.check_cv(summary, ref).failed == 0

    moved = dict(summary, fold_means=dict(summary["fold_means"]))
    moved["fold_means"]["0:m_a"] += 0.01
    assert W.check_cv(moved, ref).failed == 1

    failed = dict(summary, failures={"2:m_a": "mode search did not converge"})
    assert W.check_cv(failed, ref).failed == 1

    pair = next(iter(summary["pairwise"]))
    stats = dict(summary["pairwise"][pair], fold_gain=summary["pairwise"][pair]["fold_gain"] + 1)
    assert W.check_cv(dict(summary, pairwise={**summary["pairwise"], pair: stats}), ref).failed == 1


@pytest.fixture(scope="module")
def ingest(tmp_path_factory):
    wl = W.IngestWorkload("ingest_score_39x91", 2)
    inputs = wl.setup(3, tmp_path_factory.mktemp("ingest"))
    out = wl.run(inputs)
    return wl, inputs, out, W.score_reference(out, inputs)


def test_ingest_check(ingest):
    wl, inputs, out, ref = ingest
    summary = W.ingest_summary(out)

    def failed(summary):
        return W.check_ingest(summary, inputs.expected_counts, ref).failed

    assert wl.check(out, ref, inputs) == W.Checked(wl.items(inputs), 0)

    key = next(iter(out.q))
    q = out.q[key]
    renormalized = q**2 / (q**2).sum()  # still a distribution, but the wrong one
    metric = metrics.shoe_metric(out.loaded[0].counts, renormalized, inputs.grid)
    assert failed(dict(summary, metrics={**summary["metrics"], key: metric})) == 1

    assert failed(dict(summary, q_sums={**summary["q_sums"], key: float((1.001 * q).sum())})) == 1

    sid = out.records[0].shoe_id
    dropped = {**summary["count_totals"], sid: summary["count_totals"][sid] - 1}
    assert failed(dict(summary, count_totals=dropped)) == 1


def test_in_window_count_is_half_open():
    grid = W.grids.GridSpec()
    x0, y0 = grid.crop_x[0], grid.crop_y[0]
    pts = [(x0, y0), (x0 + grid.src_w, y0), (x0, y0 + grid.src_h - 0.1), (x0 - 0.1, y0)]
    assert W.in_window(pts, grid) == 2
    counts, rejects = W.grids.bin_accidentals(pts, "left", grid)
    assert counts.sum() == 2 and len(rejects) == 2


# --- tracer ---------------------------------------------------------------


def test_tracer_restores_bindings_and_splits_self_time():
    original = inference.find_mode
    tracer = Tracer()
    with installed(tracer, [Binding("coxforge.inference", "find_mode", "inference.find_mode")]):
        assert inference.find_mode is not original
    assert inference.find_mode is original

    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    assert tracer.calls("inner", parent="outer") == 2
    assert tracer.self_seconds("outer") == pytest.approx(
        tracer.seconds("outer") - tracer.seconds("inner"))
