"""End-to-end checks of the command-line pipeline.

Everything runs in-process through cli.main() so exit codes and outputs
can be asserted directly; the heavy lifting happens on tiny synthetic
grids to keep the suite quick.
"""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxforge import datasets as ds
from coxforge.cli import main
from coxforge.grids import GridSpec
from coxforge.metrics import uniform_metric


def _strip_metadata(doc):
    doc = dict(doc)
    doc.pop("metadata", None)
    return doc


@pytest.fixture(scope="module")
def simdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main([
        "simulate", "--grid", "5x6", "--shoes", "8", "--model", "m_a",
        "--intercept", "-0.7", "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fitfile(simdir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit") / "fit.json"
    code = main([
        "fit", "--dataset", str(simdir / "dataset.json"), "--model", "m_a",
        "--out", str(out), "--threads", "1",
    ])
    assert code == 0
    return out


class TestSimulate:
    def test_outputs(self, simdir):
        records, grid = ds.load_dataset(simdir / "dataset.json")
        assert len(records) == 8
        assert (grid.nx, grid.ny) == (5, 6)
        truth = json.loads((simdir / "truth.json").read_text())
        assert truth["config"]["seed"] == 11
        assert len(truth["theta"]) > 0
        assert "psi" in truth

    def test_seed_reproducible(self, simdir, tmp_path):
        code = main([
            "simulate", "--grid", "5x6", "--shoes", "8", "--model", "m_a",
            "--intercept", "-0.7", "--seed", "11", "--out", str(tmp_path),
        ])
        assert code == 0
        a = _strip_metadata(json.loads((simdir / "dataset.json").read_text()))
        b = _strip_metadata(json.loads((tmp_path / "dataset.json").read_text()))
        assert a == b

    def test_bad_grid_string_is_config_error(self, tmp_path):
        assert main(["simulate", "--grid", "5by6",
                     "--out", str(tmp_path)]) == 2


class TestFit:
    def test_fit_round_trips(self, fitfile):
        res = ds.load_fit(fitfile)
        assert res.spec.name == "m_a"
        assert res.diagnostics["psi_evaluations"] > 0

    def test_refit_identical_modulo_timestamp(self, simdir, fitfile, tmp_path):
        out = tmp_path / "fit2.json"
        code = main([
            "fit", "--dataset", str(simdir / "dataset.json"), "--model",
            "m_a", "--out", str(out), "--threads", "1",
        ])
        assert code == 0
        a = json.loads(fitfile.read_text())
        b = json.loads(out.read_text())
        a["diagnostics"].pop("seconds")
        b["diagnostics"].pop("seconds")
        assert _strip_metadata(a) == _strip_metadata(b)

    def test_thread_count_does_not_change_result(self, simdir, fitfile,
                                                 tmp_path):
        out = tmp_path / "fit_t2.json"
        code = main([
            "fit", "--dataset", str(simdir / "dataset.json"), "--model",
            "m_a", "--out", str(out), "--threads", "2",
        ])
        assert code == 0
        a = json.loads(fitfile.read_text())
        b = json.loads(out.read_text())
        a["diagnostics"].pop("seconds")
        b["diagnostics"].pop("seconds")
        assert _strip_metadata(a) == _strip_metadata(b)

    def test_heatmaps_written(self, simdir, tmp_path):
        out = tmp_path / "fit.json"
        hm = tmp_path / "maps"
        code = main([
            "fit", "--dataset", str(simdir / "dataset.json"), "--model",
            "m_a", "--out", str(out), "--threads", "1",
            "--heatmaps", str(hm),
        ])
        assert code == 0
        # m_a has a smooth field and no varying coefficients
        assert (hm / "smooth.csv").exists()
        assert (hm / "smooth.pgm").exists()
        sidecar = json.loads((hm / "smooth.json").read_text())
        assert sidecar["shape"] == [6, 5]

    def test_missing_dataset_exits_1(self, tmp_path):
        assert main(["fit", "--dataset", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "f.json")]) == 1

    def test_unknown_model_exits_2(self, simdir, tmp_path):
        assert main(["fit", "--dataset", str(simdir / "dataset.json"),
                     "--model", "m_bogus",
                     "--out", str(tmp_path / "f.json")]) == 2

    def test_numeric_failure_exits_3_with_error_artifact(self, simdir,
                                                         tmp_path):
        out = tmp_path / "f.json"
        # one Newton iteration cannot reach tol on this data, so every
        # hyperparameter candidate fails and the search has nothing to use
        code = main([
            "fit", "--dataset", str(simdir / "dataset.json"), "--model",
            "m_a", "--out", str(out), "--threads", "1", "--max-iter", "1",
        ])
        assert code == 3
        doc = json.loads(out.read_text())
        assert doc["format"] == "coxforge-fit-error-v1"
        assert doc["model"] == "m_a"


class TestPredictEvaluate:
    def test_predict_writes_normalized_fields(self, simdir, fitfile,
                                              tmp_path):
        code = main([
            "predict", "--fit", str(fitfile), "--dataset",
            str(simdir / "dataset.json"), "--out", str(tmp_path),
        ])
        assert code == 0
        files = sorted(tmp_path.glob("q_*.csv"))
        assert len(files) == 8
        q = np.loadtxt(files[0], delimiter=",")
        assert q.shape == (6, 5)
        assert q.sum() == pytest.approx(1.0, abs=1e-9)
        assert (q > 0).all()

    def test_predict_single_shoe(self, simdir, fitfile, tmp_path):
        code = main([
            "predict", "--fit", str(fitfile), "--dataset",
            str(simdir / "dataset.json"), "--shoe", "sim0003",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert [p.name for p in sorted(tmp_path.glob("*.csv"))] == \
            ["q_sim0003.csv"]

    def test_predict_unknown_shoe_exits_1(self, simdir, fitfile, tmp_path):
        assert main([
            "predict", "--fit", str(fitfile), "--dataset",
            str(simdir / "dataset.json"), "--shoe", "ghost",
            "--out", str(tmp_path),
        ]) == 1

    def test_evaluate_table(self, simdir, fitfile, tmp_path):
        code = main([
            "evaluate", "--fit", str(fitfile), "--dataset",
            str(simdir / "dataset.json"), "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "shoe_id,metric,n_accidentals"
        records, grid = ds.load_dataset(simdir / "dataset.json")
        scored = sum(1 for r in records if r.counts.sum() > 0)
        assert len(lines) == 1 + scored
        for ln in lines[1:]:
            sid, m, n = ln.split(",")
            assert float(m) < 0  # log mass per accidental is negative
            assert int(n) > 0


class TestCv:
    def test_cv_outputs(self, simdir, tmp_path):
        code = main([
            "cv", "--dataset", str(simdir / "dataset.json"), "--models",
            "uniform,m_a", "--folds", "2", "--seed", "3", "--threads", "1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        for name in ("cv_table.csv", "per_shoe.csv", "pairwise.json",
                     "plan.json"):
            assert (tmp_path / name).exists()
        lines = (tmp_path / "cv_table.csv").read_text().strip().splitlines()
        avg = [ln for ln in lines if ln.startswith("avg,uniform,")]
        assert len(avg) == 1
        want = uniform_metric(GridSpec.synthetic(5, 6))
        assert float(avg[0].split(",")[2]) == pytest.approx(want, rel=1e-9)
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert plan["k"] == 2

    def test_unknown_model_exits_2(self, simdir, tmp_path):
        assert main([
            "cv", "--dataset", str(simdir / "dataset.json"), "--models",
            "uniform,nope", "--folds", "2", "--out", str(tmp_path),
        ]) == 2


class TestPrep:
    @pytest.fixture()
    def toydir(self, tmp_path):
        """Two tiny scans (one PGM, one CSV) plus annotations on a grid
        whose crop covers the whole 6x8 source image."""
        grid = GridSpec.synthetic(6, 8)
        (tmp_path / "grid.json").write_text(json.dumps(grid.to_json_dict()))

        # P2 PGM, 6 wide x 8 tall: dark (ink) block in the middle
        rows = []
        for y in range(8):
            rows.append(" ".join(
                "0" if (2 <= y <= 5 and 1 <= x <= 4) else "255"
                for x in range(6)))
        (tmp_path / "s1.pgm").write_text(
            "P2\n# toy scan\n6 8\n255\n" + "\n".join(rows) + "\n")

        contact = np.zeros((8, 6))
        contact[1:7, 2:5] = 1.0
        ds.write_csv_grid(tmp_path / "s2.csv", contact)

        (tmp_path / "acc.csv").write_text(
            "shoe_id,side,x,y\n"
            "s1,left,2.5,3.5\n"
            "s1,left,3.1,4.2\n"
            "s2,right,3.0,2.0\n")
        return tmp_path

    def test_prep_builds_dataset(self, toydir, capsys):
        out = toydir / "data.json"
        code = main([
            "prep", "--images", str(toydir), "--accidentals",
            str(toydir / "acc.csv"), "--grid-file",
            str(toydir / "grid.json"), "--out", str(out),
        ])
        assert code == 0
        records, grid = ds.load_dataset(out)
        assert sorted(r.shoe_id for r in records) == ["s1", "s2"]
        by_id = {r.shoe_id: r for r in records}
        assert by_id["s1"].counts.sum() == 2
        assert by_id["s2"].counts.sum() == 1
        assert by_id["s1"].side == "left"
        assert by_id["s2"].side == "right"
        # PGM brightness is inverted: the dark block is the contact region
        assert by_id["s1"].contact.max() == pytest.approx(1.0)
        assert "rejects=0" in capsys.readouterr().out

    def test_prep_fixed_threshold(self, toydir):
        out = toydir / "data_fixed.json"
        code = main([
            "prep", "--images", str(toydir), "--accidentals",
            str(toydir / "acc.csv"), "--grid-file",
            str(toydir / "grid.json"), "--threshold", "fixed:0.5",
            "--out", str(out),
        ])
        assert code == 0
        records, _ = ds.load_dataset(out)
        assert all(r.threshold == 0.5 for r in records)

    def test_prep_missing_image_exits_1(self, toydir):
        (toydir / "acc.csv").write_text(
            "shoe_id,side,x,y\nmissing,left,1,1\n")
        assert main([
            "prep", "--images", str(toydir), "--accidentals",
            str(toydir / "acc.csv"), "--grid-file",
            str(toydir / "grid.json"), "--out", str(toydir / "d.json"),
        ]) == 1

    def test_prep_bad_threshold_exits_2(self, toydir):
        assert main([
            "prep", "--images", str(toydir), "--accidentals",
            str(toydir / "acc.csv"), "--grid-file",
            str(toydir / "grid.json"), "--threshold", "percentile:40",
            "--out", str(toydir / "d.json"),
        ]) == 2

    def test_prep_missing_accidentals_exits_1(self, toydir):
        assert main([
            "prep", "--images", str(toydir), "--accidentals",
            str(toydir / "nope.csv"), "--grid-file",
            str(toydir / "grid.json"), "--out", str(toydir / "d.json"),
        ]) == 1


class TestGradient:
    def test_raw_heatmap(self, tmp_path):
        rows = ["255 255 255 255 255 255"] * 4 + ["0 0 0 0 0 0"] * 4
        (tmp_path / "img.pgm").write_text(
            "P2\n6 8\n255\n" + "\n".join(rows) + "\n")
        code = main([
            "gradient", "--image", str(tmp_path / "img.pgm"), "--raw",
            "--out", str(tmp_path / "edges"),
        ])
        assert code == 0
        mag = np.loadtxt(tmp_path / "edges.csv", delimiter=",")
        assert mag.shape == (8, 6)
        # the horizontal boundary row dominates everything near the middle
        assert mag[3:5, 2:4].min() > mag[1, 2]

    def test_missing_image_exits_1(self, tmp_path):
        assert main(["gradient", "--image", str(tmp_path / "no.pgm"),
                     "--raw", "--out", str(tmp_path / "x")]) == 1


class TestMalformedInput:
    """Broken files end in exit 1 with the file (and shoe) named."""

    @staticmethod
    def _exit_and_message(caplog, argv):
        caplog.clear()
        code = main(argv)
        return code, " ".join(r.getMessage() for r in caplog.records)

    @pytest.fixture()
    def dataset_doc(self, simdir):
        return json.loads((simdir / "dataset.json").read_text())

    def _fit_argv(self, doc, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path, ["fit", "--dataset", str(path), "--model", "m_a",
                      "--out", str(tmp_path / "f.json"), "--threads", "1"]

    def test_truncated_p5_pgm(self, tmp_path, caplog):
        path = tmp_path / "cut.pgm"
        path.write_bytes(b"P5\n6 8\n255\n" + bytes(20))
        code, msg = self._exit_and_message(caplog, [
            "gradient", "--image", str(path), "--raw",
            "--out", str(tmp_path / "edges"),
        ])
        assert code == 1
        assert str(path) in msg and "truncated" in msg

    def test_dataset_array_of_wrong_length(self, dataset_doc, tmp_path, caplog):
        shoe = dataset_doc["shoes"][2]
        shoe["gradient"] = shoe["gradient"][:-1]
        path, argv = self._fit_argv(dataset_doc, tmp_path)
        code, msg = self._exit_and_message(caplog, argv)
        assert code == 1
        assert str(path) in msg and shoe["shoe_id"] in msg

    @pytest.mark.parametrize("value", [float("nan"), 7.5])
    def test_contact_outside_unit_interval(self, dataset_doc, tmp_path,
                                           caplog, value):
        shoe = dataset_doc["shoes"][1]
        shoe["contact"][3] = value
        path, argv = self._fit_argv(dataset_doc, tmp_path)
        code, msg = self._exit_and_message(caplog, argv)
        assert code == 1
        assert str(path) in msg and shoe["shoe_id"] in msg and "contact" in msg

    @pytest.mark.parametrize("value", [2.5, float("nan"), 1e30])
    def test_bad_accidental_count(self, dataset_doc, fitfile, tmp_path, caplog,
                                  value):
        shoe = dataset_doc["shoes"][4]
        shoe["counts"][7] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dataset_doc))
        code, msg = self._exit_and_message(caplog, [
            "evaluate", "--fit", str(fitfile), "--dataset", str(path),
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 1
        assert str(path) in msg and shoe["shoe_id"] in msg and "counts" in msg

    @pytest.mark.parametrize("value", [-1.0, 1e308])
    def test_gradient_outside_sobel_range(self, dataset_doc, fitfile, tmp_path,
                                          caplog, value):
        shoe = dataset_doc["shoes"][5]
        shoe["gradient"][2] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dataset_doc))
        code, msg = self._exit_and_message(caplog, [
            "evaluate", "--fit", str(fitfile), "--dataset", str(path),
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 1
        assert str(path) in msg and shoe["shoe_id"] in msg and "gradient" in msg

    def test_binary_contact_not_zero_one(self, dataset_doc, tmp_path, caplog):
        shoe = dataset_doc["shoes"][0]
        shoe["contact_binary"][0] = 0.5
        path, argv = self._fit_argv(dataset_doc, tmp_path)
        code, msg = self._exit_and_message(caplog, argv)
        assert code == 1
        assert str(path) in msg and "binary contact" in msg

    def test_fit_json_with_keys_missing(self, simdir, fitfile, tmp_path, caplog):
        doc = json.loads(fitfile.read_text())
        del doc["model"]
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        code, msg = self._exit_and_message(caplog, [
            "evaluate", "--fit", str(path), "--dataset",
            str(simdir / "dataset.json"), "--out", str(tmp_path / "ev"),
        ])
        assert code == 1
        assert str(path) in msg and "model" in msg


@pytest.fixture(scope="module")
def gradient_fitfile(simdir, tmp_path_factory):
    """A variant_b fit: its fixed effects use contact and gradient."""
    out = tmp_path_factory.mktemp("fit_variant_b") / "fit.json"
    code = main([
        "fit", "--dataset", str(simdir / "dataset.json"), "--model", "variant_b",
        "--out", str(out), "--threads", "1",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=50, deadline=None)
@given(
    array=st.sampled_from(["contact", "contact_binary", "gradient", "counts"]),
    shoe=st.integers(0, 7),
    cell=st.integers(0, 29),
    value=st.one_of(
        st.sampled_from([float("nan"), float("inf"), -float("inf"), -1.0, 2.5, 1e308]),
        st.floats(),
    ),
)
def test_evaluate_survives_one_bad_dataset_entry(simdir, gradient_fitfile, fuzz_dir,
                                                 array, shoe, cell, value):
    """One entry of a dataset array replaced: a documented exit code, sane output."""
    doc = json.loads((simdir / "dataset.json").read_text())
    doc["shoes"][shoe][array][cell] = value
    path = fuzz_dir / "dataset.json"
    path.write_text(json.dumps(doc))
    out = fuzz_dir / "ev"
    (out / "metrics.csv").unlink(missing_ok=True)
    code = main(["evaluate", "--fit", str(gradient_fitfile), "--dataset", str(path),
                 "--out", str(out)])
    assert code in (0, 1, 2)
    if code == 0:
        with (out / "metrics.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert row["n_accidentals"].isdigit(), row
