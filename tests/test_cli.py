"""End-to-end checks of the command-line pipeline.

Everything runs in-process through cli.main() so exit codes and outputs
can be asserted directly; the heavy lifting happens on tiny synthetic
grids to keep the suite quick.
"""

import base64
import csv
import dataclasses
import json
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxforge import datasets as ds
from coxforge import inference
from coxforge.cli import main
from coxforge.gradient import sobel_magnitude
from coxforge.grids import GridSpec, ShoeRecord, binarize
from coxforge.metrics import uniform_metric


def _strip_metadata(doc):
    doc = dict(doc)
    doc.pop("metadata", None)
    return doc


def _set_cell(shoe, key, cell, value):
    """Set one cell of a shoe's array in a dataset document.

    ``contact`` is decoded from its base64 float64 bytes, edited and
    encoded again; ``counts`` is a JSON list.
    """
    if isinstance(shoe[key], list):
        shoe[key][cell] = value
        return
    cells = np.frombuffer(base64.b64decode(shoe[key]), dtype="<f8").copy()
    cells[cell] = value
    shoe[key] = base64.b64encode(cells.tobytes()).decode("ascii")


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

    @pytest.mark.parametrize("flag,value", [
        ("--tau-s", "nan"),        # a NaN precision
        ("--intercept", "800"),    # exp(eta) overflows
        ("--tau-v", "1e-300"),     # field draws far past the Poisson sampler's range
    ])
    def test_unsimulatable_settings_exit_2(self, tmp_path, caplog, flag, value):
        caplog.clear()
        code = main(["simulate", "--grid", "3x3", "--shoes", "2", flag, value,
                     "--out", str(tmp_path)])
        assert code == 2
        assert caplog.records and caplog.records[-1].exc_info is None
        assert not (tmp_path / "dataset.json").exists()


class TestFit:
    def test_fit_round_trips(self, fitfile):
        res = ds.load_fit(fitfile)
        assert res.spec.name == "m_a"
        assert res.diagnostics["psi_evaluations"] > 0

    def test_truth_psi_and_fit_psi_map_share_their_names(self, tmp_path):
        """simulate then fit one model: the true and fitted precisions carry
        the same names in the same order, those of the model's precision table."""
        assert main(["simulate", "--grid", "4x5", "--shoes", "6", "--model", "m_final",
                     "--seed", "2", "--out", str(tmp_path / "sim")]) == 0
        assert main(["fit", "--dataset", str(tmp_path / "sim" / "dataset.json"),
                     "--model", "m_final", "--out", str(tmp_path / "fit.json"),
                     "--threads", "1"]) == 0
        truth = json.loads((tmp_path / "sim" / "truth.json").read_text())
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert list(truth["psi"]) == list(doc["psi_map"]) == [
            "tau_s", "tau_sm", "tau_v[100000]", "tau_v[000001]", "tau_v[100001]"]
        assert set(doc["psi_grid"]["free_names"]) <= set(doc["psi_map"])

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

    def test_counts_far_above_one_fit(self, tmp_path):
        """About 1e12 accidentals: from theta = 0 the first Newton step
        overflowed past every halving, so every psi was rejected. At 24.5,
        27 and 29, y eta and log y! cancel in the log-joint, and a stopping
        rule scaled by the net value alone rejected every psi near the
        start, so those fits exited 3."""
        for intercept in (25.0, 24.5, 27.0, 29.0):
            d = tmp_path / str(intercept)
            assert main(["simulate", "--grid", "3x3", "--shoes", "2", "--model", "uniform",
                         "--intercept", str(intercept), "--out", str(d)]) == 0
            out = d / "fit.json"
            assert main(["fit", "--dataset", str(d / "dataset.json"),
                         "--model", "uniform", "--threads", "1", "--out", str(out)]) == 0
            res = ds.load_fit(out)
            assert abs(res.marginal_mean[res.layout.fixed][0] - intercept) < 0.1

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

    def test_model_file_without_fixed_effects(self, simdir, tmp_path):
        """A spec with ``"fixed": []`` (shoe effects and a smooth field) fits and scores."""
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"name": "smooth_only", "fixed": [], "smooth": True}))
        fit = tmp_path / "fit.json"
        assert main([
            "fit", "--dataset", str(simdir / "dataset.json"), "--model-file", str(model),
            "--out", str(fit), "--threads", "1",
        ]) == 0
        sd = np.array(ds.load_fit(fit).marginal_sd)
        assert sd.size > 0 and np.all(np.isfinite(sd)) and np.all(sd > 0)
        assert main([
            "evaluate", "--fit", str(fit), "--dataset", str(simdir / "dataset.json"),
            "--out", str(tmp_path / "eval"),
        ]) == 0

    def test_model_file_with_byte_order_mark(self, simdir, tmp_path):
        """A --model-file saved with the UTF-8 byte-order mark fits as its twin without."""
        spec = b'{"name": "m_a_file", "fixed": ["000000"], "smooth": true}'
        docs = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            model = tmp_path / f"{name}.json"
            model.write_bytes(prefix + spec)
            out = tmp_path / f"fit_{name}.json"
            assert main([
                "fit", "--dataset", str(simdir / "dataset.json"), "--model-file", str(model),
                "--out", str(out), "--threads", "1",
            ]) == 0
            doc = _strip_metadata(json.loads(out.read_text()))
            doc["diagnostics"].pop("seconds")
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_missing_dataset_exits_1(self, tmp_path):
        assert main(["fit", "--dataset", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "f.json")]) == 1

    def test_unknown_model_exits_2(self, simdir, tmp_path):
        assert main(["fit", "--dataset", str(simdir / "dataset.json"),
                     "--model", "m_bogus",
                     "--out", str(tmp_path / "f.json")]) == 2

    def test_nonfinite_grid_spacing_exits_2(self, simdir, tmp_path, caplog):
        caplog.clear()
        assert main(["fit", "--dataset", str(simdir / "dataset.json"),
                     "--model", "m_a", "--strategy", "grid", "--grid-spacing", "nan",
                     "--out", str(tmp_path / "f.json")]) == 2
        assert "grid spacing" in caplog.text

    @pytest.mark.parametrize("flags", [
        ["--threads", "0"],
        ["--strategy", "grid", "--grid-points", "2", "--threads", "-3"],
    ])
    def test_threads_below_one_exits_2(self, simdir, tmp_path, caplog, flags):
        caplog.clear()
        assert main(["fit", "--dataset", str(simdir / "dataset.json"), "--model", "m_a",
                     *flags, "--out", str(tmp_path / "f.json")]) == 2
        assert "--threads" in caplog.text
        assert not (tmp_path / "f.json").exists()

    def test_numeric_failure_exits_3_with_error_artifact(self, simdir,
                                                         tmp_path, monkeypatch):
        out = tmp_path / "f.json"
        # one Newton iteration cannot converge on this data, so every
        # hyperparameter candidate fails and the search has nothing to use
        monkeypatch.setattr(inference, "MAX_NEWTON_ITER", 1)
        code = main([
            "fit", "--dataset", str(simdir / "dataset.json"), "--model",
            "m_a", "--out", str(out), "--threads", "1",
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

    def test_fit_written_with_seed_evaluates_the_same(self, simdir, fitfile, tmp_path):
        """Fit files from before the seed was dropped carry one; it is ignored."""
        doc = json.loads(fitfile.read_text())
        assert "seed" not in doc
        doc["seed"] = 0
        old = tmp_path / "fit_with_seed.json"
        old.write_text(json.dumps(doc))
        tables = []
        for fit in (fitfile, old):
            out = tmp_path / fit.stem
            assert main(["evaluate", "--fit", str(fit), "--dataset",
                         str(simdir / "dataset.json"), "--out", str(out)]) == 0
            tables.append((out / "metrics.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_fit_with_sorted_keys_evaluates_the_same(self, simdir, tmp_path):
        """JSON objects are unordered: psi_map is read by name, so a fit file
        rewritten with sorted keys gives the same table. m_final's precision
        table is not in sorted order."""
        fit = tmp_path / "fit.json"
        assert main(["fit", "--dataset", str(simdir / "dataset.json"), "--model", "m_final",
                     "--out", str(fit), "--threads", "1"]) == 0
        doc = json.loads(fit.read_text())
        assert list(doc["psi_map"]) != sorted(doc["psi_map"])
        rewritten = tmp_path / "sorted.json"
        rewritten.write_text(json.dumps(doc, sort_keys=True))
        assert ds.load_fit(rewritten).psi_map == ds.load_fit(fit).psi_map
        tables = []
        for path in (fit, rewritten):
            out = tmp_path / f"ev_{path.stem}"
            assert main(["evaluate", "--fit", str(path), "--dataset",
                         str(simdir / "dataset.json"), "--out", str(out)]) == 0
            tables.append((out / "metrics.csv").read_bytes())
        assert tables[0] == tables[1]


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

    def test_empty_model_list_exits_2(self, simdir, tmp_path, caplog):
        caplog.clear()
        assert main([
            "cv", "--dataset", str(simdir / "dataset.json"), "--models", ",",
            "--folds", "2", "--out", str(tmp_path),
        ]) == 2
        assert "model list is empty" in caplog.text
        assert not (tmp_path / "cv_table.csv").exists()

    def test_threads_below_one_exits_2(self, simdir, tmp_path, caplog):
        caplog.clear()
        assert main([
            "cv", "--dataset", str(simdir / "dataset.json"), "--models", "uniform",
            "--folds", "2", "--threads", "0", "--out", str(tmp_path),
        ]) == 2
        assert "--threads" in caplog.text
        assert not (tmp_path / "cv_table.csv").exists()


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

    def test_prep_shoe_id_that_is_not_one_file_name_exits_1(self, toydir, caplog):
        """An annotation id is looked up as a file name in --images, so
        '../sim/x' is refused before a scan beside that directory is read."""
        (toydir / "imgs").mkdir()
        (toydir / "sim").mkdir()
        (toydir / "sim" / "x.pgm").write_bytes((toydir / "s1.pgm").read_bytes())
        acc = toydir / "acc_up.csv"
        acc.write_text("shoe_id,side,x,y\n../sim/x,left,2.5,3.5\n")
        out = toydir / "d.json"
        caplog.clear()
        assert main([
            "prep", "--images", str(toydir / "imgs"), "--accidentals", str(acc),
            "--grid-file", str(toydir / "grid.json"), "--out", str(out),
        ]) == 1
        msg = " ".join(r.getMessage() for r in caplog.records)
        assert str(acc) in msg and "'../sim/x'" in msg
        assert caplog.records[-1].exc_info is None
        assert not out.exists()

    def test_prep_missing_accidentals_exits_1(self, toydir):
        assert main([
            "prep", "--images", str(toydir), "--accidentals",
            str(toydir / "nope.csv"), "--grid-file",
            str(toydir / "grid.json"), "--out", str(toydir / "d.json"),
        ]) == 1


    @staticmethod
    def _prep_exit_and_message(toydir, caplog):
        caplog.clear()
        code = main([
            "prep", "--images", str(toydir), "--accidentals",
            str(toydir / "acc.csv"), "--grid-file",
            str(toydir / "grid.json"), "--out", str(toydir / "d.json"),
        ])
        return code, " ".join(r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize("sample", ["2x5", "300", "nan"])
    def test_prep_bad_pgm_sample_exits_1(self, toydir, caplog, sample):
        """A non-numeric sample, one above maxval, or nan names the file."""
        path = toydir / "s1.pgm"
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(" ", 1)[0] + " " + sample
        path.write_text("\n".join(lines) + "\n")
        code, msg = self._prep_exit_and_message(toydir, caplog)
        assert code == 1
        assert str(path) in msg
        assert {"2x5": "non-numeric", "300": "[0, 255]", "nan": "[0, 255]"}[sample] in msg

    def test_prep_p5_sample_above_maxval_exits_1(self, toydir, caplog):
        """Binary samples are checked against a maxval below their type's range."""
        path = toydir / "s1.pgm"
        pixels = np.full(6 * 8, 100, dtype=np.uint8)
        pixels[17] = 101
        path.write_bytes(b"P5\n6 8\n100\n" + pixels.tobytes())
        code, msg = self._prep_exit_and_message(toydir, caplog)
        assert code == 1
        assert str(path) in msg and "[0, 100]" in msg

    @staticmethod
    def _inner_window(toydir):
        """A grid whose crop window leaves the scans' border pixels out."""
        grid = GridSpec(nx=2, ny=3, crop_x=(1, 4), crop_y=(1, 6))
        (toydir / "grid.json").write_text(json.dumps(grid.to_json_dict()))

    def test_prep_csv_scan_out_of_range_outside_the_window_exits_1(self, toydir, caplog):
        """A scan of contact is range-checked whole, not only within its window."""
        self._inner_window(toydir)
        path = toydir / "s2.csv"
        scan = np.loadtxt(path, delimiter=",")
        scan[7, 5] = 1.5
        ds.write_csv_grid(path, scan)
        code, msg = self._prep_exit_and_message(toydir, caplog)
        assert code == 1
        assert str(path) in msg and "must lie in [0, 1]" in msg

    def test_prep_p5_sample_above_maxval_outside_the_window_exits_1(self, toydir, caplog):
        self._inner_window(toydir)
        path = toydir / "s1.pgm"
        pixels = np.full(6 * 8, 100, dtype=np.uint8)
        pixels[0] = 101
        path.write_bytes(b"P5\n6 8\n100\n" + pixels.tobytes())
        code, msg = self._prep_exit_and_message(toydir, caplog)
        assert code == 1
        assert str(path) in msg and "[0, 100]" in msg

    def test_prep_accidentals_with_byte_order_mark(self, toydir):
        """A CSV saved with the UTF-8 byte-order mark preps as its twin without."""
        acc = toydir / "acc.csv"
        (toydir / "acc_bom.csv").write_bytes(b"\xef\xbb\xbf" + acc.read_bytes())
        docs = []
        for name in ("acc.csv", "acc_bom.csv"):
            out = toydir / f"data_{name}.json"
            assert main([
                "prep", "--images", str(toydir), "--accidentals", str(toydir / name),
                "--grid-file", str(toydir / "grid.json"), "--out", str(out),
            ]) == 0
            docs.append(_strip_metadata(json.loads(out.read_text())))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("sample", ["nan", "inf", "-inf"])
    def test_prep_nonfinite_csv_scan_exits_1(self, toydir, caplog, sample):
        """The file is named, with no RuntimeWarning (an error in this suite)."""
        path = toydir / "s2.csv"
        scan = np.loadtxt(path, delimiter=",")
        scan[3, 1] = float(sample)
        ds.write_csv_grid(path, scan)
        code, msg = self._prep_exit_and_message(toydir, caplog)
        assert code == 1
        assert str(path) in msg and "non-finite" in msg

    @pytest.mark.parametrize("row", ["s1,left,2.5", "s2"])
    def test_prep_accidentals_row_with_missing_fields_exits_1(self, toydir, caplog, row):
        path = toydir / "acc.csv"
        path.write_text(f"shoe_id,side,x,y\ns1,left,2.5,3.5\n{row}\n")
        code, msg = self._prep_exit_and_message(toydir, caplog)
        assert code == 1
        assert f"{path}:3" in msg


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

    @pytest.mark.parametrize("fmt,maxval", [("P2", 255), ("P5", 255), ("P5", 4000)])
    def test_raw_heatmap_is_that_of_the_whole_scan(self, tmp_path, fmt, maxval):
        """--raw maps the edges of the whole scan, converted to contact."""
        samples = np.random.default_rng(maxval).integers(0, maxval + 1, size=(9, 7))
        header = f"{fmt}\n7 9\n{maxval}\n".encode()
        if fmt == "P2":
            body = "\n".join(" ".join(map(str, row)) for row in samples).encode()
        else:
            body = samples.astype(">u2" if maxval > 255 else np.uint8).tobytes()
        (tmp_path / "img.pgm").write_bytes(header + body)
        assert main(["gradient", "--image", str(tmp_path / "img.pgm"), "--raw",
                     "--out", str(tmp_path / "edges")]) == 0
        ds.write_heatmap(sobel_magnitude(1.0 - samples.astype(float) / maxval),
                         tmp_path / "want")
        for suffix in (".csv", ".pgm", ".json"):
            assert ((tmp_path / f"edges{suffix}").read_bytes()
                    == (tmp_path / f"want{suffix}").read_bytes())

    def test_missing_image_exits_1(self, tmp_path):
        assert main(["gradient", "--image", str(tmp_path / "no.pgm"),
                     "--raw", "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("sample", ["nan", "inf"])
    @pytest.mark.parametrize("raw", [False, True], ids=["grid", "raw"])
    def test_nonfinite_csv_scan_exits_1(self, tmp_path, caplog, sample, raw):
        """No heatmap is written, and no RuntimeWarning (an error in this suite)."""
        scan = np.full((12, 16), 0.2)
        scan[4:8, 5:11] = 0.9
        scan[6, 0] = float(sample)
        path = tmp_path / "s.csv"
        ds.write_csv_grid(path, scan)
        grid = GridSpec(nx=4, ny=3, crop_x=(0, 15), crop_y=(0, 11))
        (tmp_path / "g.json").write_text(json.dumps(grid.to_json_dict()))
        argv = ["gradient", "--image", str(path), "--out", str(tmp_path / "edges")]
        argv += ["--raw"] if raw else ["--grid-file", str(tmp_path / "g.json")]
        caplog.clear()
        assert main(argv) == 1
        assert str(path) in " ".join(r.getMessage() for r in caplog.records)
        assert not list(tmp_path.glob("edges*"))


    def test_csv_scan_with_byte_order_mark(self, tmp_path):
        """A scan saved with a UTF-8 byte-order mark gives the same heatmap."""
        scan = np.full((12, 16), 0.2)
        scan[4:8, 5:11] = 0.9
        ds.write_csv_grid(tmp_path / "plain.csv", scan)
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
        grid = GridSpec(nx=4, ny=3, crop_x=(0, 15), crop_y=(0, 11))
        (tmp_path / "g.json").write_text(json.dumps(grid.to_json_dict()))
        for name in ("plain", "bom"):
            assert main(["gradient", "--image", str(tmp_path / f"{name}.csv"), "--grid-file",
                         str(tmp_path / "g.json"), "--out", str(tmp_path / f"edges_{name}")]) == 0
        for suffix in (".csv", ".pgm", ".json"):
            assert ((tmp_path / f"edges_plain{suffix}").read_bytes()
                    == (tmp_path / f"edges_bom{suffix}").read_bytes())


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
        """One cell short: 8 bytes fewer than the grid's cells take."""
        shoe = dataset_doc["shoes"][2]
        cells = base64.b64decode(shoe["contact"])
        shoe["contact"] = base64.b64encode(cells[:-8]).decode("ascii")
        path, argv = self._fit_argv(dataset_doc, tmp_path)
        code, msg = self._exit_and_message(caplog, argv)
        assert code == 1
        assert str(path) in msg and shoe["shoe_id"] in msg

    @pytest.mark.parametrize("key", ["contact"])
    @pytest.mark.parametrize("value", [
        0.5,
        [0.5] * 30,
        # 30 zero cells with one stray character, which a lenient decoder drops
        base64.b64encode(bytes(8 * 30)).decode("ascii").replace("A", "A*", 1),
        base64.b64encode(bytes(8 * 30 + 3)).decode("ascii"),
    ], ids=["number", "list", "not_base64", "bytes_not_8_per_cell"])
    def test_float_cells_that_are_not_base64_float64(self, dataset_doc, tmp_path, caplog,
                                                     key, value):
        """The simulated grid has 30 cells."""
        shoe = dataset_doc["shoes"][6]
        shoe[key] = value
        path, argv = self._fit_argv(dataset_doc, tmp_path)
        code, msg = self._exit_and_message(caplog, argv)
        assert code == 1
        assert str(path) in msg and shoe["shoe_id"] in msg and key in msg

    def test_v1_dataset_exits_1(self, simdir, tmp_path, caplog):
        """A file of the format before base64 float cells: its float
        arrays are number lists. It is refused, not read."""
        records, _ = ds.load_dataset(simdir / "dataset.json")
        doc = json.loads((simdir / "dataset.json").read_text())
        doc["format"] = "coxforge-dataset-v1"
        for rec, shoe in zip(records, doc["shoes"]):
            for key in ("contact", "gradient"):
                shoe[key] = getattr(rec, key).ravel().tolist()
        path, argv = self._fit_argv(doc, tmp_path)
        code, msg = self._exit_and_message(caplog, argv)
        assert code == 1
        assert str(path) in msg and "'coxforge-dataset-v1'" in msg
        assert "prep" in msg and "simulate" in msg
        assert caplog.records[-1].exc_info is None

    def test_v2_dataset_exits_1(self, simdir, tmp_path, caplog):
        """A file of the format that also stored the derived cells, the binary
        contact and the gradient, is refused, not read."""
        records, _ = ds.load_dataset(simdir / "dataset.json")
        doc = json.loads((simdir / "dataset.json").read_text())
        doc["format"] = "coxforge-dataset-v2"
        for rec, shoe in zip(records, doc["shoes"]):
            shoe["contact_binary"] = rec.contact_binary.ravel().tolist()
            shoe["gradient"] = base64.b64encode(rec.gradient.tobytes()).decode("ascii")
        path, argv = self._fit_argv(doc, tmp_path)
        code, msg = self._exit_and_message(caplog, argv)
        assert code == 1
        assert str(path) in msg and "'coxforge-dataset-v2'" in msg
        assert "prep" in msg and "simulate" in msg
        assert caplog.records[-1].exc_info is None

    @pytest.mark.parametrize("value", [None, float("nan"), 1.0, -0.1, "0.5", True],
                             ids=["missing", "nan", "one", "negative", "string", "true"])
    def test_dataset_threshold_is_a_number_in_unit_interval(self, dataset_doc, tmp_path,
                                                            caplog, value):
        """The binary contact is derived from the threshold, which must be a
        JSON number in [0, 1)."""
        shoe = dataset_doc["shoes"][3]
        if value is None:
            del shoe["threshold"]
        else:
            shoe["threshold"] = value
        path, argv = self._fit_argv(dataset_doc, tmp_path)
        code, msg = self._exit_and_message(caplog, argv)
        assert code == 1
        assert str(path) in msg and shoe["shoe_id"] in msg and "threshold" in msg
        assert caplog.records[-1].exc_info is None

    @pytest.mark.parametrize("content", [b"[1, 2]", b'"x"', b'\xff{"format": 1}'],
                             ids=["array", "string", "not_utf8"])
    @pytest.mark.parametrize("command,flag", [
        ("fit", "--dataset"), ("cv", "--dataset"),
        ("evaluate", "--fit"), ("predict", "--fit"),
    ])
    def test_json_file_that_is_not_one_utf8_object(self, simdir, tmp_path, caplog,
                                                   command, flag, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        dataset = path if flag == "--dataset" else simdir / "dataset.json"
        argv = [command, "--dataset", str(dataset), "--out", str(tmp_path / "out")]
        if flag == "--fit":
            argv += ["--fit", str(path)]
        code, msg = self._exit_and_message(caplog, argv)
        assert code == 1
        assert str(path) in msg

    def test_accidentals_csv_that_is_not_utf8(self, tmp_path, caplog):
        path = tmp_path / "acc.csv"
        path.write_bytes(b"shoe_id,side,x,y\nscan,left,3.5,4.5\nsc\xffan,left,6.0,2.0\n")
        code, msg = self._exit_and_message(caplog, [
            "prep", "--images", str(tmp_path), "--accidentals", str(path),
            "--out", str(tmp_path / "data.json"),
        ])
        assert code == 1
        assert str(path) in msg and "UTF-8" in msg

    @pytest.mark.parametrize("value", ["dark", [0.5, 0.5], 10**400, {"v": 1}])
    def test_cell_list_that_is_not_numbers(self, dataset_doc, tmp_path, caplog, value):
        """The loader's JSON hook leaves a list it cannot make into an
        array as it is, and the record ends as a reported error."""
        shoe = dataset_doc["shoes"][3]
        shoe["counts"][5] = value
        path, argv = self._fit_argv(dataset_doc, tmp_path)
        code, msg = self._exit_and_message(caplog, argv)
        assert code == 1
        assert str(path) in msg and shoe["shoe_id"] in msg

    @pytest.mark.parametrize("value", [float("nan"), 7.5])
    def test_contact_outside_unit_interval(self, dataset_doc, tmp_path,
                                           caplog, value):
        shoe = dataset_doc["shoes"][1]
        _set_cell(shoe, "contact", 3, value)
        path, argv = self._fit_argv(dataset_doc, tmp_path)
        code, msg = self._exit_and_message(caplog, argv)
        assert code == 1
        assert str(path) in msg and shoe["shoe_id"] in msg and "contact" in msg

    @pytest.mark.parametrize("value", [2.5, float("nan"), 1e30])
    def test_bad_accidental_count(self, dataset_doc, fitfile, tmp_path, caplog,
                                  value):
        shoe = dataset_doc["shoes"][4]
        _set_cell(shoe, "counts", 7, value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dataset_doc))
        code, msg = self._exit_and_message(caplog, [
            "evaluate", "--fit", str(fitfile), "--dataset", str(path),
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 1
        assert str(path) in msg and shoe["shoe_id"] in msg and "counts" in msg

    @pytest.mark.parametrize("value", [-1.0, 1e308])
    def test_gradient_outside_sobel_range(self, simdir, tmp_path, value):
        """A file stores no gradient, and a record's gradient cannot be set
        off its contact's Sobel magnitude: the edit is refused, and the
        record saves and loads back with its contact's gradient."""
        records, grid = ds.load_dataset(simdir / "dataset.json")
        want = sobel_magnitude(records[5].contact)
        with pytest.raises(ValueError):
            records[5].gradient[0, 2] = value
        ds.save_dataset(records, grid, tmp_path / "data.json")
        got, _ = ds.load_dataset(tmp_path / "data.json")
        for rec in (records[5], got[5]):
            assert rec.gradient.tobytes() == want.tobytes()

    def test_binary_contact_not_zero_one(self, simdir, tmp_path):
        """Nor can a record's binary contact be replaced by a float array or
        a cell of it set to 0.5: it stays its contact cut at its threshold."""
        records, grid = ds.load_dataset(simdir / "dataset.json")
        with pytest.raises(dataclasses.FrozenInstanceError):
            records[0].contact_binary = records[0].contact_binary.astype(float)
        with pytest.raises(ValueError):
            records[0].contact_binary[0, 0] = 0.5
        ds.save_dataset(records, grid, tmp_path / "data.json")
        got, _ = ds.load_dataset(tmp_path / "data.json")
        for rec in (records[0], got[0]):
            assert rec.contact_binary.dtype == np.uint8
            assert set(np.unique(rec.contact_binary).tolist()) <= {0, 1}
            assert (rec.contact_binary.tobytes()
                    == binarize(rec.contact, rec.threshold).tobytes())

    @pytest.mark.parametrize("edit", [
        lambda shoes: shoes[2].update(side="up"),
        lambda shoes: shoes[2].update(shoe_id=5),
        lambda shoes: shoes[2].update(shoe_id=shoes[1]["shoe_id"]),
    ], ids=["side_up", "shoe_id_a_number", "shoe_id_repeated"])
    def test_dataset_side_and_shoe_id(self, dataset_doc, fitfile, tmp_path, caplog, edit):
        """A side is left or right, and shoe ids are distinct JSON strings."""
        shoe = dataset_doc["shoes"][2]
        edit(dataset_doc["shoes"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dataset_doc))
        code, msg = self._exit_and_message(caplog, [
            "evaluate", "--fit", str(fitfile), "--dataset", str(path),
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 1
        assert str(path) in msg and f"shoe {shoe['shoe_id']}" in msg
        assert caplog.records[-1].exc_info is None
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("sid", ["/../escaped/x", "a/b", "", ".", "..", "x\0y"],
                             ids=["climbs_out", "slash", "empty", "dot", "dotdot", "nul"])
    @pytest.mark.parametrize("command,want", [("predict", 1), ("evaluate", 0)])
    def test_shoe_id_that_is_not_one_file_name(self, dataset_doc, fitfile, tmp_path, caplog,
                                               sid, command, want):
        """predict names a file after each shoe, so it refuses an id that is
        not one file-name component before writing anything; evaluate names
        no file after a shoe and scores it."""
        dataset_doc["shoes"][2]["shoe_id"] = sid
        path = tmp_path / "ids.json"
        path.write_text(json.dumps(dataset_doc))
        out = tmp_path / "a" / "b" / "out"
        code, msg = self._exit_and_message(caplog, [
            command, "--fit", str(fitfile), "--dataset", str(path), "--out", str(out),
        ])
        assert code == want
        if want:
            assert str(path) in msg and repr(sid) in msg
            assert caplog.records[-1].exc_info is None
            assert not (tmp_path / "a").exists()
        assert not any(p.name == "escaped" for p in tmp_path.rglob("*"))

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_fit_on_another_crop_window_exits_2(self, dataset_doc, fitfile, tmp_path,
                                                caplog, command):
        """A dataset on another crop window has another cell area, which
        would shift every metric."""
        dataset_doc["grid"]["crop_x"] = [0, 9]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(dataset_doc))
        code, msg = self._exit_and_message(caplog, [
            command, "--fit", str(fitfile), "--dataset", str(path),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert str(fitfile) in msg and str(path) in msg
        assert caplog.records[-1].exc_info is None
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit", [
        lambda d: d["marginal_mean"].append(0.5),
        lambda d: d.update(marginal_mean=d["marginal_mean"][:-3]),
        lambda d: d["marginal_mean"].__setitem__(4, float("nan")),
        lambda d: d["marginal_sd"].__setitem__(2, 0.0),
    ], ids=["one_mean_too_many", "three_means_short", "nan_mean", "zero_sd"])
    def test_fit_json_that_does_not_match_its_layout(self, simdir, fitfile, tmp_path,
                                                     caplog, edit):
        doc = json.loads(fitfile.read_text())
        edit(doc)
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        code, msg = self._exit_and_message(caplog, [
            "evaluate", "--fit", str(path), "--dataset",
            str(simdir / "dataset.json"), "--out", str(tmp_path / "ev"),
        ])
        assert code == 1
        assert str(path) in msg

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(marginal_mean=[str(v) for v in d["marginal_mean"]]),
        lambda d: d["marginal_sd"].__setitem__(0, True),
        lambda d: d.update(marginal_sd=None),
        lambda d: d["psi_grid"].update(free_names="ab"),
        lambda d: d["psi_grid"].update(free_names=["tau_sm", "tau_s"]),
        lambda d: d["psi_grid"].update(weights=[float("nan")]),
        lambda d: d["psi_grid"].update(weights=[0.5]),
        lambda d: d["psi_grid"].update(weights=[1.5, -0.5], points=[[0.0, 0.0]] * 2),
        lambda d: d["psi_grid"].update(weights=["1.0"]),
        lambda d: d["psi_grid"]["points"][0].__setitem__(1, float("inf")),
        lambda d: d["psi_grid"]["points"][0].append(0.0),
        lambda d: d["psi_grid"].update(points=[[0.0, 0.0]] * 2),
        lambda d: d["psi_grid"].update(points=[[0.0, False]]),
    ], ids=["means_strings", "sd_true", "sd_null", "free_names_a_string",
            "free_names_reordered", "weight_nan", "weights_sum_half", "weight_negative",
            "weight_a_string", "point_infinite", "point_too_long", "points_too_many",
            "point_bool"])
    def test_fit_json_numbers_and_psi_grid(self, simdir, fitfile, tmp_path, caplog, edit):
        """Every number is a JSON number, and the psi grid names m_a's free
        precisions, tau_s and tau_sm, with one finite point per weight."""
        doc = json.loads(fitfile.read_text())
        assert doc["psi_grid"]["free_names"] == ["tau_s", "tau_sm"]
        assert doc["psi_grid"]["weights"] == [1.0]
        edit(doc)
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        code, msg = self._exit_and_message(caplog, [
            "evaluate", "--fit", str(path), "--dataset",
            str(simdir / "dataset.json"), "--out", str(tmp_path / "ev"),
        ])
        assert code == 1
        assert str(path) in msg
        assert caplog.records[-1].exc_info is None

    @pytest.mark.parametrize("psi_map", [
        {"tau_s": 2.0},
        {"tau_s": 2.0, "tau_sm": 3.0, "tau_v[100000]": 4.0},
        {"tau_s": 2.0, "tau_smooth": 3.0},
        {"tau_s": 2.0, "tau_sm": {"tau_v": 3.0}},
        [2.0, 3.0],
    ], ids=["missing", "extra", "renamed", "nested", "list"])
    def test_fit_json_psi_map_names_the_model_precisions(self, simdir, fitfile, tmp_path,
                                                         caplog, psi_map):
        """m_a has two precisions, tau_s and tau_sm, in that order."""
        doc = json.loads(fitfile.read_text())
        assert list(doc["psi_map"]) == ["tau_s", "tau_sm"]
        doc["psi_map"] = psi_map
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        code, msg = self._exit_and_message(caplog, [
            "evaluate", "--fit", str(path), "--dataset",
            str(simdir / "dataset.json"), "--out", str(tmp_path / "ev"),
        ])
        assert code == 1
        assert str(path) in msg and "psi_map" in msg
        assert caplog.records[-1].exc_info is None

    @pytest.mark.parametrize("value", [0, -1.0, float("nan"), float("inf"), True, "2.0",
                                       None, 10 ** 400],
                             ids=["zero", "negative", "nan", "inf", "true", "string", "null",
                                  "past_float_range"])
    def test_fit_json_psi_map_value_is_a_positive_number(self, simdir, fitfile, tmp_path,
                                                         caplog, value):
        doc = json.loads(fitfile.read_text())
        doc["psi_map"]["tau_sm"] = value
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        code, msg = self._exit_and_message(caplog, [
            "evaluate", "--fit", str(path), "--dataset",
            str(simdir / "dataset.json"), "--out", str(tmp_path / "ev"),
        ])
        assert code == 1
        assert str(path) in msg and "psi_map tau_sm" in msg
        assert caplog.records[-1].exc_info is None

    @pytest.mark.parametrize("key,value,word", [
        ("shoe_ids", "abcdefgh", "shoe_ids"),
        ("shoe_ids", ["s"] * 8, "shoe_ids"),
        ("shoe_ids", list(range(8)), "shoe_ids"),
        ("strategy", "banana", "strategy"),
        ("strategy", ["grid"], "strategy"),
    ], ids=["ids_a_string", "ids_repeated", "ids_not_strings", "strategy_unknown",
            "strategy_a_list"])
    def test_fit_json_shoe_ids_and_strategy(self, simdir, fitfile, tmp_path, caplog,
                                            key, value, word):
        """The derived layout rests on the shoe count, so the ids are checked;
        the fit has 8 shoes, as many as the string has characters."""
        doc = json.loads(fitfile.read_text())
        assert len(doc["shoe_ids"]) == 8
        doc[key] = value
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        code, msg = self._exit_and_message(caplog, [
            "evaluate", "--fit", str(path), "--dataset",
            str(simdir / "dataset.json"), "--out", str(tmp_path / "ev"),
        ])
        assert code == 1
        assert str(path) in msg and word in msg

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("tag", ["coxforge-fit-v1", "coxforge-fit-error-v1"])
    def test_fit_file_of_another_format_exits_1(self, simdir, fitfile, tmp_path, caplog,
                                                command, tag):
        """A v1 fit (its precisions nested, its layout stored) and the error
        record a failed fit leaves are refused, not read."""
        if tag == "coxforge-fit-v1":
            doc = json.loads(fitfile.read_text())
            doc["layout"] = {"n_shoes": 8, "n_fixed": 1, "n_cells": 30, "n_varying": 0,
                             "smooth": True}
            doc["psi_map"] = {"tau_s": 2.0, "tau_sm": 3.0, "tau_v": {}}
        else:
            doc = {"error": "no evaluable point", "model": "m_a", "n_shoes": 8}
        doc["format"] = tag
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        code, msg = self._exit_and_message(caplog, [
            command, "--fit", str(path), "--dataset",
            str(simdir / "dataset.json"), "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert str(path) in msg and repr(tag) in msg and "'coxforge-fit-v2'" in msg
        assert caplog.records[-1].exc_info is None

    @pytest.mark.parametrize("edit,key", [
        ({"nx": 39.7}, "nx"),
        ({"ny": True}, "ny"),
        ({"ny": "8"}, "ny"),
        ({"nx": 6.0}, "nx"),
        ({"crop_x": [0.9, 5.2]}, "crop_x"),
        ({"crop_y": [0, 7, 9]}, "crop_y"),
        ({"crop_x": [0, "5"]}, "crop_x"),
        ({"crop_y": [False, 7]}, "crop_y"),
    ], ids=["nx_fraction", "ny_bool", "ny_string", "nx_float", "crop_x_fractions",
            "crop_y_three", "crop_x_string", "crop_y_bool"])
    @pytest.mark.parametrize("command", ["prep", "gradient"])
    def test_grid_file_numbers_are_json_numbers(self, tmp_path, caplog, edit, key, command):
        """Cell counts and pixel ranges are JSON integers; the grid is read
        first, so nothing else need exist."""
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**GridSpec.synthetic(6, 8).to_json_dict(), **edit}))
        if command == "prep":
            argv = ["prep", "--images", str(tmp_path), "--accidentals",
                    str(tmp_path / "acc.csv"), "--out", str(tmp_path / "data.json")]
        else:
            (tmp_path / "s.csv").write_text("\n".join(["0.2,0.2,0.2"] * 3) + "\n")
            argv = ["gradient", "--image", str(tmp_path / "s.csv"),
                    "--out", str(tmp_path / "edges")]
        code, msg = self._exit_and_message(caplog, argv + ["--grid-file", str(path)])
        assert code == 1
        assert str(path) in msg and key in msg
        assert caplog.records[-1].exc_info is None

    @pytest.mark.parametrize("setting", [{"rate_tau_s": "1e-3"}, {"fixef_var": True},
                                         {"rate_tau_i": None}, {"rate_tau_sm": [1.0]}],
                             ids=["string", "bool", "null", "list"])
    def test_prior_file_setting_must_be_a_json_number(self, simdir, tmp_path, caplog,
                                                      setting):
        path = tmp_path / "prior.json"
        path.write_text(json.dumps(setting))
        code, msg = self._exit_and_message(caplog, [
            "fit", "--dataset", str(simdir / "dataset.json"), "--prior-file", str(path),
            "--out", str(tmp_path / "f.json"), "--threads", "1",
        ])
        assert code == 2
        assert str(path) in msg and next(iter(setting)) in msg
        assert not (tmp_path / "f.json").exists()

    def test_dataset_grid_error_names_the_file(self, dataset_doc, tmp_path, caplog):
        dataset_doc["grid"]["nx"] = "5"
        path, argv = self._fit_argv(dataset_doc, tmp_path)
        code, msg = self._exit_and_message(caplog, argv)
        assert code == 1
        assert str(path) in msg and "nx" in msg

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_fit_on_another_grid_exits_2(self, fitfile, tmp_path, caplog, command):
        assert main(["simulate", "--grid", "4x5", "--shoes", "3", "--model", "m_a",
                     "--out", str(tmp_path / "sim")]) == 0
        code, msg = self._exit_and_message(caplog, [
            command, "--fit", str(fitfile), "--dataset",
            str(tmp_path / "sim" / "dataset.json"), "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "4x5" in msg and "5x6" in msg

    @pytest.mark.parametrize("flag", ["--prior-file", "--model-file", "--grid-file"])
    def test_truncated_config_file_exits_1(self, simdir, tmp_path, caplog, flag):
        path = tmp_path / "config.json"
        path.write_text('{"name": "m_a", "fixed": ["0000')
        if flag == "--grid-file":
            argv = ["prep", "--images", str(tmp_path), "--accidentals",
                    str(tmp_path / "acc.csv"), flag, str(path),
                    "--out", str(tmp_path / "data.json")]
        else:
            argv = ["fit", "--dataset", str(simdir / "dataset.json"), flag, str(path),
                    "--out", str(tmp_path / "f.json"), "--threads", "1"]
        code, msg = self._exit_and_message(caplog, argv)
        assert code == 1
        assert str(path) in msg and "JSON" in msg

    @pytest.mark.parametrize("spec,word", [
        ({"name": "flat", "fixed": ["000000"], "smooth": "false"}, "smooth"),
        ({"name": "flat", "fixed": 5}, "wrong type"),
        ({"name": 5, "fixed": ["000000"]}, "name"),
        ({"name": "flat", "fixed": ["000000"], "contact": 1}, "contact"),
        ({"name": "flat", "fixed": "000000"}, "fixed"),
        ({"name": "flat", "fixed": [0]}, "fixed"),
        ({"name": "flat", "fixed": ["000000"], "varying": {"100000": 1}}, "varying"),
        ({"name": "flat", "fixed": ["000000"], "varying": ["10000"]}, "varying"),
    ], ids=["smooth_not_boolean", "fixed_not_a_list", "name_a_number", "contact_a_number",
            "fixed_a_string", "fixed_index_a_number", "varying_an_object",
            "varying_index_five_bits"])
    def test_model_file_with_bad_value_exits_2(self, simdir, tmp_path, caplog, spec, word):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        code, msg = self._exit_and_message(caplog, [
            "fit", "--dataset", str(simdir / "dataset.json"), "--model-file", str(path),
            "--out", str(tmp_path / "f.json"), "--threads", "1",
        ])
        assert code == 2
        assert str(path) in msg and word in msg
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("setting", [{"rate_tau_s": float("nan")},
                                         {"fixef_var": float("inf")}],
                             ids=["nan_rate", "infinite_variance"])
    def test_prior_file_setting_must_be_finite(self, simdir, tmp_path, caplog, setting):
        path = tmp_path / "prior.json"
        path.write_text(json.dumps(setting))
        code, msg = self._exit_and_message(caplog, [
            "fit", "--dataset", str(simdir / "dataset.json"), "--prior-file", str(path),
            "--out", str(tmp_path / "f.json"), "--threads", "1",
        ])
        assert code == 2
        assert str(path) in msg and next(iter(setting)) in msg

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
    array=st.sampled_from(["contact", "counts"]),
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
    _set_cell(doc["shoes"][shoe], array, cell, value)
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


_EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072009e-308, 1.0]  # subnormals: least, greatest


@settings(max_examples=50, deadline=None)
@given(
    contact=st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(0.0, 1.0)),
                     min_size=12, max_size=12),
    counts=st.lists(st.integers(0, 2**40), min_size=12, max_size=12),
    threshold=st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, np.nextafter(1.0, 0.0)]),
                        st.floats(0.0, 1.0, exclude_max=True)),
)
@example(contact=[-0.0, 5e-324, 2.2250738585072009e-308, 1.0, 0.0, 0.1] * 2,
         counts=[0, 1, 2, 3, 0, 2**40] * 2, threshold=0.1)
def test_dataset_round_trip_is_bit_exact(fuzz_dir, contact, counts, threshold):
    """save_dataset then load_dataset returns every cell of a record built
    as prep and simulate build theirs, with its bits and dtype: the stored
    contact and counts, and the binary contact and gradient derived again."""
    grid = GridSpec.synthetic(3, 4)
    shape = (grid.ny, grid.nx)
    c = np.array(contact).reshape(shape)
    rec = ShoeRecord("s0", "right", c, np.array(counts, dtype=np.int64).reshape(shape),
                     threshold)
    path = fuzz_dir / "round_trip.json"
    ds.save_dataset([rec], grid, path)
    [got], got_grid = ds.load_dataset(path)
    assert got_grid == grid
    assert (got.shoe_id, got.side) == (rec.shoe_id, rec.side)
    assert np.float64(got.threshold).tobytes() == np.float64(rec.threshold).tobytes()
    for key in ("contact", "contact_binary", "gradient", "counts"):
        want, have = getattr(rec, key), getattr(got, key)
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.tobytes() == want.tobytes(), key
    assert got.contact.flags.writeable and got.counts.flags.writeable


@pytest.mark.parametrize("edit", [
    lambda r: r.gradient.__setitem__((1, 1), np.nextafter(r.gradient[1, 1], 9.0)),
    lambda r: r.contact_binary.__setitem__((0, 0), 1 - r.contact_binary[0, 0]),
    lambda r: setattr(r, "contact_binary", r.contact_binary.astype(np.int64)),
    lambda r: setattr(r, "threshold", float("nan")),
    lambda r: setattr(r, "threshold", 1.0),
], ids=["gradient_one_ulp", "binary_cell_flipped", "binary_as_int64", "threshold_nan",
        "threshold_one"])
def test_save_refuses_a_record_its_contact_does_not_give(tmp_path, edit):
    """The file stores the contact and threshold only, so a hand-set derived
    cell or threshold would come back changed: the record refuses the edit,
    and saves to the same shoe entry as before it."""
    grid = GridSpec.synthetic(3, 4)
    c = np.linspace(0.0, 1.0, grid.n_cells).reshape(grid.ny, grid.nx)
    rec = ShoeRecord("hand7", "left", c, np.zeros((grid.ny, grid.nx), dtype=np.int64), 0.4)
    ds.save_dataset([rec], grid, tmp_path / "ok.json")
    with pytest.raises((dataclasses.FrozenInstanceError, ValueError)):
        edit(rec)
    ds.save_dataset([rec], grid, tmp_path / "data.json")
    shoes = [json.loads((tmp_path / name).read_text())["shoes"]
             for name in ("ok.json", "data.json")]
    assert shoes[1] == shoes[0]
    [got], _ = ds.load_dataset(tmp_path / "data.json")
    assert got.contact_binary.tobytes() == binarize(c, 0.4).tobytes()
    assert got.gradient.tobytes() == sobel_magnitude(c).tobytes()


# ---------------------------------------------------------------------------
# fuzz tests of prep and evaluate inputs: a documented exit code, never a traceback

ACCIDENTALS = "shoe_id,side,x,y\nscan,left,3.5,4.5\nscan,left,6.0,2.0\n"


@pytest.fixture(scope="module")
def scan_dir(tmp_path_factory):
    """A directory for one 10x10 scan, its annotations and a 5x5 grid on an 8x8 crop."""
    d = tmp_path_factory.mktemp("scan")
    (d / "img").mkdir()
    grid = GridSpec(nx=5, ny=5, crop_x=(1, 8), crop_y=(1, 8))
    (d / "grid.json").write_text(json.dumps(grid.to_json_dict()))
    return d


def _pgm_bytes(fmt):
    y, x = np.mgrid[0:10, 0:10]
    px = ((25 * x + 7 * y) % 256).astype(np.uint8)
    header = f"{fmt}\n10 10\n255\n".encode()
    if fmt == "P5":
        return header + px.tobytes()
    return header + "\n".join(" ".join(map(str, row)) for row in px).encode() + b"\n"


def _prep(d, pgm: bytes, accidentals: str) -> int:
    (d / "img" / "scan.pgm").write_bytes(pgm)
    (d / "acc.csv").write_text(accidentals)
    return main(["prep", "--images", str(d / "img"), "--accidentals", str(d / "acc.csv"),
                 "--grid-file", str(d / "grid.json"), "--out", str(d / "data.json")])


def test_prep_fuzz_inputs_are_valid(scan_dir):
    for fmt in ("P2", "P5"):
        assert _prep(scan_dir, _pgm_bytes(fmt), ACCIDENTALS) == 0


@settings(max_examples=50, deadline=None)
@given(fmt=st.sampled_from(["P2", "P5"]), truncate=st.booleans(),
       where=st.floats(0.0, 1.0, exclude_max=True),
       byte=st.sampled_from(sorted(set(string.printable.encode()))))
def test_prep_survives_one_corrupt_pgm(scan_dir, fmt, truncate, where, byte):
    """A PGM cut short at, or with one printable byte replaced at, a drawn offset."""
    raw = _pgm_bytes(fmt)
    at = int(where * len(raw))
    raw = raw[:at] if truncate else raw[:at] + bytes([byte]) + raw[at + 1:]
    assert _prep(scan_dir, raw, ACCIDENTALS) in (0, 1, 2)


@settings(max_examples=50, deadline=None)
@given(row=st.integers(0, 2), col=st.integers(0, 3),
       value=st.one_of(
           st.none(),
           st.sampled_from(["", "nan", "inf", "-1e308", "right", "ghost"]),
           st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6),
       ))
def test_prep_survives_one_bad_accidentals_field(scan_dir, row, col, value):
    """One field of the annotation CSV removed (None) or replaced."""
    rows = [line.split(",") for line in ACCIDENTALS.splitlines()]
    if value is None:
        del rows[row][col]
    else:
        rows[row][col] = value
    accidentals = "\n".join(",".join(r) for r in rows) + "\n"
    assert _prep(scan_dir, _pgm_bytes("P2"), accidentals) in (0, 1, 2)


@settings(max_examples=50, deadline=None)
@given(key=st.sampled_from(["marginal_mean", "marginal_sd", "psi_map"]),
       where=st.floats(0.0, 1.0, exclude_max=True),
       value=st.one_of(
           st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -1.0, 1e308]),
           st.floats(),
       ))
@example(key="psi_map", where=0.0, value=float("inf"))  # an infinite tau_s
def test_evaluate_survives_one_bad_fit_entry(simdir, fitfile, fuzz_dir, key, where, value):
    doc = json.loads(fitfile.read_text())
    entries = doc[key]
    names = list(entries) if key == "psi_map" else range(len(entries))
    entries[names[int(where * len(names))]] = value
    path = fuzz_dir / "fit.json"
    path.write_text(json.dumps(doc))
    code = main(["evaluate", "--fit", str(path), "--dataset", str(simdir / "dataset.json"),
                 "--out", str(fuzz_dir / "ev_fit")])
    assert code in (0, 1, 2)
