import dataclasses
import json

import numpy as np
import pytest

from coxforge.cli import main
from coxforge.crossval import (
    CvResult,
    FoldPlan,
    make_folds,
    pair_stem,
    run_cv,
    score_shoes,
    write_cv_outputs,
)
from coxforge.datasets import save_dataset
from coxforge.design import get_spec
from coxforge.errors import ConfigError
from coxforge.grids import GridSpec, ShoeRecord
from coxforge.inference import GridConfig, fit
from coxforge.metrics import uniform_metric
from coxforge.simulate import SimConfig, gen_dataset
from coxforge.util import parallel_map


@pytest.fixture(scope="module")
def cv_dataset():
    cfg = SimConfig(nx=5, ny=6, n_shoes=10, spec=get_spec("m_a"),
                    intercept=-0.7, seed=21)
    records, _ = gen_dataset(cfg)
    return cfg, records


class TestPairStem:
    @pytest.mark.parametrize("sid,stem", [
        ("123_L", "123"),
        ("123_R", "123"),
        ("123-r", "123"),
        ("case7left", "case7"),
        ("case7_RIGHT", "case7"),
        ("plain", "plain"),
        ("99", "99"),
    ])
    def test_examples(self, sid, stem):
        assert pair_stem(sid) == stem


class TestMakeFolds:
    def test_balanced_sizes(self):
        ids = [f"s{i}" for i in range(1300)]
        plan = make_folds(ids, 10, seed=0)
        sizes = np.bincount(list(plan.assignments.values()), minlength=10)
        assert sizes.tolist() == [130] * 10

    def test_sizes_differ_at_most_one(self):
        ids = [f"s{i}" for i in range(23)]
        plan = make_folds(ids, 5, seed=1)
        sizes = np.bincount(list(plan.assignments.values()), minlength=5)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == 23

    def test_singletons_when_k_equals_n(self):
        plan = make_folds(["a", "b", "c", "d", "e"], 5, seed=2)
        assert sorted(plan.assignments.values()) == [0, 1, 2, 3, 4]

    def test_same_seed_reproduces(self):
        ids = [f"s{i}" for i in range(40)]
        assert make_folds(ids, 4, seed=7) == make_folds(ids, 4, seed=7)

    def test_different_seed_differs(self):
        ids = [f"s{i}" for i in range(40)]
        a = make_folds(ids, 4, seed=7)
        b = make_folds(ids, 4, seed=8)
        assert a.assignments != b.assignments

    def test_pairs_travel_together(self):
        ids = ["10_L", "10_R", "11_L", "11_R", "12_L", "12_R", "solo"]
        plan = make_folds(ids, 2, seed=3, pair_folds=True)
        for stem in ("10", "11", "12"):
            assert plan.fold_of(f"{stem}_L") == plan.fold_of(f"{stem}_R")

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_folds(["a", "a"], 2, seed=0)
        with pytest.raises(ConfigError):
            make_folds(["a", "b"], 1, seed=0)
        with pytest.raises(ConfigError):
            make_folds(["a", "b"], 3, seed=0)

    def test_pair_folds_unit_count(self):
        # 2 stems -> k=3 exceeds assignable units even though 4 shoes exist
        ids = ["1_L", "1_R", "2_L", "2_R"]
        with pytest.raises(ConfigError):
            make_folds(ids, 3, seed=0, pair_folds=True)

    def test_plan_json_round_trip(self, cv_dataset, tmp_path):
        """The plan.json that cv writes holds the plan's k, seed and assignments."""
        cfg, records = cv_dataset
        save_dataset(records, cfg.grid, tmp_path / "data.json")
        assert main(["cv", "--dataset", str(tmp_path / "data.json"), "--models", "uniform",
                     "--folds", "3", "--seed", "4", "--out", str(tmp_path / "cv")]) == 0
        plan = make_folds([r.shoe_id for r in records], 3, seed=4)
        written = json.loads((tmp_path / "cv" / "plan.json").read_text())
        assert written == {"k": 3, "seed": 4, "assignments": plan.assignments}

    def test_plan_rejects_out_of_range_fold(self):
        with pytest.raises(ConfigError):
            FoldPlan(k=2, assignments={"a": 5}, seed=0)


class TestRunCv:
    def test_uniform_model_scores_are_exactly_uniform(self, cv_dataset):
        """-log(n_cells * cell_area), on a unit-area grid and on one whose
        cells cover 3x4 scan pixels."""
        cfg, records = cv_dataset
        plan = make_folds([r.shoe_id for r in records], 2, seed=0)
        scan = GridSpec(nx=cfg.nx, ny=cfg.ny,
                        crop_x=(0, 3 * cfg.nx - 1), crop_y=(0, 4 * cfg.ny - 1))
        assert scan.cell_area == 12.0
        for grid in (cfg.grid, scan):
            result = run_cv(records, [get_spec("uniform")], plan, grid=grid)
            want = uniform_metric(grid)
            for f in range(2):
                assert result.fold_means[(f, "uniform")] == pytest.approx(
                    want, abs=1e-12)
            for v in result.per_shoe["uniform"].values():
                assert v == pytest.approx(want, abs=1e-12)

    def test_every_nonzero_shoe_scored_once(self, cv_dataset):
        cfg, records = cv_dataset
        plan = make_folds([r.shoe_id for r in records], 2, seed=0)
        result = run_cv(records, [get_spec("uniform")], plan, grid=cfg.grid)
        nonzero = {r.shoe_id for r in records if r.counts.sum() > 0}
        assert set(result.per_shoe["uniform"]) == nonzero
        assert result.excluded_zero_count == len(records) - len(nonzero)

    def test_held_out_shoes_do_not_influence_fits(self, cv_dataset):
        """Perturbing one held-out shoe's counts leaves every other score
        in its fold bit-identical: the fold's fit never saw the change."""
        cfg, records = cv_dataset
        plan = make_folds([r.shoe_id for r in records], 2, seed=1)
        spec = get_spec("m_a")
        base = run_cv(records, [spec], plan, grid=cfg.grid)

        fold0 = [r for r in records if plan.fold_of(r.shoe_id) == 0
                 and r.counts.sum() > 0]
        assert len(fold0) >= 2
        victim = fold0[0].shoe_id
        bumped = []
        for r in records:
            if r.shoe_id == victim:
                c = r.counts.copy()
                c[0, 0] += 5
                bumped.append(dataclasses.replace(r, counts=c))
            else:
                bumped.append(r)
        redo = run_cv(bumped, [spec], plan, grid=cfg.grid)

        for r in fold0[1:]:
            assert redo.per_shoe["m_a"][r.shoe_id] == \
                base.per_shoe["m_a"][r.shoe_id]
        # the victim's own score does change (it is scored, not fitted)
        assert redo.per_shoe["m_a"][victim] != base.per_shoe["m_a"][victim]

    def test_failed_cell_recorded_and_table_survives(self, tmp_path):
        cfg = SimConfig(nx=4, ny=4, n_shoes=6, spec=get_spec("m_a"),
                        intercept=-0.5, seed=30)
        records, _ = gen_dataset(cfg)
        # empty fold 1's shoes: fold 0's cell then trains on all-zero data
        # and must fail; the run still completes and reports the failure
        records = [r if i < 3 else
                   dataclasses.replace(r, counts=np.zeros_like(r.counts))
                   for i, r in enumerate(records)]
        assignments = {r.shoe_id: (0 if i < 3 else 1)
                       for i, r in enumerate(records)}
        plan = FoldPlan(k=2, assignments=assignments, seed=0)
        result = run_cv(records, [get_spec("uniform")], plan, grid=cfg.grid)
        assert (0, "uniform") in result.failures
        assert "zero" in result.failures[(0, "uniform")]
        # fold 1's test shoes are the emptied ones, so nothing is scored
        assert result.excluded_zero_count == 3
        assert result.fold_means == {}
        paths = write_cv_outputs(result, tmp_path)
        table = (tmp_path / "cv_table.csv").read_text()
        assert "zero" in table

    def test_pairwise_stats_present_for_model_pairs(self, cv_dataset):
        cfg, records = cv_dataset
        plan = make_folds([r.shoe_id for r in records], 2, seed=2)
        result = run_cv(records, [get_spec("uniform"), get_spec("m_a")], plan, grid=cfg.grid)
        assert set(result.pairwise) == {"uniform_vs_m_a", "m_a_vs_uniform"}
        stats = result.pairwise["uniform_vs_m_a"]
        assert stats["median_loss_ratio"] > 0
        assert stats["fold_gain"] > 0
        # uniform metrics are constant across shoes -> ccc undefined
        assert stats["ccc"] is None

    def test_plan_must_cover_records(self, cv_dataset):
        cfg, records = cv_dataset
        plan = make_folds([r.shoe_id for r in records[:-1]], 2, seed=0)
        with pytest.raises(ConfigError):
            run_cv(records, [get_spec("uniform")], plan, grid=cfg.grid)

    def test_duplicate_model_names_rejected(self, cv_dataset):
        cfg, records = cv_dataset
        plan = make_folds([r.shoe_id for r in records], 2, seed=0)
        with pytest.raises(ConfigError):
            run_cv(records, [get_spec("m_a"), get_spec("m_a")], plan, grid=cfg.grid)

    def test_thread_count_invariant(self, cv_dataset):
        """Under both strategies, every thread count gives the same JSON."""
        cfg, records = cv_dataset
        plan = make_folds([r.shoe_id for r in records], 2, seed=3)
        for strategy in ("empirical_bayes", "grid"):
            docs = set()
            for threads in (1, 2, 4):
                res = run_cv(records, [get_spec("uniform"), get_spec("m_a")], plan, grid=cfg.grid,
                             fit_strategy=strategy, grid_config=GridConfig(points=3),
                             threads=threads)
                docs.add(json.dumps([res.to_json_dict(), res.per_shoe], sort_keys=True))
            assert len(docs) == 1, strategy

    def test_thread_count_below_one_rejected(self, cv_dataset):
        cfg, records = cv_dataset
        plan = make_folds([r.shoe_id for r in records], 2, seed=3)
        with pytest.raises(ConfigError, match="threads"):
            run_cv(records, [get_spec("uniform")], plan, grid=cfg.grid, threads=0)


class TestScoreShoes:
    def test_record_off_the_fit_grid_refused(self, cv_dataset):
        """A 4x6 record against a fit on 5x6: the fit's grid decides, and the
        error names the shoe, whether or not it has accidentals."""
        cfg, records = cv_dataset
        res = fit(records, get_spec("uniform"), cfg.grid)
        for counts in (np.ones((6, 4), dtype=np.int64), np.zeros((6, 4), dtype=np.int64)):
            odd = ShoeRecord("odd7", "left", np.full((6, 4), 0.5), counts, 0.5)
            with pytest.raises(ConfigError, match=r"'odd7' is on a 4x6 grid, the fit on 5x6"):
                score_shoes(res, [*records, odd])


@pytest.mark.parametrize("items", [[1, -2], [-1]])
def test_parallel_map_rejects_threads_below_one(items):
    with pytest.raises(ConfigError, match="threads"):
        parallel_map(abs, items, 0)


class TestOutputs:
    def test_files_and_columns(self, cv_dataset, tmp_path):
        cfg, records = cv_dataset
        plan = make_folds([r.shoe_id for r in records], 2, seed=4)
        result = run_cv(records, [get_spec("uniform"), get_spec("m_a")], plan, grid=cfg.grid)
        paths = write_cv_outputs(result, tmp_path)
        assert sorted(p.name for p in paths) == [
            "cv_table.csv", "pairwise.json", "per_shoe.csv"]

        lines = (tmp_path / "cv_table.csv").read_text().strip().splitlines()
        assert lines[0] == "fold,model,mean_metric,n_shoes,error"
        avg_rows = [ln for ln in lines if ln.startswith("avg,")]
        assert len(avg_rows) == 2  # one per model

        shoe_lines = (tmp_path / "per_shoe.csv").read_text().strip().splitlines()
        assert shoe_lines[0] == "fold,model,shoe_id,metric,n_accidentals"
        n_scored = sum(len(v) for v in result.per_shoe.values())
        assert len(shoe_lines) == 1 + n_scored

        pw = json.loads((tmp_path / "pairwise.json").read_text())
        assert "uniform_vs_m_a" in pw

    def test_avg_row_matches_fold_mean_average(self, cv_dataset, tmp_path):
        cfg, records = cv_dataset
        plan = make_folds([r.shoe_id for r in records], 2, seed=5)
        result = run_cv(records, [get_spec("uniform")], plan, grid=cfg.grid)
        write_cv_outputs(result, tmp_path)
        lines = (tmp_path / "cv_table.csv").read_text().strip().splitlines()
        avg = [ln for ln in lines if ln.startswith("avg,uniform")][0]
        got = float(avg.split(",")[2])
        want = np.mean(result.model_fold_means("uniform"))
        assert got == pytest.approx(want, rel=1e-9)

    def test_result_json_round_trippable(self, cv_dataset):
        cfg, records = cv_dataset
        plan = make_folds([r.shoe_id for r in records], 2, seed=6)
        result = run_cv(records, [get_spec("uniform")], plan, grid=cfg.grid)
        doc = json.loads(json.dumps(result.to_json_dict()))
        assert doc["plan"]["k"] == 2
        assert doc["models"] == ["uniform"]
        assert all(isinstance(v, float) for v in doc["fold_means"].values())
