import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxforge import datasets as ds
from coxforge.design import get_spec
from coxforge.errors import ConfigError, InputDataError
from coxforge.gradient import sobel_magnitude
from coxforge.grids import (
    GridSpec,
    RawImage,
    ShoeRecord,
    bin_accidentals,
    binarize,
    coarsen,
    crop_reflect,
    make_record,
    otsu_threshold,
)
from coxforge.simulate import SimConfig, gen_dataset


def test_default_grid_geometry():
    g = GridSpec()
    assert (g.nx, g.ny) == (39, 91)
    assert (g.src_w, g.src_h) == (336, 783)
    assert g.n_cells == 3549
    assert g.cell_area == pytest.approx(336 * 783 / 3549)


def test_gridspec_rejects_inconsistent_crop():
    """A crop window whose far edge comes before its near one spans no pixels."""
    with pytest.raises(ConfigError):
        GridSpec(crop_x=(597, 262))
    with pytest.raises(ConfigError):
        GridSpec(crop_y=(44, 43))


def test_gridspec_json_round_trip():
    g = GridSpec.synthetic(5, 7)
    assert g.to_json_dict() == {"nx": 5, "ny": 7, "crop_x": [0, 4], "crop_y": [0, 6]}
    assert GridSpec.from_json_dict(g.to_json_dict()) == g


def test_gridspec_json_ignores_keys_it_does_not_read():
    """Grid files written with the window's size and physical ranges still
    load: the size is derived from the crop window, whatever the file says."""
    d = {"nx": 3, "ny": 4, "src_w": 99, "src_h": "16", "crop_x": [0, 11], "crop_y": [0, 15],
         "x_range": [0.0, 12.0], "y_range": [False, 16.0]}
    g = GridSpec.from_json_dict(d)
    assert g == GridSpec(nx=3, ny=4, crop_x=(0, 11), crop_y=(0, 15))
    assert (g.src_w, g.src_h) == (12, 16)


class TestCropReflect:
    def test_left_shoe_crop_dims_and_origin(self):
        g = GridSpec()
        px = np.zeros((869, 869))
        px[44, 262] = 1.0  # the crop origin
        out = crop_reflect(RawImage(px, "left"), g)
        assert out.shape == (783, 336)
        assert out[0, 0] == 1.0
        assert out.sum() == 1.0

    def test_mirror_symmetric_right_shoe_is_fixed_point(self):
        g = GridSpec.synthetic(6, 4)
        base = np.random.default_rng(0).uniform(size=(4, 6))
        sym = (base + base[:, ::-1]) / 2
        left = crop_reflect(RawImage(sym, "left"), g)
        right = crop_reflect(RawImage(sym, "right"), g)
        assert np.allclose(left, right)

    def test_right_shoe_single_pixel_mirrors(self):
        g = GridSpec()
        for j in (0, 17, 335):
            px = np.zeros((869, 869))
            px[100, 262 + j] = 1.0
            out = crop_reflect(RawImage(px, "right"), g)
            assert out[100 - 44, g.src_w - 1 - j] == 1.0

    def test_reflection_is_involution(self):
        g = GridSpec.synthetic(8, 5)
        px = np.random.default_rng(1).uniform(size=(5, 8))
        once = crop_reflect(RawImage(px, "right"), g)
        twice = crop_reflect(RawImage(once, "right"), g)
        assert np.array_equal(twice, px)

    def test_undersized_scan_rejected(self):
        g = GridSpec()
        with pytest.raises(InputDataError):
            crop_reflect(RawImage(np.zeros((100, 100)), "left"), g)

    def test_out_of_range_intensities_rejected(self):
        g = GridSpec.synthetic(3, 3)
        with pytest.raises(InputDataError):
            crop_reflect(RawImage(np.full((3, 3), 1.5), "left"), g)
        # a NaN compares false with both bounds, and must still fail
        px = np.zeros((3, 3))
        px[1, 2] = np.nan
        with pytest.raises(InputDataError):
            crop_reflect(RawImage(px, "left"), g)


class TestCoarsen:
    def test_constant_surface(self):
        g = GridSpec(nx=3, ny=5, crop_x=(0, 8), crop_y=(0, 19))
        out = coarsen(np.full((20, 9), 0.3), g)
        assert np.allclose(out, 0.3)

    def test_2x2_to_single_cell_mean(self):
        g = GridSpec(nx=1, ny=1, crop_x=(0, 1), crop_y=(0, 1))
        img = np.array([[0.2, 0.4], [0.6, 0.8]])
        assert coarsen(img, g)[0, 0] == pytest.approx(0.5)

    def test_fractional_patch_area_weighting(self):
        # 3 source pixels {1,0,0} into 2 cells of width 1.5:
        # cell 1 = (1*1 + 0*0.5)/1.5 = 2/3, cell 2 = 0
        g = GridSpec(nx=2, ny=1, crop_x=(0, 2), crop_y=(0, 0))
        out = coarsen(np.array([[1.0, 0.0, 0.0]]), g)
        assert out[0] == pytest.approx([2 / 3, 0.0])

    @given(
        nx=st.integers(1, 6), ny=st.integers(1, 6),
        sw=st.integers(1, 19), sh=st.integers(1, 19),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_mass_preserved(self, nx, ny, sw, sh, seed):
        g = GridSpec(nx=nx, ny=ny, crop_x=(0, sw - 1), crop_y=(0, sh - 1))
        img = np.random.default_rng(seed).uniform(size=(sh, sw))
        out = coarsen(img, g)
        assert out.sum() * g.cell_area == pytest.approx(img.sum(), abs=1e-9)

    def test_shape_mismatch_rejected(self):
        g = GridSpec.synthetic(4, 4)
        with pytest.raises(ConfigError):
            coarsen(np.zeros((5, 4)), g)


class TestOtsu:
    def _brute_force(self, values, bins=256):
        """Exhaustive maximization of between-class variance over cut bins."""
        hist, edges = np.histogram(values, bins=bins, range=(0.0, 1.0))
        p = hist / hist.sum()
        best, best_sigma = 0, -1.0
        for t in range(bins - 1):
            w0 = p[: t + 1].sum()
            w1 = 1 - w0
            if w0 == 0 or w1 == 0:
                continue
            centers = (edges[:-1] + edges[1:]) / 2
            mu0 = (p[: t + 1] @ centers[: t + 1]) / w0
            mu1 = (p[t + 1 :] @ centers[t + 1 :]) / w1
            sigma = w0 * w1 * (mu0 - mu1) ** 2
            if sigma > best_sigma + 1e-15:
                best_sigma, best = sigma, t
        return edges[best + 1]

    def test_bimodal_splits_evenly(self):
        vals = np.array([0.1] * 50 + [0.9] * 50)
        thr = otsu_threshold(vals)
        assert 0.1 < thr < 0.9
        assert (vals > thr).sum() == 50

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        vals = np.concatenate([
            rng.normal(0.3, 0.08, size=200), rng.normal(0.75, 0.05, size=120),
        ]).clip(0, 1)
        assert otsu_threshold(vals) == pytest.approx(self._brute_force(vals))

    def test_all_zero_surface(self):
        out = binarize(np.zeros((4, 4)), 0.5)
        assert not out.any()

    def test_binarize_fixed_threshold(self):
        out = binarize(np.array([[0.1, 0.9]]), 0.5)
        assert out.tolist() == [[0, 1]]
        assert out.dtype == np.uint8

    def test_binarize_matches_threshold_invariant(self):
        """Without a threshold, a record is cut at Otsu's on its own surface."""
        rng = np.random.default_rng(5)
        surf = rng.uniform(size=(7, 7))
        thr = otsu_threshold(surf)
        # one pixel per cell: the coarsened surface is the scan itself
        rec, _ = make_record(RawImage(surf, "left"), "s", [], GridSpec.synthetic(7, 7))
        assert np.array_equal(rec.contact, surf)
        assert rec.threshold == thr
        assert np.array_equal(rec.contact_binary == 1, surf > thr)

    def test_binarize_rejects_bad_threshold(self):
        with pytest.raises(ConfigError):
            binarize(np.zeros((2, 2)), 1.2)


class TestBinAccidentals:
    def test_empty_points(self):
        g = GridSpec()
        counts, rejects = bin_accidentals([], "left", g)
        assert counts.sum() == 0 and counts.shape == (91, 39)
        assert rejects == []

    def test_point_at_cell_center(self):
        g = GridSpec()
        wx, wy = g.src_w / g.nx, g.src_h / g.ny
        k, l = 7, 20
        x = g.crop_x[0] + (k + 0.5) * wx
        y = g.crop_y[0] + (l + 0.5) * wy
        counts, rejects = bin_accidentals([(x, y)], "left", g)
        assert counts[l, k] == 1 and counts.sum() == 1
        assert not rejects

    def test_right_shoe_mirrors_consistently_with_crop(self):
        g = GridSpec()
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.uniform(g.crop_x[0], g.crop_x[0] + g.src_w - 1e-9)
            y = rng.uniform(g.crop_y[0], g.crop_y[0] + g.src_h - 1e-9)
            counts, _ = bin_accidentals([(x, y)], "right", g)
            # mirror the cropped column exactly as crop_reflect does
            px = np.zeros((869, 869))
            px[int(y), int(x)] = 1.0
            img = crop_reflect(RawImage(px, "right"), g)
            r, c = np.argwhere(img == 1.0)[0]
            ky, kx = np.argwhere(counts == 1)[0]
            wx, wy = g.src_w / g.nx, g.src_h / g.ny
            # the point and its pixel land in the same cell unless the
            # fractional mirror puts them on either side of a cell edge;
            # allow the one-cell slack that pixel quantization introduces
            assert abs(kx - min(int(c / wx), g.nx - 1)) <= 1
            assert abs(ky - min(int(r / wy), g.ny - 1)) <= 1

    def test_out_of_crop_collected(self):
        g = GridSpec()
        pts = [(0.0, 0.0), (300.0, 100.0), (9999.0, 50.0)]
        counts, rejects = bin_accidentals(pts, "left", g)
        assert counts.sum() == 1
        assert sorted(rejects) == [(0.0, 0.0), (9999.0, 50.0)]

    def test_left_round_trip_with_coarsen_one_hot(self):
        g = GridSpec()
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.uniform(g.crop_x[0], g.crop_x[0] + g.src_w - 1)
            y = rng.uniform(g.crop_y[0], g.crop_y[0] + g.src_h - 1)
            counts, _ = bin_accidentals([(x, y)], "left", g)
            one_hot = np.zeros((869, 869))
            one_hot[int(y), int(x)] = 1.0
            coarse = coarsen(crop_reflect(RawImage(one_hot, "left"), g), g)
            ky, kx = np.argwhere(counts == 1)[0]
            my, mx = np.unravel_index(np.argmax(coarse), coarse.shape)
            # pixel mass can straddle cell edges; centers match up to a cell
            assert abs(int(my) - ky) <= 1 and abs(int(mx) - kx) <= 1


def test_make_record_full_pipeline():
    g = GridSpec.synthetic(6, 8)
    rng = np.random.default_rng(4)
    img = RawImage(rng.uniform(size=(8, 6)), "left")
    pts = [(1.4, 2.2), (5.0, 7.0), (100.0, 3.0)]
    rec, rejects = make_record(img, "toy", pts, g)
    assert rec.counts.sum() == 2
    assert len(rejects) == 1
    assert rec.contact.shape == (8, 6)
    assert set(np.unique(rec.contact_binary)) <= {0, 1}
    assert (rec.gradient >= 0).all()
    assert 0.0 <= rec.threshold < 1.0


def _made_records(source, tmp_path):
    if source == "make_record":
        rng = np.random.default_rng(4)
        grid = GridSpec.synthetic(6, 8)
        return [make_record(RawImage(rng.uniform(size=(8, 6)), side), f"m{i}", [], grid,
                            threshold)[0]
                for i, (side, threshold) in enumerate([("left", None), ("right", 0.3)])]
    records, _ = gen_dataset(SimConfig(nx=5, ny=4, n_shoes=4, spec=get_spec("m_b"), seed=3))
    if source == "gen_dataset":
        return records
    ds.save_dataset(records, GridSpec.synthetic(5, 4), tmp_path / "data.json")
    return ds.load_dataset(tmp_path / "data.json")[0]


class TestShoeRecord:
    @staticmethod
    def _record(**kw):
        c = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        return ShoeRecord(**{"shoe_id": "hand7", "side": "left", "contact": c,
                             "counts": np.zeros((3, 4), dtype=np.int64), "threshold": 0.4,
                             **kw})

    @pytest.mark.parametrize("source", ["make_record", "gen_dataset", "load_dataset"])
    def test_derived_arrays_are_those_of_the_contact(self, source, tmp_path):
        """Bit for bit and dtype included, however the record was made."""
        for rec in _made_records(source, tmp_path):
            for have, want in ((rec.contact_binary, binarize(rec.contact, rec.threshold)),
                               (rec.gradient, sobel_magnitude(rec.contact))):
                assert have.dtype == want.dtype and have.shape == want.shape
                assert have.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["shoe_id", "side", "contact", "counts", "threshold",
                                      "contact_binary", "gradient"])
    def test_no_field_can_be_reassigned(self, name):
        rec = self._record()
        value = getattr(rec, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, value)

    @pytest.mark.parametrize("name", ["contact_binary", "gradient"])
    def test_derived_arrays_are_read_only(self, name):
        arr = getattr(self._record(), name)
        with pytest.raises(ValueError):
            arr[0, 0] = 1

    @pytest.mark.parametrize("kw", [
        {"threshold": float("nan")}, {"threshold": 1.0}, {"threshold": -0.1}, {"side": "up"},
    ], ids=["threshold_nan", "threshold_one", "threshold_negative", "side_up"])
    def test_construction_refuses_bad_threshold_or_side(self, kw):
        with pytest.raises((ConfigError, InputDataError), match="shoe hand7"):
            self._record(**kw)
