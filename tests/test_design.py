import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _toys import covariate_value
from coxforge.design import (
    INTERCEPT,
    ModelSpec,
    build_tensor,
    builtin_specs,
    get_spec,
    index_from_string,
    index_to_string,
    interaction_order,
)
from coxforge.errors import ConfigError
from coxforge.grids import ShoeRecord
from coxforge.model import Design


def _record(seed=0, nx=5, ny=4):
    rng = np.random.default_rng(seed)
    contact = rng.uniform(size=(ny, nx))
    return ShoeRecord(
        shoe_id=f"r{seed}",
        side="left",
        contact=contact,
        counts=np.zeros((ny, nx), dtype=int),
        threshold=0.5,
    )


class TestIndexCodec:
    def test_round_trip(self):
        for s in ("000000", "100001", "111111", "010101"):
            assert index_to_string(index_from_string(s)) == s

    def test_rejects_bad_strings(self):
        for s in ("00000", "0000000", "10000x", ""):
            with pytest.raises(ConfigError):
                index_from_string(s)

    def test_interaction_order(self):
        assert interaction_order(INTERCEPT) == 0
        assert interaction_order((1, 0, 0, 0, 0, 1)) == 2
        assert interaction_order((1, 1, 1, 1, 1, 1)) == 6


class TestBuiltinBattery:
    def test_model_sizes(self):
        specs = builtin_specs()
        assert len(specs["uniform"].fixed) == 1
        assert not specs["uniform"].smooth
        assert len(specs["m_a"].fixed) == 1
        assert specs["m_a"].smooth
        assert len(specs["m_b"].fixed) == 32
        assert specs["m_b"].contact == "binary"
        assert len(specs["m_b"].varying) == 0
        assert len(specs["variant_a"].varying) == 15
        assert len(specs["variant_b"].fixed) == 64
        assert len(specs["m_final"].fixed) == 64
        assert len(specs["m_final"].varying) == 3

    def test_m_final_varying_terms(self):
        varying = {index_to_string(i) for i in get_spec("m_final").varying}
        assert varying == {"100000", "000001", "100001"}

    def test_m_b_indices_exclude_gradient(self):
        for idx in get_spec("m_b").fixed:
            assert idx[5] == 0

    def test_intercept_listed_first(self):
        for name in ("m_b", "variant_b", "m_final"):
            assert get_spec(name).fixed[0] == INTERCEPT

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            get_spec("nope")

    def test_battery_is_built_once(self):
        assert get_spec("m_final") is get_spec("m_final")
        # a caller's copy of the battery leaves the battery as it is
        builtin_specs().pop("m_final")
        assert "m_final" in builtin_specs()


class TestModelSpecValidation:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec("d", fixed=(INTERCEPT, INTERCEPT))

    def test_varying_without_smooth_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec("v", fixed=(INTERCEPT,), varying=(INTERCEPT,), smooth=False)

    def test_bad_contact_mode_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec("c", fixed=(INTERCEPT,), contact="fuzzy")

    def test_json_round_trip(self):
        spec = get_spec("m_final")
        assert ModelSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_json_missing_key(self):
        with pytest.raises(ConfigError):
            ModelSpec.from_json_dict({"fixed": []})


class TestCovariateValues:
    def test_intercept_is_one_everywhere(self):
        rec = _record()
        t = build_tensor(rec, (INTERCEPT,), get_spec("m_a"))
        assert np.all(t == 1.0)

    def test_single_factor_center(self):
        rec = _record()
        t = build_tensor(rec, ((1, 0, 0, 0, 0, 0),), get_spec("m_a"))
        assert np.allclose(t[:, 0], rec.contact.ravel())

    def test_gradient_factor(self):
        rec = _record()
        t = build_tensor(rec, ((0, 0, 0, 0, 0, 1),), get_spec("m_a"))
        assert np.allclose(t[:, 0], rec.gradient.ravel())

    def test_out_of_grid_neighbors_are_zero(self):
        rec = _record(nx=4, ny=3)
        # left neighbor of column 0 is outside the grid
        left = (0, 1, 0, 0, 0, 0)
        assert covariate_value(rec.contact, rec.gradient, left, (1, 0)) == 0.0
        # upper neighbor of the last row
        up = (0, 0, 0, 0, 1, 0)
        assert covariate_value(rec.contact, rec.gradient, up, (2, 2)) == 0.0

    def test_neighbor_orientation(self):
        contact = np.arange(12, dtype=float).reshape(3, 4)
        grad = np.zeros((3, 4))
        # at cell (1,1)=5: left=4, right=6, down(y-1)=1, up(y+1)=9
        cases = {
            (0, 1, 0, 0, 0, 0): 4.0,
            (0, 0, 1, 0, 0, 0): 6.0,
            (0, 0, 0, 1, 0, 0): 1.0,
            (0, 0, 0, 0, 1, 0): 9.0,
        }
        for idx, want in cases.items():
            assert covariate_value(contact, grad, idx, (1, 1)) == want

    def test_product_of_all_six(self):
        rec = _record(seed=3)
        idx = (1, 1, 1, 1, 1, 1)
        y, x = 2, 2
        want = (
            rec.contact[y, x]
            * rec.contact[y, x - 1]
            * rec.contact[y, x + 1]
            * rec.contact[y - 1, x]
            * rec.contact[y + 1, x]
            * rec.gradient[y, x]
        )
        got = covariate_value(rec.contact, rec.gradient, idx, (y, x))
        assert got == pytest.approx(want, rel=1e-14)

    @given(seed=st.integers(0, 2**31), bits=st.integers(0, 63))
    @settings(max_examples=60, deadline=None)
    def test_tensor_matches_scalar_reference(self, seed, bits):
        idx = tuple(int(b) for b in format(bits, "06b"))
        rec = _record(seed=seed, nx=4, ny=3)
        t = build_tensor(rec, (idx,), get_spec("m_a"))
        for y in range(3):
            for x in range(4):
                want = covariate_value(rec.contact, rec.gradient, idx, (y, x))
                assert t[y * 4 + x, 0] == pytest.approx(want, abs=1e-13)

    def test_index_entries_are_exponents(self):
        rec = _record(seed=4)
        idx = ((2, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1))
        t = build_tensor(rec, idx, get_spec("m_a"))
        assert np.allclose(t[:, 0], t[:, 1] ** 2 * t[:, 2], rtol=1e-14, atol=0)

    def test_binary_contact_mode_uses_binarized_surface(self):
        rec = _record(seed=8)
        idx = ((1, 0, 0, 0, 0, 0),)
        t_bin = build_tensor(rec, idx, get_spec("m_b"))
        assert np.allclose(t_bin[:, 0], rec.contact_binary.ravel())
        t_cont = build_tensor(rec, idx, get_spec("variant_b"))
        assert np.allclose(t_cont[:, 0], rec.contact.ravel())

    def test_multiple_shoes_stack(self):
        # a design's factor maps stack the records' tensors, [cell, shoe, column]
        recs = [_record(seed=s) for s in range(3)]
        spec = get_spec("m_final")
        d = Design(recs, spec)
        assert d.U.shape[:2] == (20, 3)
        solo = build_tensor(recs[1], d.columns.u_columns, spec)
        assert np.array_equal(d.U[:, 1], solo)
