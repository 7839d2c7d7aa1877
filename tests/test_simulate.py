from dataclasses import replace

import numpy as np
import pytest

from coxforge.design import get_spec
from coxforge.errors import ConfigError
from coxforge.model import ShoeModel, ThetaLayout
from coxforge.simulate import (
    CONTACT_KINDS,
    SimConfig,
    gen_contact,
    gen_dataset,
    true_theta,
)

SMALL = SimConfig(nx=5, ny=6, n_shoes=8, spec=get_spec("m_a"),
                  intercept=-1.0, seed=3)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(nx=1)
        with pytest.raises(ConfigError):
            SimConfig(n_shoes=0)
        with pytest.raises(ConfigError):
            SimConfig(contact_kind="plaid")
        with pytest.raises(ConfigError):
            SimConfig(tau_s=0.0)
        for bad in ({"tau_s": np.nan}, {"tau_v": np.inf}, {"intercept": -np.inf}):
            with pytest.raises(ConfigError):
                SimConfig(**bad)

    def test_intensity_past_the_sampler_is_config_error(self):
        with pytest.raises(ConfigError, match="intercept"):
            gen_dataset(replace(SMALL, intercept=60.0))

    def test_grid_is_unit_area(self):
        assert SMALL.grid.cell_area == 1.0
        assert SMALL.grid.n_cells == 30

    def test_psi_expands_varying_precisions(self):
        cfg = SimConfig(spec=get_spec("m_final"), tau_v=5.0)
        assert cfg.psi == {"tau_s": cfg.tau_s, "tau_sm": cfg.tau_sm, "tau_v[100000]": 5.0,
                           "tau_v[000001]": 5.0, "tau_v[100001]": 5.0}
        assert SimConfig(spec=get_spec("uniform")).psi == {"tau_s": 4.0}


class TestContactSurfaces:
    @pytest.mark.parametrize("kind", CONTACT_KINDS)
    def test_surface_in_unit_interval(self, kind):
        cfg = SimConfig(nx=8, ny=10, n_shoes=1, contact_kind=kind)
        for i in range(20):
            surface, grad = gen_contact(cfg, i)
            assert surface.shape == (10, 8)
            assert surface.min() >= 0.0 and surface.max() <= 1.0
            assert grad.shape == surface.shape
            assert (grad >= 0).all()

    def test_blob_surfaces_have_moderate_coverage(self):
        cfg = SimConfig(nx=12, ny=16, n_shoes=1)
        means = [gen_contact(cfg, i)[0].mean() for i in range(100)]
        assert 0.2 < min(means) and max(means) < 0.95

    def test_per_shoe_streams_independent_of_count(self):
        # shoe i's surface depends only on (seed, i), not on n_shoes
        a = gen_contact(SimConfig(nx=6, ny=6, n_shoes=3, seed=9), 2)[0]
        b = gen_contact(SimConfig(nx=6, ny=6, n_shoes=50, seed=9), 2)[0]
        assert np.array_equal(a, b)

    def test_different_shoes_differ(self):
        cfg = SimConfig(nx=8, ny=8, n_shoes=2, seed=4)
        assert not np.array_equal(gen_contact(cfg, 0)[0],
                                  gen_contact(cfg, 1)[0])


class TestTrueTheta:
    def test_constrained_blocks_sum_to_zero(self):
        cfg = SimConfig(nx=6, ny=7, n_shoes=10, spec=get_spec("m_final"))
        theta = true_theta(cfg, np.random.default_rng(0))
        lay = ThetaLayout.for_model(10, cfg.spec, 42)
        assert abs(theta[lay.smooth_block].sum()) < 1e-10
        for j in range(lay.n_varying):
            assert abs(theta[lay.varying_block(j)].sum()) < 1e-10

    def test_intercept_pinned(self):
        cfg = SimConfig(nx=4, ny=4, n_shoes=3, intercept=-2.2)
        theta = true_theta(cfg, np.random.default_rng(1))
        lay = ThetaLayout.for_model(3, cfg.spec, 16)
        k = cfg.spec.fixed.index((0, 0, 0, 0, 0, 0))
        assert theta[lay.fixed][k] == -2.2

    def test_fixed_effects_stay_small(self):
        cfg = SimConfig(nx=4, ny=4, n_shoes=2)
        theta = true_theta(cfg, np.random.default_rng(2))
        lay = ThetaLayout.for_model(2, cfg.spec, 16)
        beta = np.delete(theta[lay.fixed],
                         cfg.spec.fixed.index((0, 0, 0, 0, 0, 0)))
        assert np.abs(beta).max() < 0.3 * 6  # sd 0.3, 63 draws

    def test_shoe_effects_scale_with_tau(self):
        cfg = SimConfig(nx=4, ny=4, n_shoes=4000, spec=get_spec("uniform"),
                        tau_s=4.0)
        theta = true_theta(cfg, np.random.default_rng(3))
        sd = theta[:4000].std()
        assert sd == pytest.approx(0.5, rel=0.1)


class TestGenDataset:
    def test_deterministic(self):
        r1, t1 = gen_dataset(SMALL)
        r2, t2 = gen_dataset(SMALL)
        assert np.array_equal(t1, t2)
        for a, b in zip(r1, r2):
            assert a.shoe_id == b.shoe_id
            assert np.array_equal(a.counts, b.counts)
            assert np.array_equal(a.contact, b.contact)

    def test_record_shapes_and_ids(self):
        records, theta = gen_dataset(SMALL)
        assert len(records) == 8
        assert [r.shoe_id for r in records] == [f"sim{i:04d}" for i in range(8)]
        assert {r.side for r in records} == {"left", "right"}
        for r in records:
            r.validate(SMALL.grid)
            assert r.counts.dtype == np.int64

    def test_theta_layout_length(self):
        records, theta = gen_dataset(SMALL)
        lay = ThetaLayout.for_model(8, SMALL.spec, 30)
        assert theta.shape == (lay.n_total,)

    def test_counts_concentrate_near_intensity(self):
        # law of large numbers at ~1e4 cells: the realized total count
        # sits within 3 Poisson standard deviations of its expectation
        cfg = SimConfig(nx=24, ny=28, n_shoes=16, spec=get_spec("m_a"),
                        intercept=-0.5, seed=11)
        records, theta = gen_dataset(cfg)
        model = ShoeModel(records, cfg.spec, cfg.grid)
        lam = np.exp(model.eta(theta))
        expect = lam.sum()
        got = sum(r.counts.sum() for r in records)
        assert abs(got - expect) < 3 * np.sqrt(expect)

    def test_deep_negative_intercept_gives_empty_dataset(self):
        cfg = SimConfig(nx=4, ny=4, n_shoes=5, spec=get_spec("m_a"),
                        intercept=-20.0, seed=0)
        records, _ = gen_dataset(cfg)
        assert sum(r.counts.sum() for r in records) == 0

    def test_master_seed_changes_counts(self):
        a, _ = gen_dataset(SMALL)
        b, _ = gen_dataset(SimConfig(nx=5, ny=6, n_shoes=8,
                                     spec=get_spec("m_a"),
                                     intercept=-1.0, seed=4))
        assert any(not np.array_equal(x.counts, y.counts)
                   for x, y in zip(a, b))
