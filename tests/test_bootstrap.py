"""Moving-block bootstrap: block assembly, scheme contracts, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from selfnorm.core import (
    BlockTooLongError,
    RngStream,
    TooManyDegenerateResamplesError,
    ValidationError,
)
from selfnorm.critvals import get_quantile
from selfnorm.estimators import EstimatorSpec, prefix_estimates
from selfnorm import bootstrap
from selfnorm.bootstrap import (
    MbbConfig,
    assemble_blocks,
    bootstrap_suite,
    mbb_normal_ci,
    mbb_percentile_ci,
    mbb_resample,
    mbb_sn_ci,
)

_MEAN = EstimatorSpec.parse("mean")


class TestBlockAssembly:
    def test_hand_construction(self):
        x = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        out = assemble_blocks(x, starts=np.array([0, 3, 1]), block_length=2)
        np.testing.assert_array_equal(out, [10.0, 20.0, 40.0, 50.0, 20.0])

    def test_truncates_to_original_length(self):
        x = np.arange(5.0)
        out = assemble_blocks(x, starts=np.array([0, 0]), block_length=3)
        assert out.shape == (5,)

    def test_too_few_blocks_rejected(self):
        with pytest.raises(ValidationError):
            assemble_blocks(np.arange(6.0), starts=np.array([0]), block_length=2)


class TestResample:
    def test_full_length_block_copies_the_series(self, rng):
        x = rng.standard_normal(25)
        out = mbb_resample(x, 25, RngStream(4))
        np.testing.assert_array_equal(out, x)

    def test_block_longer_than_series_rejected(self, rng):
        with pytest.raises(BlockTooLongError):
            mbb_resample(rng.standard_normal(10), 11, RngStream(0))

    @given(st.integers(1, 12), st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_length_and_multiset_invariants(self, block, seed):
        x = np.random.default_rng(2).standard_normal(12)
        out = mbb_resample(x, block, RngStream(seed))
        assert out.shape == x.shape
        assert set(out.tolist()) <= set(x.tolist())

    def test_unit_block_matches_iid_bootstrap_distribution(self):
        # with block length 1 the scheme is iid resampling, so resampled
        # means must match a hand-rolled iid bootstrap distributionally
        x = RngStream(6).generator().standard_normal(50)
        gen = RngStream(60).generator()
        mbb_means = [mbb_resample(x, 1, RngStream(i)).mean() for i in range(2000)]
        iid_means = x[gen.integers(0, 50, size=(2000, 50))].mean(axis=1)
        stat = ks_2samp(mbb_means, iid_means).statistic
        assert stat < 0.05


class TestSchemes:
    def test_percentile_constant_series_zero_width(self):
        cfg = MbbConfig(block_length=3, replications=200, seed=1)
        res = mbb_percentile_ci(np.full(30, 7.0), _MEAN, cfg)
        assert res.region.lower == res.region.upper == 7.0

    def test_normal_constant_series_zero_width(self):
        cfg = MbbConfig(block_length=3, replications=200, seed=1)
        res = mbb_normal_ci(np.full(30, 7.0), _MEAN, cfg)
        assert res.region.lower == res.region.upper == 7.0

    def test_sn_constant_series_degenerate(self):
        cfg = MbbConfig(block_length=3, replications=200, seed=1)
        with pytest.raises(TooManyDegenerateResamplesError):
            mbb_sn_ci(np.full(30, 7.0), _MEAN, cfg)

    def test_normal_variance_close_to_truth_on_iid_data(self):
        x = RngStream(14).generator().standard_normal(50)
        cfg = MbbConfig(block_length=1, replications=2000, seed=3)
        res = mbb_normal_ci(x, _MEAN, cfg)
        assert res.sigma2 == pytest.approx(1.0, rel=0.15)

    def test_normal_and_percentile_widths_agree_for_the_mean(self):
        x = RngStream(15).generator().standard_normal(50)
        cfg = MbbConfig(block_length=1, replications=2000, seed=3)
        w_norm = mbb_normal_ci(x, _MEAN, cfg)
        w_pct = mbb_percentile_ci(x, _MEAN, cfg)
        ratio = (w_norm.region.upper - w_norm.region.lower) / (
            w_pct.region.upper - w_pct.region.lower)
        assert ratio == pytest.approx(1.0, abs=0.1)

    def test_sn_pivot_quantile_approaches_simulated_table(self, critval_cache):
        x = RngStream(16).generator().standard_normal(200)
        cfg = MbbConfig(block_length=10, replications=2000, seed=5)
        res = mbb_sn_ci(x, _MEAN, cfg)
        expect = get_quantile(1, 0.05)
        assert res.ustar == pytest.approx(expect, rel=0.10)

    def test_results_deterministic_in_seed(self):
        x = RngStream(17).generator().standard_normal(60)
        cfg = MbbConfig(block_length=5, replications=400, seed=9)
        first = mbb_percentile_ci(x, _MEAN, cfg)
        second = mbb_percentile_ci(x, _MEAN, cfg)
        assert (first.region.lower, first.region.upper) == (
            second.region.lower, second.region.upper)
        other = mbb_percentile_ci(
            x, _MEAN, MbbConfig(block_length=5, replications=400, seed=10))
        assert (other.region.lower, other.region.upper) != (
            first.region.lower, first.region.upper)

    def test_estimate_inside_every_scheme_interval(self):
        x = RngStream(18).generator().standard_normal(80)
        cfg = MbbConfig(block_length=4, replications=500, seed=2)
        for builder in (mbb_percentile_ci, mbb_normal_ci, mbb_sn_ci):
            res = builder(x, _MEAN, cfg)
            assert res.region.lower <= res.estimate <= res.region.upper

    def test_to_dict_contract(self):
        x = RngStream(19).generator().standard_normal(60)
        cfg = MbbConfig(block_length=5, replications=300, seed=1)
        d = mbb_normal_ci(x, _MEAN, cfg).to_dict()
        for key in ("estimate", "L", "U", "N", "scheme", "block_length"):
            assert key in d

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            MbbConfig(block_length=0)
        with pytest.raises(ValidationError):
            MbbConfig(block_length=2, replications=1)
        with pytest.raises(ValidationError):
            MbbConfig(block_length=2, level=1.5)
        with pytest.raises(ValidationError):
            MbbConfig(block_length=2, seed=-3)


class TestPerResamplePath:
    def test_programming_errors_propagate(self, monkeypatch):
        # only numerical failures count as degenerate resamples
        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr(bootstrap, "sn_pivot", broken)
        x = RngStream(21).generator().standard_normal(40)
        cfg = MbbConfig(block_length=4, replications=10, seed=1)
        with pytest.raises(TypeError):
            mbb_sn_ci(x, EstimatorSpec.parse("ladar:1"), cfg)


class TestSuite:
    def test_suite_matches_individual_schemes(self):
        x = RngStream(20).generator().standard_normal(60)
        cfg = MbbConfig(block_length=5, replications=400, seed=1234, level=0.9)
        seq = prefix_estimates(_MEAN, x)
        suite = bootstrap_suite(x, _MEAN, cfg, seq.estimates[:, 0], seq.first_valid)
        builders = {
            "mbb-pct": mbb_percentile_ci,
            "mbb-normal": mbb_normal_ci,
            "mbb-sn": mbb_sn_ci,
        }
        for name, builder in builders.items():
            expect = builder(x, _MEAN, cfg).region
            assert suite[name].lower == pytest.approx(expect.lower, abs=1e-12)
            assert suite[name].upper == pytest.approx(expect.upper, abs=1e-12)
        assert suite["ustar"] > 0
