"""Self-normalizer, pivot, and interval/region construction.

The W = 1.04 and pivot = 1125/26 values are hand sums over the prefix means
of (1, 2, 3, 4, 5); the interval half-width is sqrt(10 * 1.04 / 5).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfnorm.core import EstimateSequence, NotPositiveDefiniteError
from selfnorm.estimators import EstimatorSpec, batch_prefix_values, prefix_mean
from selfnorm.inference import (
    sn_interval,
    sn_pivot,
    sn_pivot_scalar_batch,
    sn_region,
    wn_matrix,
    wn_scalar_batch,
)

_ONE_TO_FIVE = (1.0, 2.0, 3.0, 4.0, 5.0)


class TestWnMatrix:
    def test_hand_value(self):
        w = wn_matrix(prefix_mean(_ONE_TO_FIVE))
        assert w.shape == (1, 1)
        assert w[0, 0] == pytest.approx(1.04, abs=1e-14)

    def test_constant_sequence_is_zero(self):
        seq = EstimateSequence(np.full(8, 3.3), first_valid=1, n_eff=8)
        np.testing.assert_array_equal(wn_matrix(seq), [[0.0]])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_affine_congruence(self, seed):
        g = np.random.default_rng(seed)
        est = g.standard_normal((10, 2))
        seq = EstimateSequence(est, first_valid=3, n_eff=12)
        a = g.standard_normal((2, 2))
        b = g.standard_normal(2)
        moved = EstimateSequence(est @ a.T + b, first_valid=3, n_eff=12)
        np.testing.assert_allclose(
            wn_matrix(moved), a @ wn_matrix(seq) @ a.T, rtol=1e-9, atol=1e-12)

    def test_cusum_identity_for_the_mean(self, rng):
        # t^2 (mean_t - mean_n)^2 equals the squared centered partial sum,
        # so W matches the cusum form exactly
        x = rng.standard_normal(120)
        w = wn_matrix(prefix_mean(x))[0, 0]
        n = len(x)
        cusum = np.cumsum(x - x.mean())
        expect = float((cusum * cusum).sum()) / (n * n)
        assert w == pytest.approx(expect, rel=1e-12)


class TestPivot:
    def test_zero_at_the_estimate(self):
        seq = prefix_mean(_ONE_TO_FIVE)
        assert sn_pivot(seq, seq.final) == pytest.approx(0.0, abs=1e-13)

    def test_hand_value_at_zero(self):
        assert sn_pivot(prefix_mean(_ONE_TO_FIVE), 0.0) == pytest.approx(
            1125.0 / 26.0, abs=1e-10)

    @given(st.floats(0.25, 4.0), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance_for_the_mean(self, c, d, seed):
        x = np.random.default_rng(seed).standard_normal(25)
        base = sn_pivot(prefix_mean(x), 0.1)
        moved = sn_pivot(prefix_mean(c * x + d), c * 0.1 + d)
        assert moved == pytest.approx(base, rel=1e-8)

    def test_batch_matches_single(self, rng):
        x = rng.standard_normal((5, 40))
        spec = EstimatorSpec.parse("mean")
        values, first_valid, _ = batch_prefix_values(spec, x)
        piv, ok = sn_pivot_scalar_batch(values, first_valid, 40, theta0=0.0)
        assert ok.all()
        for i in range(5):
            assert piv[i] == pytest.approx(sn_pivot(prefix_mean(x[i]), 0.0), rel=1e-12)
        np.testing.assert_allclose(
            wn_scalar_batch(values, first_valid, 40),
            [wn_matrix(prefix_mean(row))[0, 0] for row in x], rtol=1e-12)


class TestInterval:
    def test_hand_value(self):
        res = sn_interval(prefix_mean(_ONE_TO_FIVE), critval=10.0, level=0.95)
        assert res.region.lower == pytest.approx(3.0 - 1.4422205101855958, abs=1e-12)
        assert res.region.upper == pytest.approx(3.0 + 1.4422205101855958, abs=1e-12)

    def test_zero_critval_degenerates_to_point(self):
        res = sn_interval(prefix_mean(_ONE_TO_FIVE), critval=0.0, level=0.95)
        assert res.region.lower == res.region.upper == 3.0

    def test_width_scales_with_sqrt_critval(self, rng):
        seq = prefix_mean(rng.standard_normal(30))
        one = sn_interval(seq, critval=5.0, level=0.9).region
        two = sn_interval(seq, critval=10.0, level=0.9).region
        assert (two.upper - two.lower) == pytest.approx(
            math.sqrt(2) * (one.upper - one.lower), rel=1e-12)

    def test_contains_estimate(self, rng):
        seq = prefix_mean(rng.standard_normal(30))
        res = sn_interval(seq, critval=3.0, level=0.9)
        assert res.region.lower <= seq.final[0] <= res.region.upper

    def test_json_contract(self):
        res = sn_interval(prefix_mean(_ONE_TO_FIVE), critval=10.0, level=0.95,
                          estimator="mean")
        payload = json.loads(res.to_json())
        for key in ("estimate", "L", "U", "critval", "N"):
            assert key in payload
        assert payload["N"] == 5
        assert payload["estimate"] == pytest.approx(3.0)

    def test_vector_sequence_rejected(self, rng):
        seq = EstimateSequence(rng.standard_normal((6, 2)), first_valid=2, n_eff=7)
        with pytest.raises(ValueError):
            sn_interval(seq, critval=1.0, level=0.9)

    def test_degenerate_normalizer_raises(self):
        seq = EstimateSequence(np.full(9, 1.0), first_valid=1, n_eff=9)
        with pytest.raises(NotPositiveDefiniteError):
            sn_interval(seq, critval=1.0, level=0.9)


class TestRegion:
    def test_center_is_inside_and_pivot_consistent(self, rng):
        est = rng.standard_normal((12, 2)).cumsum(axis=0) * 0.05
        seq = EstimateSequence(est, first_valid=4, n_eff=15)
        res = sn_region(seq, critval=6.0, level=0.95)
        ell = res.region
        assert ell.contains(seq.final)
        # a point is inside exactly when its pivot is below the critical value
        for _ in range(20):
            point = seq.final + 0.3 * rng.standard_normal(2)
            assert ell.contains(point) == (sn_pivot(seq, point) <= 6.0)
