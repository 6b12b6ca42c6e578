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
from selfnorm.estimators import EstimatorSpec, batch_prefix_values, prefix_estimates
from selfnorm.inference import (
    sn_interval,
    sn_pivot,
    sn_region,
    wn_batch,
    wn_matrix,
)

_ONE_TO_FIVE = (1.0, 2.0, 3.0, 4.0, 5.0)


class TestWnMatrix:
    def test_hand_value(self):
        w = wn_matrix(prefix_estimates(EstimatorSpec.parse("mean"), _ONE_TO_FIVE))
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
        w = wn_matrix(prefix_estimates(EstimatorSpec.parse("mean"), x))[0, 0]
        n = len(x)
        cusum = np.cumsum(x - x.mean())
        expect = float((cusum * cusum).sum()) / (n * n)
        assert w == pytest.approx(expect, rel=1e-12)


class TestPivot:
    def test_zero_at_the_estimate(self):
        seq = prefix_estimates(EstimatorSpec.parse("mean"), _ONE_TO_FIVE)
        assert sn_pivot(seq, seq.final) == pytest.approx(0.0, abs=1e-13)

    def test_hand_value_at_zero(self):
        seq = prefix_estimates(EstimatorSpec.parse("mean"), _ONE_TO_FIVE)
        assert sn_pivot(seq, 0.0) == pytest.approx(1125.0 / 26.0, abs=1e-10)

    @given(st.floats(0.25, 4.0), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance_for_the_mean(self, c, d, seed):
        x = np.random.default_rng(seed).standard_normal(25)
        base = sn_pivot(prefix_estimates(EstimatorSpec.parse("mean"), x), 0.1)
        moved = sn_pivot(prefix_estimates(EstimatorSpec.parse("mean"), c * x + d), c * 0.1 + d)
        assert moved == pytest.approx(base, rel=1e-8)


    @pytest.mark.parametrize("p", [400, -400])
    def test_answers_where_w_leaves_the_double_range(self, rng, p):
        # W of acov:1 scales as 2^(4p): it overflows at p = 400 and
        # underflows at p = -400, while the pivot stays the same
        x = rng.standard_normal(200)
        spec = EstimatorSpec.parse("acov:1")
        base = sn_pivot(prefix_estimates(spec, x), 0.1)
        assert sn_pivot(prefix_estimates(spec, x * 2.0 ** p), 0.1 * 2.0 ** (2 * p)) == base


def _ar1_rows(rng, rows, n, phi=0.6):
    x = rng.standard_normal((rows, n))
    for t in range(1, n):
        x[:, t] += phi * x[:, t - 1]
    return x


def _trajectories(x, q):
    """(B, rows, q) prefix trajectories with their first_valid: the mean for
    q = 1, else the acov:1..q stack on the prefixes where every lag is valid."""
    if q == 1:
        spec = EstimatorSpec.parse("mean")
        return batch_prefix_values(spec, x)[0], spec.first_valid()
    specs = [EstimatorSpec.parse(f"acov:{j}") for j in range(1, q + 1)]
    parts = [(batch_prefix_values(s, x)[0], s.first_valid()) for s in specs]
    fv = max(f for _, f in parts)
    return np.concatenate([v[:, fv - f:] for v, f in parts], axis=-1), fv


class TestWnBatch:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_mixed_batch_matches_single(self, rng, q):
        n = 60
        values, fv = _trajectories(_ar1_rows(rng, 6, n), q)
        const = 3
        values = np.insert(values, const, 0.7, axis=0)  # a constant trajectory
        theta0 = np.linspace(-0.1, 0.1, q)
        w, piv, ok, e = wn_batch(values, fv, n, theta0)
        assert w.shape == (7, q, q) and piv.shape == ok.shape == e.shape == (7,)
        assert list(np.flatnonzero(~ok)) == [const]
        np.testing.assert_array_equal(w, np.swapaxes(w, 1, 2))  # no symmetrization
        for i in np.flatnonzero(ok):
            seq = EstimateSequence(values[i], fv, n)
            np.testing.assert_allclose(w[i], wn_matrix(seq), rtol=1e-12)
            assert piv[i] == pytest.approx(sn_pivot(seq, theta0), rel=1e-12)
        # a row's result does not depend on the other rows of the batch
        w_rest, piv_rest, ok_rest, _ = wn_batch(np.delete(values, const, axis=0), fv, n, theta0)
        assert ok_rest.all()
        np.testing.assert_array_equal(w_rest, np.delete(w, const, axis=0))
        np.testing.assert_array_equal(piv_rest, np.delete(piv, const))

    @pytest.mark.parametrize("q", [1, 2])
    def test_rows_out_of_range_are_formed_from_scaled_deviations(self, rng, q):
        # in range: e = 0 and the plain Gram's bits; a trajectory scaled by
        # 2^+-400, whose W leaves [2^-500, 2^500], gives ldexp(w, 2e) = W
        # exactly scaled and the same pivot bits
        n = 60
        values, fv = _trajectories(_ar1_rows(rng, 4, n), q)
        theta0 = np.linspace(-0.1, 0.1, q)
        w, piv, ok, e = wn_batch(values, fv, n, theta0)
        dev = (values - values[:, -1:]).transpose(0, 2, 1) * np.arange(fv, n + 1.0)
        dev = np.ascontiguousarray(dev)
        np.testing.assert_array_equal(w, np.einsum("bim,bjm->bij", dev, dev) / (n * n))
        assert ok.all() and e.tolist() == [0, 0, 0, 0]
        for p in (400, -400):
            ws, pivs, oks, es = wn_batch(values * 2.0 ** p, fv, n, theta0 * 2.0 ** p)
            assert oks.all() and (es != 0).all()
            np.testing.assert_array_equal(np.ldexp(ws, 2 * es[:, None, None]), w * 2.0 ** (2 * p))
            np.testing.assert_array_equal(pivs, piv)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_the_defining_sum(self, rng, q):
        # W = N^-2 sum_t t^2 (est_t - est_N)(est_t - est_N)', term by term
        n = 200
        values, fv = _trajectories(_ar1_rows(rng, 3, n), q)
        w, _, _, _ = wn_batch(values, fv, n)
        for row, got in zip(values, w):
            expect = np.zeros((q, q))
            for t, est in enumerate(row, start=fv):
                expect += t * t * np.outer(est - row[-1], est - row[-1])
            expect /= n * n
            np.testing.assert_allclose(got, expect, rtol=1e-12,
                                       atol=1e-13 * np.abs(expect).max())


class TestInterval:
    def test_hand_value(self):
        seq = prefix_estimates(EstimatorSpec.parse("mean"), _ONE_TO_FIVE)
        res = sn_interval(seq, critval=10.0, level=0.95)
        assert res.region.lower == pytest.approx(3.0 - 1.4422205101855958, abs=1e-12)
        assert res.region.upper == pytest.approx(3.0 + 1.4422205101855958, abs=1e-12)

    def test_zero_critval_degenerates_to_point(self):
        seq = prefix_estimates(EstimatorSpec.parse("mean"), _ONE_TO_FIVE)
        res = sn_interval(seq, critval=0.0, level=0.95)
        assert res.region.lower == res.region.upper == 3.0

    def test_width_scales_with_sqrt_critval(self, rng):
        seq = prefix_estimates(EstimatorSpec.parse("mean"), rng.standard_normal(30))
        one = sn_interval(seq, critval=5.0, level=0.9).region
        two = sn_interval(seq, critval=10.0, level=0.9).region
        assert (two.upper - two.lower) == pytest.approx(
            math.sqrt(2) * (one.upper - one.lower), rel=1e-12)

    def test_contains_estimate(self, rng):
        seq = prefix_estimates(EstimatorSpec.parse("mean"), rng.standard_normal(30))
        res = sn_interval(seq, critval=3.0, level=0.9)
        assert res.region.lower <= seq.final[0] <= res.region.upper

    def test_json_contract(self):
        seq = prefix_estimates(EstimatorSpec.parse("mean"), _ONE_TO_FIVE)
        res = sn_interval(seq, critval=10.0, level=0.95, estimator="mean")
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
