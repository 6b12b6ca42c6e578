"""Non-correlation tests and the kernel-studentized comparator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from selfnorm.core import (
    NotPositiveDefiniteError,
    DegenerateVarianceError,
    RngStream,
    ValidationError,
)
from selfnorm import noncorr
from selfnorm.noncorr import (
    _ar1_coefficient,
    bartlett_lrv,
    efficient_ci,
    efficient_variance_parts,
    lobato_stat,
    lobato_test,
    nw_bandwidth,
    prewhitened_lrv,
    qtilde_stat,
    qtilde_test,
    sn_noncorr_stat,
    sn_noncorr_test,
)


def _lag1_autocov(x):
    xc = x - x.mean()
    return float((xc[1:] * xc[:-1]).sum()) / len(x)


def _series_with_zero_lag1(seed, n=40):
    """Adjust the last observation until the demeaned lag-1 sum vanishes."""
    base = RngStream(seed).generator().standard_normal(n)

    def g(c):
        return _lag1_autocov(np.append(base[:-1], c))

    lo, hi = -50.0, 50.0
    assert g(lo) * g(hi) < 0
    c = brentq(g, lo, hi, xtol=1e-15)
    return np.append(base[:-1], c)


class TestRecursiveAndPlainStatistics:
    def test_zero_autocovariance_gives_zero_statistic(self):
        x = _series_with_zero_lag1(7)
        assert abs(_lag1_autocov(x)) < 1e-14
        assert sn_noncorr_stat(x, 1) == pytest.approx(0.0, abs=1e-16)
        assert lobato_stat(x, 1) == pytest.approx(0.0, abs=1e-16)
        assert qtilde_stat(x, 1) == pytest.approx(0.0, abs=1e-16)

    def test_same_order_of_magnitude(self):
        x = RngStream(3).generator().standard_normal(300)
        t_rec = sn_noncorr_stat(x, 2)
        t_plain = lobato_stat(x, 2)
        assert 0.1 < t_rec / t_plain < 10.0

    def test_constant_series_degenerate(self):
        x = np.full(50, 2.5)
        with pytest.raises(NotPositiveDefiniteError):
            sn_noncorr_stat(x, 1)
        with pytest.raises(NotPositiveDefiniteError):
            lobato_stat(x, 1)
        with pytest.raises(DegenerateVarianceError):
            qtilde_stat(x, 1)

    def test_k_validation(self):
        x = RngStream(1).generator().standard_normal(100)
        with pytest.raises(ValidationError):
            sn_noncorr_test(x, 0, 0.05, critval=10.0)

    def test_decisions_use_the_given_critical_value(self):
        x = RngStream(5).generator().standard_normal(200)
        res = sn_noncorr_test(x, 1, 0.05, critval=1e12)
        assert not res.reject
        res = lobato_test(x, 1, 0.05, critval=0.0)
        assert res.reject

    @given(st.floats(0.05, 20.0), st.floats(-10.0, 10.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance(self, a, b, seed):
        x = np.random.default_rng(seed).standard_normal(60)
        y = a * x + b
        assert sn_noncorr_stat(y, 2) == pytest.approx(sn_noncorr_stat(x, 2), rel=1e-8)
        assert lobato_stat(y, 2) == pytest.approx(lobato_stat(x, 2), rel=1e-8)
        assert qtilde_stat(y, 2) == pytest.approx(qtilde_stat(x, 2), rel=1e-6)


def _two_pass_sn_stat(x, k):
    """The recursive statistic from its definition: every prefix
    autocovariance centred in two passes and summed with math.fsum."""
    x = [float(v) for v in x]
    n, big_n = len(x), len(x) - k
    rows = []
    for s in range(k + 2, n + 1):
        m = math.fsum(x[:s]) / s
        d = [v - m for v in x[:s]]
        m = math.fsum(d) / s
        d = [v - m for v in d]
        rows.append([math.fsum(d[i] * d[i + j] for i in range(s - j)) / s
                     for j in range(1, k + 1)])
    c = np.array(rows)
    dev = (c - c[-1]) * (np.arange(k + 2, n + 1) - k)[:, None]
    j_mat = np.array([[math.fsum(dev[:, a] * dev[:, b]) for b in range(k)]
                      for a in range(k)]) / big_n**2
    return big_n * float(c[-1] @ np.linalg.solve(j_mat, c[-1]))


class TestLevelOffsetAndScale:
    """The recursive statistic is affine-invariant; a level offset must not
    make its prefix autocovariances cancel."""

    @pytest.mark.parametrize("offset,tol", [(1e6, 1e-9), (1e8, 1e-6)])
    def test_offset_matches_two_pass_oracle(self, offset, tol):
        from selfnorm.dgp import generate
        x = generate("ar1:0.5:normal", 80, RngStream(4)) + offset
        assert sn_noncorr_stat(x, 2) == pytest.approx(_two_pass_sn_stat(x, 2), rel=tol)

    @pytest.mark.parametrize("a", [1e150, 1e-150])
    def test_extreme_scales(self, a):
        x = RngStream(6).generator().standard_normal(80)
        assert sn_noncorr_stat(a * x, 2) == pytest.approx(sn_noncorr_stat(x, 2), rel=1e-12)

    @pytest.mark.parametrize("a", [1e150, 1e-150])
    def test_lobato_extreme_scales(self, a):
        x = RngStream(6).generator().standard_normal(80)
        assert lobato_stat(a * x, 2) == pytest.approx(lobato_stat(x, 2), rel=1e-12)


class TestBandwidth:
    def test_floor_is_one_for_flat_autocovariance(self):
        # zero lag-1 autocovariance with pilot truncation 1 forces s1 = 0
        x = _series_with_zero_lag1(11, n=20)
        assert nw_bandwidth(x) == 1

    def test_scale_invariant(self, rng):
        x = rng.standard_normal(150).cumsum()
        assert nw_bandwidth(x) == nw_bandwidth(10.0 * x)
        assert nw_bandwidth(x) == nw_bandwidth(0.01 * x)

    def test_grows_with_persistence(self):
        from selfnorm.dgp import generate
        white = RngStream(2).generator().standard_normal(600)
        persistent = generate("ar1:0.8:normal", 600, RngStream(2))
        assert nw_bandwidth(persistent) > nw_bandwidth(white)

    def test_bounds(self, rng):
        assert nw_bandwidth(rng.standard_normal(3)) >= 1
        x = rng.standard_normal(30)
        assert nw_bandwidth(x) <= 29


class TestLongRunVariance:
    def test_bartlett_symmetric_psd_diagonal(self, rng):
        w = rng.standard_normal((80, 2))
        v = bartlett_lrv(w, 5)
        np.testing.assert_allclose(v, v.T)
        assert v[0, 0] > 0 and v[1, 1] > 0

    def test_bandwidth_one_is_sample_covariance(self, rng):
        w = rng.standard_normal((60, 2))
        v = bartlett_lrv(w, 1)
        wc = w - w.mean(axis=0)
        np.testing.assert_allclose(v, wc.T @ wc / 60, rtol=1e-12)

    def test_prewhitening_cap(self):
        trending = np.linspace(0.0, 50.0, 200) + 0.01
        assert _ar1_coefficient(trending) == pytest.approx(0.97)

    def test_prewhitened_lrv_shape(self, rng):
        x = rng.standard_normal(200)
        v, bw = prewhitened_lrv(x, 3)
        assert v.shape == (4, 4)
        assert bw >= 1
        np.testing.assert_allclose(v, v.T)


class TestQtilde:
    def test_statistic_nonnegative_and_chi2_referenced(self):
        x = RngStream(8).generator().standard_normal(400)
        res = qtilde_test(x, 3, 0.05)
        assert res.statistic >= 0
        from scipy.stats import chi2
        assert res.critical_value == pytest.approx(chi2.ppf(0.95, df=3))

    def test_too_short_rejected(self):
        with pytest.raises(Exception):
            qtilde_test(np.arange(5.0), 3, 0.05)

    def test_statistic_needs_no_critical_value(self, monkeypatch):
        x = RngStream(8).generator().standard_normal(400)
        expected = qtilde_test(x, 3, 0.05).statistic

        def refuse(*args, **kwargs):
            raise AssertionError("qtilde_stat evaluated a chi-square quantile")

        monkeypatch.setattr(noncorr, "chi2_quantile", refuse)
        assert qtilde_stat(x, 3) == expected


class TestEfficientCi:
    def test_centered_at_the_plain_estimates(self):
        x = RngStream(21).generator().standard_normal(300)
        n = len(x)
        xc = x - x.mean()
        g0 = float(xc @ xc) / n
        g1 = float(xc[1:] @ xc[:-1]) / n
        res_g = efficient_ci(x, "gamma1")
        res_r = efficient_ci(x, "rho1")
        assert res_g.estimate == pytest.approx(g1, rel=1e-12)
        assert res_r.estimate == pytest.approx(g1 / g0, rel=1e-12)
        for res in (res_g, res_r):
            assert res.interval.lower < res.estimate < res.interval.upper
            assert res.variance > 0
            assert res.bandwidth >= 1

    def test_gamma_interval_scales_quadratically(self):
        x = RngStream(22).generator().standard_normal(250)
        a = 3.0
        base = efficient_ci(x, "gamma1")
        moved = efficient_ci(a * x, "gamma1")
        assert moved.estimate == pytest.approx(a * a * base.estimate, rel=1e-10)
        assert (moved.interval.upper - moved.interval.lower) == pytest.approx(
            a * a * (base.interval.upper - base.interval.lower), rel=1e-8)

    def test_rho_interval_affine_invariant(self):
        x = RngStream(23).generator().standard_normal(250)
        base = efficient_ci(x, "rho1")
        moved = efficient_ci(2.5 * x - 4.0, "rho1")
        assert moved.estimate == pytest.approx(base.estimate, rel=1e-9)
        assert moved.variance == pytest.approx(base.variance, rel=1e-7)

    def test_variance_parts_use_raw_window(self):
        # the Bartlett window must act on the raw products; only the
        # bandwidth search sees the prewhitened series
        from selfnorm.noncorr import _lagged_products
        x = RngStream(24).generator().standard_normal(400)
        v, bw = efficient_variance_parts(x)
        w = _lagged_products(x, 1)
        np.testing.assert_allclose(v, bartlett_lrv(w, bw), rtol=1e-12)

    def test_validation(self):
        x = RngStream(25).generator().standard_normal(100)
        with pytest.raises(ValidationError):
            efficient_ci(x, "gamma2")
        with pytest.raises(ValidationError):
            efficient_ci(x, "rho1", level=1.0)
