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
    SolverFailedError,
    TooShortError,
    ValidationError,
    as_series,
    quadform_spd,
)
from selfnorm import core, noncorr
from selfnorm.dgp import generate_batch
from selfnorm.noncorr import (
    _ar1_coefficients,
    _full_autocov,
    _lag_products,
    check_k,
    efficient_ci,
    efficient_variance_batch,
    lobato_stat,
    lobato_test,
    qtilde_stat,
    qtilde_stat_batch,
    qtilde_test,
    sn_noncorr_stat,
    sn_noncorr_test,
)


def _bandwidth(x):
    """The automatic bandwidth of one series: _nw_bandwidths on a batch of one."""
    return int(noncorr._nw_bandwidths(np.asarray(x, dtype=np.float64)[None, :])[0])


def _bartlett(w, bandwidth):
    """_bartlett_window on a batch of one: the columns of w (m, d), demeaned."""
    wc = w.T[None] - w.T.mean(axis=-1, keepdims=True)[None]
    return noncorr._bartlett_window(wc, np.array([bandwidth]))[0]


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
        assert _bandwidth(x) == 1

    def test_scale_invariant(self, rng):
        x = rng.standard_normal(150).cumsum()
        assert _bandwidth(x) == _bandwidth(10.0 * x)
        assert _bandwidth(x) == _bandwidth(0.01 * x)

    def test_grows_with_persistence(self):
        from selfnorm.dgp import generate
        white = RngStream(2).generator().standard_normal(600)
        persistent = generate("ar1:0.8:normal", 600, RngStream(2))
        assert _bandwidth(persistent) > _bandwidth(white)

    def test_bounds(self, rng):
        assert _bandwidth(rng.standard_normal(3)) >= 1
        x = rng.standard_normal(30)
        assert _bandwidth(x) <= 29


class TestLongRunVariance:
    def test_bartlett_symmetric_psd_diagonal(self, rng):
        w = rng.standard_normal((80, 2))
        v = _bartlett(w, 5)
        np.testing.assert_allclose(v, v.T)
        assert v[0, 0] > 0 and v[1, 1] > 0

    def test_bandwidth_one_is_sample_covariance(self, rng):
        w = rng.standard_normal((60, 2))
        v = _bartlett(w, 1)
        wc = w - w.mean(axis=0)
        np.testing.assert_allclose(v, wc.T @ wc / 60, rtol=1e-12)

    def test_prewhitening_cap(self):
        trending = np.linspace(0.0, 50.0, 200) + 0.01
        trending -= trending.mean()
        assert _ar1_coefficients(trending) == pytest.approx(0.97)

    def test_prewhitened_lrv_shape(self, rng):
        x = rng.standard_normal(200)
        v, bw = noncorr._kernel_lrv((x - x.mean())[None, :], 3, recolor=True)
        assert v.shape == (1, 4, 4)
        assert bw[0] >= 1
        np.testing.assert_allclose(v[0], v[0].T)


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
        x = RngStream(24).generator().standard_normal(400)
        v, bw = noncorr._kernel_lrv((x - x.mean())[None, :], 1, recolor=False)
        w = _lag_products((x - x.mean())[None, :], 1)[0].T
        np.testing.assert_allclose(v[0], _bartlett(w, bw[0]), rtol=1e-12)

    def test_validation(self):
        x = RngStream(25).generator().standard_normal(100)
        with pytest.raises(ValidationError):
            efficient_ci(x, "gamma2")
        with pytest.raises(ValidationError):
            efficient_ci(x, "rho1", level=1.0)


# ---------------------------------------------------------------------------
# Oracle: the per-row prewhitened kernel code the batch kernels replaced,
# kept as it was (renamed, docstrings dropped) as their reference.
# ---------------------------------------------------------------------------

def _oracle_nw_bandwidth(x: np.ndarray) -> int:
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        return 1
    xc = x - x.mean()
    big_l = min(int(math.floor(2.0 * (n / 100.0) ** (2.0 / 9.0))), n - 1)
    acov = np.array([(xc[: n - j] * xc[j:]).sum() / n for j in range(big_l + 1)])
    s0 = acov[0] + 2.0 * acov[1:].sum()
    if not s0 > 0.0:
        return 1
    s1 = 2.0 * (np.arange(1, big_l + 1) * acov[1:]).sum()
    bw = math.ceil(1.1447 * ((s1 / s0) ** 2) ** (1.0 / 3.0) * n ** (1.0 / 3.0))
    return max(1, min(n - 1, bw))


def _oracle_bartlett_lrv(w: np.ndarray, bandwidth: int) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim == 1:
        w = w[:, None]
    m = w.shape[0]
    wc = w - w.mean(axis=0, keepdims=True)
    v = wc.T @ wc / m
    for j in range(1, min(bandwidth, m)):
        weight = 1.0 - j / bandwidth
        if weight <= 0.0:
            break
        gamma_j = wc[j:].T @ wc[:-j] / m
        v = v + weight * (gamma_j + gamma_j.T)
    return (v + v.T) / 2.0


def _oracle_ar1_coefficient(w: np.ndarray, cap: float = 0.97) -> float:
    wc = w - w.mean()
    denom = float(wc[:-1] @ wc[:-1])
    if denom <= 0.0:
        return 0.0
    a = float(wc[1:] @ wc[:-1]) / denom
    return max(-cap, min(cap, a))


def _oracle_lagged_products(x: np.ndarray, k: int) -> np.ndarray:
    n = x.shape[0]
    xc = x - x.mean()
    return np.stack([xc[k:] * xc[k - j : n - j] for j in range(k + 1)], axis=1)


def _oracle_prewhitened_lrv(x: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    w = _oracle_lagged_products(x, k)
    w = w - w.mean(axis=0, keepdims=True)
    coef = np.array([_oracle_ar1_coefficient(w[:, j]) for j in range(w.shape[1])])
    resid = w[1:] - w[:-1] * coef[None, :]
    bw = _oracle_nw_bandwidth(resid.sum(axis=1))
    v_resid = _oracle_bartlett_lrv(resid, bw)
    recolor = np.outer(1.0 - coef, 1.0 - coef)
    return v_resid / recolor, bw


def _oracle_qtilde_stat(ts, k: int) -> float:
    s = as_series(ts)
    check_k(s.n, k)
    x = s.values
    n = s.n
    xc = x - x.mean()
    gamma = np.array([(xc[: n - j] * xc[j:]).sum() / n for j in range(k + 1)])
    if not gamma[0] > 0.0:
        raise DegenerateVarianceError("sample variance is zero")
    rho = gamma[1:] / gamma[0]
    v, _ = _oracle_prewhitened_lrv(x, k)
    jac = np.zeros((k, k + 1))
    jac[:, 0] = -rho / gamma[0]
    jac[np.arange(k), np.arange(1, k + 1)] = 1.0 / gamma[0]
    omega = jac @ v @ jac.T
    omega = (omega + omega.T) / 2.0
    return n * quadform_spd(omega, rho)


def _oracle_efficient_variance_parts(x: np.ndarray) -> tuple[np.ndarray, int]:
    w = _oracle_lagged_products(x, 1)
    coef = np.array([_oracle_ar1_coefficient(w[:, j]) for j in range(w.shape[1])])
    resid = w[1:] - w[:-1] * coef[None, :]
    bw = _oracle_nw_bandwidth(resid.sum(axis=1))
    return _oracle_bartlett_lrv(w, bw), bw


def _draws(model, n, reps, seed=1):
    return generate_batch(model, n, [RngStream(seed).child("rep", i) for i in range(reps)])


def _assert_kernel_matches(x, k, recolor, oracle):
    """Batch V and bandwidths against the per-row oracle: identical
    bandwidths, V within 1e-12 of its largest entry."""
    v, bw = noncorr._kernel_lrv(x - x.mean(axis=1, keepdims=True), k, recolor)
    for row, v_row, bw_row in zip(x, v, bw):
        v_ref, bw_ref = oracle(row)
        assert bw_row == bw_ref
        assert np.abs(v_row - v_ref).max() <= 1e-12 * np.abs(v_ref).max()


_WHITE = ("iidn", "t6", "lognorm", "onedep", "hetero", "nonmds", "garch", "bilinear")


class TestBatchKernelsAgainstOracle:
    def test_full_autocov_brute_force(self):
        x = _draws("iidn", 25, 3)
        xc = x - x.mean(axis=1, keepdims=True)
        got = _full_autocov(xc, (0, 1, 4))
        assert got.shape == (3, 3)
        for b in range(3):
            for col, j in enumerate((0, 1, 4)):
                expect = sum(xc[b, t] * xc[b, t + j] for t in range(25 - j)) / 25
                assert got[b, col] == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("model", _WHITE)
    def test_qtilde_white_noise(self, model):
        x = _draws(model, 500, 30)
        for k in (1, 2, 3):
            stats, ok = qtilde_stat_batch(x, k)
            assert ok.all()
            ref = np.array([_oracle_qtilde_stat(row, k) for row in x])
            np.testing.assert_allclose(stats, ref, rtol=1e-12, atol=0)
            _assert_kernel_matches(x, k, True, lambda row: _oracle_prewhitened_lrv(row, k))

    @pytest.mark.parametrize("model", ("m1", "m2", "m3", "m4", "m5", "m6"))
    @pytest.mark.parametrize("n", (150, 600))
    def test_efficient_arma(self, model, n):
        x = _draws(model, n, 30)
        _assert_kernel_matches(x, 1, False, _oracle_efficient_variance_parts)
        for target in ("gamma1", "rho1"):
            est, var, bw, ok = efficient_variance_batch(x, target)
            assert ok.all()
            for r, row in enumerate(x):
                v, b = _oracle_efficient_variance_parts(row)
                xc = row - row.mean()
                g0 = float(xc @ xc) / n
                g1 = float(xc[1:] @ xc[:-1]) / n
                if target == "gamma1":
                    e_ref, var_ref = g1, v[1, 1]
                else:
                    e_ref = g1 / g0
                    var_ref = (v[1, 1] - 2.0 * e_ref * v[0, 1] + e_ref**2 * v[0, 0]) / g0**2
                assert bw[r] == b
                assert est[r] == pytest.approx(e_ref, rel=1e-12)
                assert var[r] == pytest.approx(var_ref, rel=1e-12)
        stats, ok = qtilde_stat_batch(x, 2)
        ref = np.array([_oracle_qtilde_stat(row, 2) for row in x])
        np.testing.assert_allclose(stats, ref, rtol=1e-12, atol=0)

    def test_mixed_batch(self):
        # a sign-alternating random walk has a near-zero long-run variance in
        # its prewhitened lag products, so its bandwidth runs to n/2 and more
        good = _draws("iidn", 300, 6)
        walk = np.tile([1.0, -1.0], 150) * RngStream(13).generator().standard_normal(300).cumsum()
        x = np.vstack([good[:3], walk, np.full(300, 4.0), good[3:]])
        kept = np.delete(x, 4, axis=0)
        for recolor in (True, False):
            _, bw = noncorr._kernel_lrv(kept - kept.mean(axis=1, keepdims=True), 1, recolor)
            assert bw[3] > 5 * bw[np.arange(len(kept)) != 3].max()
        _assert_kernel_matches(kept, 1, True, lambda row: _oracle_prewhitened_lrv(row, 1))
        _assert_kernel_matches(kept, 1, False, _oracle_efficient_variance_parts)
        stats, ok = qtilde_stat_batch(x, 1)
        assert ok.tolist() == [True] * 4 + [False] + [True] * 3
        stats_kept, _ = qtilde_stat_batch(kept, 1)
        np.testing.assert_array_equal(np.delete(stats, 4), stats_kept)
        ref = np.array([_oracle_qtilde_stat(row, 1) for row in kept])
        np.testing.assert_allclose(stats_kept, ref, rtol=1e-12, atol=0)
        _, var, _, ok = efficient_variance_batch(x, "rho1")
        assert ok.tolist() == [True] * 4 + [False] + [True] * 3
        _, var_kept, _, _ = efficient_variance_batch(kept, "rho1")
        np.testing.assert_array_equal(np.delete(var, 4), var_kept)


def _alternating(n=60):
    return np.tile([1.0, -1.0], n // 2)


class TestBatchOfOneErrors:
    def test_degenerate_variance(self):
        x = np.full(60, 2.5)
        with pytest.raises(DegenerateVarianceError):
            qtilde_stat(x, 2)
        with pytest.raises(DegenerateVarianceError):
            efficient_ci(x, "rho1")
        # positive sample variance, zero long-run variance
        with pytest.raises(DegenerateVarianceError):
            efficient_ci(_alternating(), "gamma1")

    def test_not_positive_definite(self):
        # the lag products of a period-2 series are constant: V = 0
        with pytest.raises(NotPositiveDefiniteError):
            qtilde_stat(_alternating(), 1)
        _, ok = qtilde_stat_batch(np.vstack([_alternating(), _draws("iidn", 60, 1)[0]]), 1)
        assert ok.tolist() == [False, True]

    def test_solver_residual_check(self, monkeypatch):
        x = _draws("iidn", 200, 3)
        solve = noncorr.chol_solve_batch

        def perturbed(a, b):
            sol, ok = solve(a, b)
            sol[-1] *= 1.0 + 1e-6
            return sol, ok

        # the batch solves through noncorr's binding, its batch of one
        # through solve_spd's
        monkeypatch.setattr(noncorr, "chol_solve_batch", perturbed)
        monkeypatch.setattr(core, "chol_solve_batch", perturbed)
        _, ok = qtilde_stat_batch(x, 2)
        assert ok.tolist() == [True, True, False]
        with pytest.raises(SolverFailedError):
            qtilde_stat(x[0], 2)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            qtilde_stat(np.arange(22.0), 2)
        with pytest.raises(TooShortError):
            qtilde_stat_batch(np.ones((3, 22)), 2)
        with pytest.raises(TooShortError):
            efficient_ci(_draws("iidn", 21, 1)[0], "gamma1")
        with pytest.raises(TooShortError):
            efficient_variance_batch(np.ones((3, 21)), "rho1")
