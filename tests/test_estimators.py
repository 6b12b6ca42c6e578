"""Prefix estimators against hand values, brute-force prefix oracles, and a
numerical-quadrature oracle for the spectral averages."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from selfnorm.core import DegenerateVarianceError, RngStream, ValidationError
from selfnorm.estimators import (
    EstimatorSpec,
    PhiSpec,
    _fft_len,
    batch_prefix_spectral,
    batch_prefix_values,
    fourier_coeffs,
    prefix_autocorr,
    prefix_autocov,
    prefix_estimates,
    prefix_lad_ar,
    prefix_mean,
    prefix_median,
    prefix_spectral_mean,
    prefix_spectral_ratio,
)

# moderately sized random series reused by the brute-force oracles
_SERIES = np.random.default_rng(524287).standard_normal(60)


def _brute_autocov(x, t, k, divisor):
    xs = x[:t]
    m = xs.mean()
    s = float(((xs[k:] - m) * (xs[:t - k] - m)).sum())
    return s / (t if divisor == "full_n" else t - k)


class TestSpecParsing:
    @pytest.mark.parametrize("text,canonical", [
        ("mean", "mean"),
        ("MEDIAN", "median"),
        ("acov:3", "acov:3"),
        ("acf:1", "acf:1"),
        ("specmean:pi/2", "specmean:pi/2"),
        ("specratio:1.5707963267948966", "specratio:pi/2"),
        ("ladar:2", "ladar:2"),
    ])
    def test_canonical_forms(self, text, canonical):
        assert EstimatorSpec.parse(text).canonical() == canonical

    @pytest.mark.parametrize("text", [
        "mean:1", "acov", "acov:x", "specmean", "specmean:4.0",
        "ladar:0", "ladar", "unknown", "acf:-1",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValidationError):
            EstimatorSpec.parse(text)

    def test_first_valid_contract(self):
        assert EstimatorSpec.parse("mean").first_valid() == 1
        assert EstimatorSpec.parse("acov:3").first_valid() == 5
        assert EstimatorSpec.parse("specmean:pi").first_valid() == 4
        assert EstimatorSpec.parse("ladar:2").first_valid() == 12

    def test_dim(self):
        assert EstimatorSpec.parse("acf:1").dim == 1
        assert EstimatorSpec.parse("ladar:3").dim == 3


class TestPrefixMean:
    def test_hand_values(self):
        seq = prefix_mean((1.0, 2.0, 3.0, 4.0, 5.0))
        np.testing.assert_allclose(seq.estimates[:, 0], [1, 1.5, 2, 2.5, 3])

    def test_constant(self):
        seq = prefix_mean(np.full(6, 2.5))
        np.testing.assert_array_equal(seq.estimates[:, 0], np.full(6, 2.5))

    def test_sign_symmetry(self):
        seq = prefix_mean((-1.0, 1.0))
        np.testing.assert_allclose(seq.estimates[:, 0], [-1.0, 0.0])


class TestPrefixMedian:
    def test_hand_values(self):
        seq = prefix_median((3.0, 1.0, 2.0))
        np.testing.assert_allclose(seq.estimates[:, 0], [3, 2, 2])

    def test_sorted_input_midpoint_rule(self):
        seq = prefix_median((1.0, 2.0, 3.0, 4.0, 5.0))
        np.testing.assert_allclose(seq.estimates[:, 0], [1, 1.5, 2, 2.5, 3])

    def test_matches_numpy_per_prefix(self):
        seq = prefix_median(_SERIES)
        expect = [np.median(_SERIES[:t]) for t in range(1, len(_SERIES) + 1)]
        np.testing.assert_allclose(seq.estimates[:, 0], expect, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 31])
    def test_batch_equals_numpy_with_ties(self, n, rng):
        # rounded draws repeat values; every prefix must equal np.median exactly
        x = np.round(rng.standard_normal((6, n)), 0)
        x[0] = 1.5
        spec = EstimatorSpec.parse("median")
        values, _, _ = batch_prefix_values(spec, x)
        expect = np.stack([np.median(x[:, :t], axis=1) for t in range(1, n + 1)], axis=1)
        np.testing.assert_array_equal(values, expect)


class TestPrefixAutocov:
    def test_alternating_hand_value(self):
        seq = prefix_autocov((1.0, -1.0, 1.0, -1.0), 1)
        assert seq.final[0] == pytest.approx(-0.75)

    def test_lag_zero_is_variance(self):
        seq = prefix_autocov(_SERIES, 0)
        assert (seq.estimates[:, 0] >= 0).all()
        assert seq.final[0] == pytest.approx(np.var(_SERIES), rel=1e-12)

    def test_iid_lag_one_small(self):
        x = RngStream(11).generator().standard_normal(500)
        assert abs(prefix_autocov(x, 1).final[0]) < 0.2

    @pytest.mark.parametrize("divisor", ["full_n", "n_minus_lag"])
    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_brute_force_prefix_oracle(self, k, divisor):
        seq = prefix_autocov(_SERIES, k, divisor=divisor)
        for row, t in enumerate(range(seq.first_valid, seq.n_eff + 1)):
            expect = _brute_autocov(_SERIES, t, k, divisor)
            assert seq.estimates[row, 0] == pytest.approx(expect, abs=1e-12)

    def test_lag_too_large(self):
        from selfnorm.core import LagTooLargeError
        with pytest.raises(LagTooLargeError):
            prefix_autocov(np.arange(5.0), 5)


class TestPrefixAutocorr:
    def test_alternating_hand_value(self):
        seq = prefix_autocorr((1.0, -1.0, 1.0, -1.0), 1)
        assert seq.final[0] == pytest.approx(-0.75)

    def test_linear_trend_near_one(self):
        seq = prefix_autocorr(np.arange(100, dtype=np.float64), 1)
        assert 0.9 < seq.final[0] <= 1.0

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            prefix_autocorr(np.full(10, 3.0), 1)


class TestFourierCoeffs:
    def test_full_band_indicator(self):
        g = fourier_coeffs(PhiSpec("indicator", x=math.pi), 6)
        assert g[0] == pytest.approx(0.5)
        np.testing.assert_allclose(g[1:], 0.0, atol=1e-15)

    def test_half_band_indicator(self):
        g = fourier_coeffs(PhiSpec("indicator", x=math.pi / 2), 4)
        np.testing.assert_allclose(
            g, [0.25, 1 / math.pi, 0.0, -1 / (3 * math.pi)], atol=1e-15)


class TestSpectralMean:
    def test_full_band_equals_half_variance(self):
        for seed in range(5):
            x = RngStream(seed).generator().standard_normal(40)
            sm = prefix_spectral_mean(x, PhiSpec("indicator", x=math.pi))
            acov0 = prefix_autocov(x, 0)
            lo = sm.first_valid - acov0.first_valid
            np.testing.assert_allclose(
                sm.estimates[:, 0], acov0.estimates[lo:, 0] / 2.0, atol=1e-10)

    def test_indicator_weight_matches_autocovariance_sum(self):
        # every prefix: sum_k g_k gamma_t(k), two-pass autocovariances of x[:t]
        x = _SERIES
        phi = PhiSpec("indicator", x=1.0)
        sm = prefix_spectral_mean(x, phi)
        g = fourier_coeffs(phi, len(x))
        for row, t in enumerate(range(sm.first_valid, sm.n_eff + 1)):
            gamma = [_brute_autocov(x, t, k, "full_n") for k in range(t)]
            assert sm.estimates[row, 0] == pytest.approx(g[:t] @ gamma, abs=1e-12)

    def test_quadrature_oracle_half_band(self):
        # integrate the cosine-series spectral density estimate numerically
        x = RngStream(5).generator().standard_normal(80)
        n = len(x)
        xc = x - x.mean()
        gamma = np.array([(xc[: n - k] * xc[k:]).sum() / n for k in range(n)])

        def density(lam):
            k = np.arange(1, n)
            return (gamma[0] + 2.0 * (gamma[1:] * np.cos(k * lam)).sum()) / (2 * math.pi)

        expect, _ = quad(density, 0.0, math.pi / 2, limit=400)
        got = prefix_spectral_mean(x, PhiSpec("indicator", x=math.pi / 2)).final[0]
        assert got == pytest.approx(expect, abs=1e-8)


class TestSpectralRatio:
    def test_full_band_is_one(self):
        seq = prefix_spectral_ratio(_SERIES, PhiSpec("indicator", x=math.pi))
        np.testing.assert_allclose(seq.estimates[:, 0], 1.0, atol=1e-12)

    def test_zero_cutoff_is_zero(self):
        seq = prefix_spectral_ratio(_SERIES, PhiSpec("indicator", x=0.0))
        np.testing.assert_allclose(seq.estimates[:, 0], 0.0, atol=1e-15)

    def test_low_frequency_mass_of_positive_ar(self):
        # an AR(1) with coefficient 0.7 concentrates spectral mass near 0,
        # so the series' own low-frequency share exceeds one half
        from selfnorm.dgp import generate
        x = generate("ar1:0.7:normal", 2000, RngStream(3))
        ratio = prefix_spectral_ratio(x, PhiSpec("indicator", x=math.pi / 2))
        assert ratio.final[0] > 0.5

    def test_ratio_equals_mean_quotient(self):
        phi = PhiSpec("indicator", x=1.0)
        ratio = prefix_spectral_ratio(_SERIES, phi).final[0]
        num = prefix_spectral_mean(_SERIES, phi).final[0]
        den = prefix_spectral_mean(_SERIES, PhiSpec("indicator", x=math.pi)).final[0]
        assert ratio == pytest.approx(num / den, rel=1e-12)


class TestLadAr:
    def test_noiseless_ar1_exact(self):
        x = np.empty(40)
        x[0] = 1.0
        for t in range(1, 40):
            x[t] = 0.5 * x[t - 1]
        seq = prefix_lad_ar(x, 1)
        np.testing.assert_allclose(seq.estimates, 0.5, atol=1e-7)

    def test_ar2_consistency(self):
        from selfnorm.dgp import generate
        x = generate("m7", 600, RngStream(9))
        seq = prefix_lad_ar(x, 2)
        np.testing.assert_allclose(seq.final, [0.6, 0.35], atol=0.1)

    def test_grid_oracle_tiny_instance(self):
        # exhaustive search over the AR coefficient, step 1e-4
        x = RngStream(13).generator().standard_normal(12).cumsum()
        seq = prefix_lad_ar(x, 1)
        a, y = x[:-1], x[1:]
        grid = np.arange(-1.0, 1.0 + 1e-9, 1e-4)
        losses = np.abs(y[:, None] - a[:, None] * grid[None, :]).sum(axis=0)
        best = grid[np.argmin(losses)]
        assert seq.final[0] == pytest.approx(best, abs=2e-4)


def _two_pass_acov_table(x):
    """gamma[t][k] for every prefix t and lag k < t: centre x[:t] by its own
    mean in two passes (the second removes the rounding of the first), then
    math.fsum the lagged products; a constant prefix is exactly zero."""
    x = [float(v) for v in x]
    table = {}
    for t in range(1, len(x) + 1):
        m = math.fsum(x[:t]) / t
        d = [v - m for v in x[:t]]
        m = math.fsum(d) / t
        d = [0.0] * t if min(x[:t]) == max(x[:t]) else [v - m for v in d]
        table[t] = [math.fsum(d[j] * d[j + k] for j in range(t - k)) / t
                    for k in range(t)]
    return table


def _two_pass_oracle(spec, x):
    """Prefix values of a lag or spectral spec from _two_pass_acov_table."""
    gamma = _two_pass_acov_table(x)
    ts = range(spec.first_valid(), len(x) + 1)
    if spec.kind in ("acov", "acf"):
        num = [gamma[t][spec.lag] for t in ts]
        den = [gamma[t][0] for t in ts] if spec.kind == "acf" else None
    else:
        g = fourier_coeffs(spec.phi(), len(x))
        num = [math.fsum(g[k] * gamma[t][k] for k in range(t)) for t in ts]
        den = [gamma[t][0] / 2.0 for t in ts] if spec.kind == "specratio" else None
    num = np.array(num)
    if den is None:
        return num, np.array([gamma[t][0] for t in ts])
    return num / np.array(den), np.ones(len(num))


class TestLevelOffsetAndScale:
    """The prefix-sum kernels must not cancel under a level offset: every
    target is shift-invariant, and the ratios are scale-invariant.  Errors
    are relative to the prefix variance (acov, specmean) or to 1 (acf and
    specratio, which it bounds)."""

    TARGETS = ["acov:0", "acov:1", "acf:1", "specmean:pi/2", "specratio:pi/2"]

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("offset,tol", [(1e6, 1e-9), (1e8, 1e-6)])
    def test_offset_matches_two_pass_oracle(self, target, offset, tol):
        spec = EstimatorSpec.parse(target)
        x = _SERIES + offset
        values, _, ok = batch_prefix_values(spec, x[None, :])
        expect, scale = _two_pass_oracle(spec, x)
        assert ok[0]
        assert np.max(np.abs(values[0] - expect) / scale) <= tol

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("a", [1e150, 1e-150])
    def test_extreme_scales(self, target, a):
        spec = EstimatorSpec.parse(target)
        power = 0 if spec.kind in ("acf", "specratio") else 2
        base, _, _ = batch_prefix_values(spec, _SERIES[None, :])
        scaled, _, ok = batch_prefix_values(spec, a * _SERIES[None, :])
        assert ok[0]
        _, scale = _two_pass_oracle(spec, _SERIES)
        assert np.max(np.abs(scaled[0] / a**power - base[0]) / scale) <= 1e-12

    def test_offset_autocorrelation_not_degenerate(self):
        seq = prefix_autocorr(_SERIES + 1e8, 1)
        np.testing.assert_allclose(seq.estimates[:, 0],
                                   prefix_autocorr(_SERIES, 1).estimates[:, 0],
                                   atol=1e-6)


class TestSpectralBruteForce:
    """batch_prefix_spectral against per-prefix sum_k g_k gamma_t(k), with
    two-pass autocovariances, on batches with constant and near-constant
    rows.  Errors are relative to the prefix's mean square about the
    full-sample mean, the centring the kernel uses: the prefix variance,
    plus the squared distance of the prefix mean from the full-sample mean
    (which only the random-walk row makes large)."""

    @pytest.mark.parametrize("n", [4, 5, 57, 600])
    def test_every_prefix_and_ok_mask(self, n):
        gen = np.random.default_rng(n)
        x = np.stack([
            gen.standard_normal(n),
            gen.standard_normal(n).cumsum(),
            np.full(n, 0.1),  # its mean rounds away from 0.1
            3.7 + 1e-9 * gen.standard_normal(n),
        ])
        gammas = []
        for row in x:
            gamma = np.zeros((n + 1, n))
            for t in range(1, n + 1):
                # corrected two-pass centring; a constant prefix is exactly 0
                xs = row[:t] - row[:t].mean()
                xs = xs - xs.mean() if np.ptp(row[:t]) > 0.0 else 0.0 * xs
                gamma[t, :t] = np.correlate(xs, xs, "full")[t - 1:] / t
            gammas.append(gamma[4:])  # prefixes t = 4..n
        gammas = np.stack(gammas)
        var = gammas[:, :, 0]
        t = np.arange(1, n + 1)
        drift = (np.cumsum(x, axis=1) / t - x.mean(axis=1, keepdims=True))[:, 3:]
        scale = var + drift**2
        for cutoff in (0.0, math.pi / 4, math.pi / 2, math.pi):
            phi = PhiSpec("indicator", x=cutoff)
            expect = gammas @ fourier_coeffs(phi, n)
            vals, ok = batch_prefix_spectral(x, phi, ratio=False)
            assert ok.all()
            assert np.all(np.abs(vals - expect) <= 1e-12 * scale)
            den = var / 2.0
            expect_ok = (den > 1e-14 * den[:, -1:]).all(axis=1) & (den[:, -1] > 0)
            vals, ok = batch_prefix_spectral(x, phi, ratio=True)
            np.testing.assert_array_equal(ok, expect_ok)
            assert np.all(np.isnan(vals[~ok]))
            err = np.abs(vals[ok] - expect[ok] / den[ok])
            assert np.all(err <= 1e-12 * scale[ok] / var[ok])


class TestBatchAgreement:
    @pytest.mark.parametrize("target", [
        "mean", "median", "acov:1", "acf:2", "specmean:pi/2", "specratio:pi/2",
    ])
    def test_batch_rows_match_single_series(self, target, rng):
        spec = EstimatorSpec.parse(target)
        x = rng.standard_normal((4, 30))
        values, first_valid, ok = batch_prefix_values(spec, x)
        assert ok.all()
        for i in range(4):
            seq = prefix_estimates(spec, x[i])
            assert seq.first_valid == first_valid
            np.testing.assert_allclose(values[i], seq.estimates[:, 0], atol=1e-12)


@st.composite
def _series_and_affine(draw):
    n = draw(st.integers(12, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    a = draw(st.floats(0.1, 10.0))
    b = draw(st.floats(-5.0, 5.0))
    return np.random.default_rng(seed).standard_normal(n), a, b


class TestEquivariance:
    @given(_series_and_affine())
    @settings(max_examples=25, deadline=None)
    def test_location_scale_of_mean_and_median(self, case):
        x, a, b = case
        for fn in (prefix_mean, prefix_median):
            base = fn(x).estimates[:, 0]
            moved = fn(a * x + b).estimates[:, 0]
            np.testing.assert_allclose(moved, a * base + b, rtol=1e-10, atol=1e-10)

    @given(_series_and_affine())
    @settings(max_examples=25, deadline=None)
    def test_autocov_scales_quadratically(self, case):
        x, a, b = case
        base = prefix_autocov(x, 1).estimates[:, 0]
        moved = prefix_autocov(a * x + b, 1).estimates[:, 0]
        np.testing.assert_allclose(moved, a * a * base, rtol=1e-8, atol=1e-12)

    @given(_series_and_affine())
    @settings(max_examples=25, deadline=None)
    def test_autocorr_and_ratio_invariant(self, case):
        x, a, b = case
        y = a * x + b
        np.testing.assert_allclose(
            prefix_autocorr(y, 1).estimates[:, 0],
            prefix_autocorr(x, 1).estimates[:, 0], rtol=1e-7, atol=1e-10)
        phi = PhiSpec("indicator", x=math.pi / 2)
        np.testing.assert_allclose(
            prefix_spectral_ratio(y, phi).estimates[:, 0],
            prefix_spectral_ratio(x, phi).estimates[:, 0], rtol=1e-7, atol=1e-10)

    @given(_series_and_affine())
    @settings(max_examples=10, deadline=None)
    def test_lad_ar_scale_invariant(self, case):
        x, a, _ = case
        base = prefix_lad_ar(x, 1).estimates[:, 0]
        scaled = prefix_lad_ar(a * x, 1).estimates[:, 0]
        np.testing.assert_allclose(scaled, base, atol=5e-6)


def test_fft_len_is_the_next_5_smooth_number():
    def smooth(m):
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        return m == 1

    # walking down from a 5-smooth bound, the next 5-smooth number >= m
    nxt = 12150  # 2 * 3^5 * 5^2
    assert smooth(nxt)
    for m in range(nxt, 0, -1):
        if smooth(m):
            nxt = m
        if m <= 12000:
            assert _fft_len(m) == nxt, m
