"""Prefix estimators against hand values, brute-force prefix oracles, and a
numerical-quadrature oracle for the spectral averages."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from selfnorm import estimators
from selfnorm.core import DegenerateVarianceError, RngStream, SolverFailedError, ValidationError
from selfnorm.estimators import (
    ROW_SUM_MIN_WIDTH,
    EstimatorSpec,
    _fft_len,
    batch_prefix_values,
    fourier_coeffs,
    prefix_estimates,
    prefix_lad_ar,
)

# moderately sized random series reused by the brute-force oracles
_SERIES = np.random.default_rng(524287).standard_normal(60)


def _brute_autocov(x, t, k):
    xs = x[:t]
    m = xs.mean()
    return float(((xs[k:] - m) * (xs[:t - k] - m)).sum()) / t


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

    @pytest.mark.parametrize("x", [
        "pi", "pi/2", "pi/4", "3pi/4", repr(math.pi - 1e-13),
        *(repr(v + d) for v in (math.pi / 2, math.pi / 4, 3 * math.pi / 4) for d in (-1e-13, 1e-13)),
        "0.7853981633974", "0.0", "0.1", "2.5",
    ])
    def test_canonical_form_parses_to_the_same_spec(self, x):
        # a pi token names exactly the float it parses to, so a cutoff 1e-13
        # from pi/4 keeps its digits and the echoed command reruns that cutoff
        spec = EstimatorSpec.parse(f"specratio:{x}")
        assert spec.canonical() == f"specratio:{x}"
        assert EstimatorSpec.parse(spec.canonical()) == spec

    @pytest.mark.parametrize("text", [
        "mean:1", "acov", "acov:x", "specmean", "specmean:4.0",
        "ladar:0", "ladar", "unknown", "acf:-1", "acf:0",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValidationError):
            EstimatorSpec.parse(text)

    @pytest.mark.parametrize("text,message", [
        ("mean:1", "mean takes no arguments"),
        ("median:2", "median takes no arguments"),
        ("acov", "acov needs a lag, e.g. acov:1"),
        ("acf:1:2", "acf needs a lag, e.g. acf:1"),
        ("specmean", "specmean needs a cutoff, e.g. specmean:pi/2"),
        ("specratio", "specratio needs a cutoff, e.g. specratio:pi/2"),
        ("ladar", "ladar needs an order, e.g. ladar:2"),
        ("acov:x", "bad lag 'x'"),
        ("ladar:x", "bad order 'x'"),
        ("specmean:foo", "cannot parse angle 'foo'"),
        ("bogus", "unknown estimator 'bogus'"),
        ("acf:0", "autocorrelation lag must be >= 1"),
        ("acf:-1", "autocorrelation lag must be >= 1"),
        ("acov:-1", "lag must be >= 0"),
    ])
    def test_usage_messages(self, text, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            EstimatorSpec.parse(text)

    @staticmethod
    def _spec(kind):
        """A spec of kind with lag 2, cutoff 1.0 or order 2, as it takes."""
        field = EstimatorSpec.FIELD.get(kind)
        return EstimatorSpec(kind, **({} if field is None else {field: 1.0 if field == "x" else 2}))

    @pytest.mark.parametrize("kind", EstimatorSpec.KINDS)
    def test_every_kind_round_trips(self, kind):
        spec = self._spec(kind)
        assert EstimatorSpec.parse(spec.canonical()) == spec

    @pytest.mark.parametrize("kind", EstimatorSpec.KINDS)
    def test_every_kind_returns_values_and_ok(self, kind, rng):
        spec = self._spec(kind)
        values, ok = batch_prefix_values(spec, rng.standard_normal((3, 60)))
        assert values.shape == (3, 61 - spec.first_valid(), spec.dim)
        assert ok.shape == (3,) and ok.dtype == bool

    @pytest.mark.parametrize("kind,field,value", [
        ("mean", "lag", 3), ("median", "x", 1.0), ("acov", "order", 2),
        ("acf", "x", 2.0), ("specmean", "lag", 1), ("specratio", "order", 1),
        ("ladar", "lag", 1), ("mean", "x", math.nan),
    ])
    def test_rejects_a_field_its_kind_does_not_take(self, kind, field, value):
        # such a spec would print like the parsed one but compare unequal to it
        taken = {"acov": {"lag": 1}, "acf": {"lag": 1}, "specmean": {"x": 1.0},
                 "specratio": {"x": 1.0}, "ladar": {"order": 1}}.get(kind, {})
        with pytest.raises(ValidationError, match=f"^{kind} takes no {field}$"):
            EstimatorSpec(kind, **taken, **{field: value})
        spec = EstimatorSpec(kind, **taken)
        assert EstimatorSpec.parse(spec.canonical()) == spec

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
        seq = prefix_estimates(EstimatorSpec.parse("mean"), (1.0, 2.0, 3.0, 4.0, 5.0))
        np.testing.assert_allclose(seq.estimates[:, 0], [1, 1.5, 2, 2.5, 3])

    def test_constant(self):
        seq = prefix_estimates(EstimatorSpec.parse("mean"), np.full(6, 2.5))
        np.testing.assert_array_equal(seq.estimates[:, 0], np.full(6, 2.5))

    def test_sign_symmetry(self):
        seq = prefix_estimates(EstimatorSpec.parse("mean"), (-1.0, 1.0))
        np.testing.assert_allclose(seq.estimates[:, 0], [-1.0, 0.0])


class TestPrefixMedian:
    def test_hand_values(self):
        seq = prefix_estimates(EstimatorSpec.parse("median"), (3.0, 1.0, 2.0))
        np.testing.assert_allclose(seq.estimates[:, 0], [3, 2, 2])

    def test_sorted_input_midpoint_rule(self):
        seq = prefix_estimates(EstimatorSpec.parse("median"), (1.0, 2.0, 3.0, 4.0, 5.0))
        np.testing.assert_allclose(seq.estimates[:, 0], [1, 1.5, 2, 2.5, 3])

    def test_matches_numpy_per_prefix(self):
        seq = prefix_estimates(EstimatorSpec.parse("median"), _SERIES)
        expect = [np.median(_SERIES[:t]) for t in range(1, len(_SERIES) + 1)]
        np.testing.assert_allclose(seq.estimates[:, 0], expect, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 31])
    def test_batch_equals_numpy_with_ties(self, n, rng):
        # rounded draws repeat values; every prefix must equal np.median exactly
        x = np.round(rng.standard_normal((6, n)), 0)
        x[0] = 1.5
        spec = EstimatorSpec.parse("median")
        values, _ = batch_prefix_values(spec, x)
        expect = np.stack([np.median(x[:, :t], axis=1) for t in range(1, n + 1)], axis=1)
        np.testing.assert_array_equal(values[:, :, 0], expect)

    def test_ties_and_signed_zeros(self, rng):
        # the sort need not be stable: ties have equal bytes once -0.0 is
        # +0.0, so every prefix is np.median's and a zero median has no sign
        x = rng.choice([-1.0, -0.0, 0.0, 0.0, 2.5, 2.5], size=(40, 25))
        x[0] = -0.0
        x[1, ::2] = -0.0
        values = batch_prefix_values(EstimatorSpec.parse("median"), x)[0][:, :, 0]
        expect = np.stack([np.median(x[:, :t], axis=1) for t in range(1, 26)], axis=1)
        np.testing.assert_array_equal(values, expect)
        assert (values == 0.0).sum() > 40
        assert not np.signbit(values[values == 0.0]).any()


class TestPrefixAutocov:
    def test_alternating_hand_value(self):
        seq = prefix_estimates(EstimatorSpec.parse("acov:1"), (1.0, -1.0, 1.0, -1.0))
        assert seq.final[0] == pytest.approx(-0.75)

    def test_lag_zero_is_variance(self):
        seq = prefix_estimates(EstimatorSpec.parse("acov:0"), _SERIES)
        assert (seq.estimates[:, 0] >= 0).all()
        assert seq.final[0] == pytest.approx(np.var(_SERIES), rel=1e-12)

    def test_iid_lag_one_small(self):
        x = RngStream(11).generator().standard_normal(500)
        assert abs(prefix_estimates(EstimatorSpec.parse("acov:1"), x).final[0]) < 0.2

    # the ids name the divisor: every prefix autocovariance divides by t
    @pytest.mark.parametrize("k", [0, 1, 2, 5], ids=lambda k: f"{k}-full_n")
    def test_brute_force_prefix_oracle(self, k):
        seq = prefix_estimates(EstimatorSpec.parse(f"acov:{k}"), _SERIES)
        for row, t in enumerate(range(seq.first_valid, seq.n_eff + 1)):
            expect = _brute_autocov(_SERIES, t, k)
            assert seq.estimates[row, 0] == pytest.approx(expect, abs=1e-12)

    def test_lag_too_large(self):
        from selfnorm.core import LagTooLargeError
        with pytest.raises(LagTooLargeError):
            prefix_estimates(EstimatorSpec.parse("acov:5"), np.arange(5.0))


class TestPrefixAutocorr:
    def test_alternating_hand_value(self):
        seq = prefix_estimates(EstimatorSpec.parse("acf:1"), (1.0, -1.0, 1.0, -1.0))
        assert seq.final[0] == pytest.approx(-0.75)

    def test_linear_trend_near_one(self):
        seq = prefix_estimates(EstimatorSpec.parse("acf:1"), np.arange(100, dtype=np.float64))
        assert 0.9 < seq.final[0] <= 1.0

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            prefix_estimates(EstimatorSpec.parse("acf:1"), np.full(10, 3.0))


class TestFourierCoeffs:
    def test_full_band_indicator(self):
        g = fourier_coeffs(math.pi, 6)
        assert g[0] == pytest.approx(0.5)
        np.testing.assert_allclose(g[1:], 0.0, atol=1e-15)

    def test_half_band_indicator(self):
        g = fourier_coeffs(math.pi / 2, 4)
        np.testing.assert_allclose(
            g, [0.25, 1 / math.pi, 0.0, -1 / (3 * math.pi)], atol=1e-15)


class TestSpectralMean:
    def test_full_band_equals_half_variance(self):
        for seed in range(5):
            x = RngStream(seed).generator().standard_normal(40)
            sm = prefix_estimates(EstimatorSpec.parse("specmean:pi"), x)
            acov0 = prefix_estimates(EstimatorSpec.parse("acov:0"), x)
            lo = sm.first_valid - acov0.first_valid
            np.testing.assert_allclose(
                sm.estimates[:, 0], acov0.estimates[lo:, 0] / 2.0, atol=1e-10)

    def test_indicator_weight_matches_autocovariance_sum(self):
        # every prefix: sum_k g_k gamma_t(k), two-pass autocovariances of x[:t]
        x = _SERIES
        sm = prefix_estimates(EstimatorSpec.parse("specmean:1.0"), x)
        g = fourier_coeffs(1.0, len(x))
        for row, t in enumerate(range(sm.first_valid, sm.n_eff + 1)):
            gamma = [_brute_autocov(x, t, k) for k in range(t)]
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
        got = prefix_estimates(EstimatorSpec.parse("specmean:pi/2"), x).final[0]
        assert got == pytest.approx(expect, abs=1e-8)


class TestSpectralRatio:
    def test_full_band_is_one(self):
        seq = prefix_estimates(EstimatorSpec.parse("specratio:pi"), _SERIES)
        np.testing.assert_allclose(seq.estimates[:, 0], 1.0, atol=1e-12)

    def test_zero_cutoff_is_zero(self):
        seq = prefix_estimates(EstimatorSpec.parse("specratio:0.0"), _SERIES)
        np.testing.assert_allclose(seq.estimates[:, 0], 0.0, atol=1e-15)

    def test_low_frequency_mass_of_positive_ar(self):
        # an AR(1) with coefficient 0.7 concentrates spectral mass near 0,
        # so the series' own low-frequency share exceeds one half
        from selfnorm.dgp import generate
        x = generate("ar1:0.7:normal", 2000, RngStream(3))
        ratio = prefix_estimates(EstimatorSpec.parse("specratio:pi/2"), x)
        assert ratio.final[0] > 0.5

    def test_ratio_equals_mean_quotient(self):
        ratio = prefix_estimates(EstimatorSpec.parse("specratio:1.0"), _SERIES).final[0]
        num = prefix_estimates(EstimatorSpec.parse("specmean:1.0"), _SERIES).final[0]
        den = prefix_estimates(EstimatorSpec.parse("specmean:pi"), _SERIES).final[0]
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

    @staticmethod
    def _ar(phis, n, seed):
        e = RngStream(seed).generator().standard_normal(n + 50)
        x = np.zeros(n + 50)
        for t in range(len(phis), n + 50):
            x[t] = sum(c * x[t - 1 - j] for j, c in enumerate(phis)) + e[t]
        return x[50:]

    @staticmethod
    def _noiseless_ar2():
        x = np.zeros(80)
        x[:2] = 1.0, 0.3
        for t in range(2, 80):
            x[t] = 0.6 * x[t - 1] + 0.3 * x[t - 2]
        return x

    @pytest.mark.parametrize("case", [
        "ar1", "ar2", "ar3", "int1", "int2", "int3", "noiseless", "constant"])
    def test_every_prefix_attains_the_lp_optimum(self, case):
        # LAD minimizers need not be unique, so the objectives are compared
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix, eye, hstack

        phis = {"1": [0.5], "2": [0.6, 0.3], "3": [0.4, 0.2, 0.2]}
        if case.startswith("ar"):
            p, x = int(case[2]), self._ar(phis[case[2]], 80, 31 + int(case[2]))
        elif case.startswith("int"):  # ties and exact fits
            p, x = int(case[3]), np.round(1.5 * self._ar([0.5, 0.2], 80, 41))
        elif case == "noiseless":
            p, x = 2, self._noiseless_ar2()
        else:
            p, x = 2, np.full(60, 3.0)
        path = estimators._lad_path(x, p)
        a_full = np.column_stack([x[p - 1 - j: len(x) - 1 - j] for j in range(p)])
        first = p + estimators.LAD_EXTRA_PREFIX
        for k, theta in enumerate(path):
            a, y = a_full[: first - p + k], x[p: first + k]
            m = y.size
            lp = linprog(np.r_[np.zeros(p), np.ones(2 * m)],
                         A_eq=hstack([csr_matrix(a), eye(m), -eye(m)]), b_eq=y,
                         bounds=[(None, None)] * p + [(0, None)] * (2 * m), method="highs")
            assert lp.status == 0
            obj = np.abs(y - a @ theta).sum()
            assert obj == pytest.approx(lp.fun, rel=1e-9, abs=1e-12 * np.abs(y).sum()), k

    @pytest.mark.parametrize("n,rep", [(600, 21), (150, 40)])
    def test_study_5b_replications_solve(self, n, rep):
        # the two m9 replications whose ladar:2 paths stopped study 5b at
        # seed 1 with "did not converge"
        from selfnorm.dgp import generate_batch

        x = generate_batch("m9", n, [RngStream(1).child("rep", rep)])
        values, ok = batch_prefix_values(EstimatorSpec.parse("ladar:2"), x)
        assert ok.all()
        assert np.isfinite(values).all()


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
        g = fourier_coeffs(spec.x, len(x))
        num = [math.fsum(g[k] * gamma[t][k] for k in range(t)) for t in ts]
        den = [gamma[t][0] / 2.0 for t in ts] if spec.kind == "specratio" else None
    num = np.array(num)
    if den is None:
        return num, np.array([gamma[t][0] for t in ts])
    return num / np.array(den), np.ones(len(num))


def _acf_oracle(x, k, ts):
    """Lag-k autocorrelation of each prefix t in ts: the prefix centred by
    its own mean in two passes, then math.fsum of the lagged and squared
    deviations."""
    out = []
    for t in ts:
        d = x[:t] - math.fsum(x[:t]) / t
        d = d - math.fsum(d) / t
        out.append(math.fsum(d[: t - k] * d[k:]) / math.fsum(d * d))
    return np.array(out)


def _kernel(text, x):
    """batch_prefix_values of a one-dimensional statistic as (B, rows)."""
    values, ok = batch_prefix_values(EstimatorSpec.parse(text), x)
    return values[:, :, 0], ok


class TestAutocorrKernel:
    """The acf:1 kernel against a two-pass oracle where the bootstrap and the
    single-series paths use it, and its ok mask on degenerate rows."""

    def test_bootstrap_shape(self):
        from selfnorm.bootstrap import _draw
        from selfnorm.dgp import generate_batch

        series = generate_batch("ar1:0.5:normal", 50, [RngStream(3)])[0]
        x = _draw(series, 4, 1000, np.random.default_rng(8))  # (1000, 50) block resamples
        values, ok = _kernel("acf:1", x)
        assert ok.all()
        for row in range(0, 1000, 40):
            expect = _acf_oracle(x[row], 1, range(3, 51))
            assert np.max(np.abs(values[row] - expect)) <= 1e-13

    def test_long_series(self):
        from selfnorm.dgp import generate_batch

        x = generate_batch("ar1:0.5:normal", 5000, [RngStream(4)])
        values, ok = _kernel("acf:1", x)
        assert ok.all()
        ts = np.r_[3:60, 60:5000:97, 5000]
        assert np.max(np.abs(values[0, ts - 3] - _acf_oracle(x[0], 1, ts))) <= 1e-13

    def test_constant_and_near_constant_rows(self):
        z = np.random.default_rng(9).standard_normal(50)
        rows = np.array([
            np.full(50, 7.0),
            np.zeros(50),
            1.0 + 1e-9 * z,
            1e6 + 1e-3 * z,
            3.0 + 1e-12 * z,
            np.r_[np.full(10, 2.0), z[10:]],  # its first prefixes are constant
            np.r_[z[:40], np.full(10, 0.5)],
            np.where(z > 0, 1.0, -1.0),
            np.r_[np.full(49, 1.0), 2.0],
            1e-300 * z,  # its variance underflows
        ])
        values, ok = _kernel("acf:1", rows)
        expect_ok = [False, False, True, True, True, False, True, True, False, False]
        assert ok.tolist() == expect_ok
        assert np.isnan(values[~ok]).all()
        for row in np.flatnonzero(ok):
            assert np.max(np.abs(values[row] - _acf_oracle(rows[row], 1, range(3, 51)))) <= 1e-13


class TestLevelOffsetAndScale:
    """The prefix-sum kernels must not cancel under a level offset: every
    target is shift-invariant, and the ratios are scale-invariant.  Errors
    are relative to the prefix variance (acov, specmean) or to 1 (acf and
    specratio, which it bounds); under a scale, the mean and median errors
    are relative to the series' standard deviation."""

    TARGETS = ["acov:0", "acov:1", "acf:1", "specmean:pi/2", "specratio:pi/2"]

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("offset,tol", [(1e6, 1e-9), (1e8, 1e-6)])
    def test_offset_matches_two_pass_oracle(self, target, offset, tol):
        spec = EstimatorSpec.parse(target)
        x = _SERIES + offset
        values, ok = batch_prefix_values(spec, x[None, :])
        expect, scale = _two_pass_oracle(spec, x)
        assert ok[0]
        assert np.max(np.abs(values[0, :, 0] - expect) / scale) <= tol

    @pytest.mark.parametrize("target", ["mean", "median", *TARGETS])
    @pytest.mark.parametrize("a", [1e150, 1e-150])
    def test_extreme_scales(self, target, a):
        spec = EstimatorSpec.parse(target)
        power = {"mean": 1, "median": 1, "acf": 0, "specratio": 0}.get(spec.kind, 2)
        base, _ = batch_prefix_values(spec, _SERIES[None, :])
        scaled, ok = batch_prefix_values(spec, a * _SERIES[None, :])
        assert ok[0]
        scale = np.std(_SERIES) if power == 1 else _two_pass_oracle(spec, _SERIES)[1]
        assert np.max(np.abs(scaled[0, :, 0] / a**power - base[0, :, 0]) / scale) <= 1e-12

    def test_offset_autocorrelation_not_degenerate(self):
        spec = EstimatorSpec.parse("acf:1")
        seq = prefix_estimates(spec, _SERIES + 1e8)
        np.testing.assert_allclose(seq.estimates[:, 0],
                                   prefix_estimates(spec, _SERIES).estimates[:, 0],
                                   atol=1e-6)


class TestSpectralBruteForce:
    """The specmean and specratio kernels against per-prefix sum_k g_k gamma_t(k), with
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
            expect = gammas @ fourier_coeffs(cutoff, n)
            vals, ok = _kernel(f"specmean:{cutoff!r}", x)
            assert ok.all()
            assert np.all(np.abs(vals - expect) <= 1e-12 * scale)
            den = var / 2.0
            expect_ok = (den > 1e-14 * den[:, -1:]).all(axis=1) & (den[:, -1] > 0)
            vals, ok = _kernel(f"specratio:{cutoff!r}", x)
            np.testing.assert_array_equal(ok, expect_ok)
            assert np.all(np.isnan(vals[~ok]))
            err = np.abs(vals[ok] - expect[ok] / den[ok])
            assert np.all(err <= 1e-12 * scale[ok] / var[ok])


class TestPrefixSum:
    """The running sums over prefixes keep np.cumsum's bytes on both sides of
    the width at which they add whole rows."""

    @pytest.mark.parametrize("width", [1, ROW_SUM_MIN_WIDTH - 1, ROW_SUM_MIN_WIDTH, 700])
    def test_bytes_of_cumsum(self, width, rng):
        a = rng.standard_normal((40, width)) * 10.0 ** rng.integers(-300, 300, (40, width))
        a[0, ::2] = -0.0
        a[:, 0] = -0.0  # a column of -0.0 sums to -0.0
        a[5, 1::3], a[7, 2::5], a[9, 3::7] = np.inf, -np.inf, np.nan
        with np.errstate(invalid="ignore"):
            expect = np.cumsum(a, axis=0).tobytes()
            assert estimators._prefix_sum(a).tobytes() == expect
            # through a series-major view, as the mean reads its rows
            assert np.ascontiguousarray(estimators._prefix_sum(a.T.copy().T)).tobytes() == expect
            same = a.copy()
            assert estimators._prefix_sum(same, out=same) is same
        assert same.tobytes() == expect
        assert np.signbit(same[:, 0]).all()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("width", [ROW_SUM_MIN_WIDTH - 1, ROW_SUM_MIN_WIDTH])
    def test_prefix_sums_start_at_a_zero_row(self, width, order, rng):
        # the same bytes whether stored time-major or series-major
        x = rng.standard_normal((width, 30)) + 1e6
        xc, p = estimators._centered_prefix_sums(x, order)
        assert xc.shape == (30, width) and p.shape == (31, width)
        assert xc.flags[order + "_CONTIGUOUS"] and p.flags[order + "_CONTIGUOUS"]
        assert (p[0] == 0.0).all() and not np.signbit(p[0]).any()
        assert p[1:].tobytes() == np.cumsum(xc, axis=0).tobytes()
        assert xc.tobytes() == np.ascontiguousarray((x - x.mean(axis=1)[:, None]).T).tobytes()


class TestBatchAgreement:
    @pytest.mark.parametrize("target", [
        "mean", "median", "acov:1", "acf:2", "specmean:pi/2", "specratio:pi/2",
        "ladar:1", "ladar:2",
    ])
    def test_batch_rows_match_single_series(self, target, rng):
        spec = EstimatorSpec.parse(target)
        x = rng.standard_normal((4, 30))
        values, ok = batch_prefix_values(spec, x)
        assert ok.all()
        for i in range(4):
            seq = prefix_estimates(spec, x[i])
            assert seq.first_valid == spec.first_valid()
            np.testing.assert_array_equal(values[i], seq.estimates)

    @pytest.mark.parametrize("shape", [
        (ROW_SUM_MIN_WIDTH - 1, 30), (ROW_SUM_MIN_WIDTH, 30), (1000, 50),
    ])
    @pytest.mark.parametrize("target", [
        "mean", "median", "acov:1", "acf:2", "specmean:pi/2", "specratio:pi/2",
    ])
    def test_wide_batch_rows_match_single_series(self, target, shape, rng):
        # on both sides of the width at which running sums add whole rows
        spec = EstimatorSpec.parse(target)
        x = rng.standard_normal(shape)
        values, ok = batch_prefix_values(spec, x)
        assert ok.all()
        for i in [*range(0, shape[0], 61), shape[0] - 1]:
            seq = prefix_estimates(spec, x[i])
            assert seq.first_valid == spec.first_valid()
            np.testing.assert_array_equal(values[i], seq.estimates)

    def test_failed_lad_fit_marks_only_its_row(self, rng, monkeypatch):
        spec = EstimatorSpec.parse("ladar:2")
        x = rng.standard_normal((3, 30))
        x[1, 2] = 123.0  # marks the middle row: its path fails
        real = estimators._lad_path

        def path(row, p):
            if row[2] == 123.0:
                raise SolverFailedError("injected")
            return real(row, p)

        monkeypatch.setattr(estimators, "_lad_path", path)
        values, ok = batch_prefix_values(spec, x)
        assert values.shape == (3, 30 - spec.first_valid() + 1, 2)
        assert ok.tolist() == [True, False, True]
        assert np.isnan(values[1]).all()
        rest, rest_ok = batch_prefix_values(spec, x[[0, 2]])
        assert rest_ok.all()
        np.testing.assert_array_equal(values[[0, 2]], rest)
        # a single series is a batch of one
        with pytest.raises(SolverFailedError, match="did not converge"):
            prefix_estimates(spec, x[1])


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
        for spec in (EstimatorSpec.parse("mean"), EstimatorSpec.parse("median")):
            base = prefix_estimates(spec, x).estimates[:, 0]
            moved = prefix_estimates(spec, a * x + b).estimates[:, 0]
            np.testing.assert_allclose(moved, a * base + b, rtol=1e-10, atol=1e-10)

    @given(_series_and_affine())
    @settings(max_examples=25, deadline=None)
    def test_autocov_scales_quadratically(self, case):
        x, a, b = case
        base = prefix_estimates(EstimatorSpec.parse("acov:1"), x).estimates[:, 0]
        moved = prefix_estimates(EstimatorSpec.parse("acov:1"), a * x + b).estimates[:, 0]
        np.testing.assert_allclose(moved, a * a * base, rtol=1e-8, atol=1e-12)

    @given(_series_and_affine())
    @settings(max_examples=25, deadline=None)
    def test_autocorr_and_ratio_invariant(self, case):
        x, a, b = case
        y = a * x + b
        for spec in (EstimatorSpec.parse("acf:1"), EstimatorSpec.parse("specratio:pi/2")):
            np.testing.assert_allclose(
                prefix_estimates(spec, y).estimates[:, 0],
                prefix_estimates(spec, x).estimates[:, 0], rtol=1e-7, atol=1e-10)

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
