"""Model parsing, generator moments, and population target values."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from selfnorm import dgp
from selfnorm.core import RngStream, ValidationError
from selfnorm.dgp import (
    BURN_IN,
    _HETERO_PATTERN,
    ModelSpec,
    _ar_filter,
    autocov_sequence,
    generate,
    generate_batch,
    parse_model,
    true_value,
)


def _streams(seed, count):
    root = RngStream(seed)
    return [root.child("rep", i) for i in range(count)]


class TestParsing:
    def test_noise_families(self):
        assert parse_model("iidn").noise == "normal"
        garch = parse_model("garch")
        assert garch.noise == "garch" and garch.ar == garch.ma == ()
        assert parse_model("BILINEAR").noise == "bilinear"

    def test_ar_and_ma_families(self):
        m1 = parse_model("m1")
        assert m1.ar == (0.7,) and m1.ma == () and m1.noise == "normal"
        m5 = parse_model("m5")
        assert m5.ma == (0.8,) and m5.noise == "t5u"
        assert m5.scale == pytest.approx(math.sqrt(0.6))
        m9 = parse_model("m9")
        assert m9.ar == (0.6, 0.35) and m9.noise == "archu"

    def test_ar1_with_innovation_flavor(self):
        spec = parse_model("ar1:0.5:garch")
        assert spec.ar == (0.5,) and spec.noise == "garch"
        assert parse_model("ar1:0:normal").ar == (0.0,)

    @pytest.mark.parametrize("name", [
        "m0", "m10", "nosuch", "ar1:1.5:normal", "ar1:0.5:laplace", "ar1:0.5",
    ])
    def test_rejects_malformed(self, name):
        with pytest.raises(ValidationError):
            parse_model(name)

    def test_unknown_noise(self):
        spec = ModelSpec("laplace", noise="laplace")
        with pytest.raises(ValidationError, match="unknown noise"):
            generate_batch(spec, 10, _streams(1, 2))
        with pytest.raises(ValidationError, match="unknown noise"):
            autocov_sequence(spec, 2)


class TestDeterminism:
    def test_same_stream_same_series(self):
        a = generate("m1", 50, RngStream(5))
        b = generate("m1", 50, RngStream(5))
        np.testing.assert_array_equal(a, b)

    def test_batch_rows_equal_single_draws(self):
        streams = _streams(5, 4)
        batch = generate_batch("m4", 60, streams)
        for i, s in enumerate(streams):
            np.testing.assert_array_equal(batch[i], generate("m4", 60, s))

    def test_burn_in_constant(self):
        assert BURN_IN == 1000

    @pytest.mark.parametrize("rows", [1, 7, 170])
    def test_batch_seeding_matches_row_by_row_generators(self, monkeypatch, rows):
        # every noise family, filtered or not, against one generator() per row
        models = [*dgp._NOISE_NAMES, *(f"m{i}" for i in range(1, 10)),
                  "ar1:0.5:normal", "ar1:0.5:garch", "ar1:-0.3:bilinear"]
        streams = _streams(17, rows)
        batch = {m: generate_batch(m, 40, streams) for m in models}
        monkeypatch.setattr(dgp, "generators", lambda ss: [s.generator() for s in ss])
        for m in models:
            assert batch[m].tobytes() == generate_batch(m, 40, streams).tobytes(), m


class TestMemory:
    def test_ma_batch_makes_no_full_width_copies(self):
        # 200 rows of 1600 draws are 2.6 MB; stacking row arrays, scaling out
        # of place and filtering all 1600 columns peaked at 7.7 MB traced
        import tracemalloc

        streams = _streams(23, 200)
        generate_batch("m4", 600, streams)
        tracemalloc.start()
        try:
            generate_batch("m4", 600, streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20, peak


def _long_double_recursion(e, ar):
    """x_t = e_t + sum_i ar[i] x_{t-1-i} from a zero start, in long double."""
    e = np.ascontiguousarray(e.T, dtype=np.longdouble)  # time-major rows
    x = np.zeros_like(e)
    coef = [np.longdouble(a) for a in ar]
    for t in range(e.shape[0]):
        x[t] = e[t] + sum(a * x[t - 1 - i] for i, a in enumerate(coef) if t > i)
    return x.T


class TestArScan:
    """The blocked AR scan against scipy's lfilter and an extended-precision
    recursion, relative to the largest value of each filtered row."""

    @pytest.mark.parametrize("ar", [(0.0,), (0.7,), (-0.99,), (0.99,), (0.6, 0.35)])
    def test_rows_match_the_recursion(self, ar):
        from scipy.signal import lfilter

        extended = np.finfo(np.longdouble).eps < 1e-18
        rng = np.random.default_rng(11)
        for rows in (1, 7, 170):
            for n in (2, 31, 32, 33, 600, 5000):
                e = rng.standard_normal((rows, n + BURN_IN))
                got = _ar_filter(e, ar, n)
                ref = lfilter([1.0], np.concatenate(([1.0], -np.asarray(ar))), e, axis=1)
                scale = np.abs(ref).max(axis=1, keepdims=True)
                # lfilter's own rounding reaches 1.2e-15 of the row at |ar| = 0.99
                assert (np.abs(got - ref[:, -n:]) / scale).max() <= 2e-15, (rows, n)
                if extended:
                    exact = _long_double_recursion(e, ar)[:, -n:]
                    assert (np.abs(got - exact) / scale).max() <= 1e-15, (rows, n)

    @pytest.mark.parametrize("ar", [(0.7,), (0.6, 0.35)])
    def test_bits_do_not_depend_on_memory_layout(self, ar):
        e = np.random.default_rng(12).standard_normal((170, 150 + BURN_IN))
        c_order = _ar_filter(e, ar, 150)
        for layout in (np.asfortranarray(e), e.T.copy().T, e[:, ::-1].copy()[:, ::-1]):
            assert _ar_filter(layout, ar, 150).tobytes() == c_order.tobytes()


class TestMoments:
    def test_hetero_scale_pattern(self):
        # the periodic scale repeats every 12 steps with the 11th entry 4
        # and the 13th back at 1
        assert _HETERO_PATTERN.shape == (12,)
        assert _HETERO_PATTERN[10] == 4.0
        assert _HETERO_PATTERN[0] == 1.0
        x = generate_batch("hetero", 24, _streams(31, 4000))
        var = x.var(axis=0)
        assert var[10] == pytest.approx(16.0, rel=0.2)
        assert var[22] == pytest.approx(16.0, rel=0.2)
        assert var[12] == pytest.approx(1.0, rel=0.2)

    def test_one_dependent_product_noise(self):
        x = generate_batch("onedep", 300, _streams(32, 2000))
        assert abs(x.mean()) < 0.01
        lag1 = (x[:, 1:] * x[:, :-1]).mean()
        assert abs(lag1) < 0.01
        assert x.var() == pytest.approx(1.0, rel=0.05)
        assert autocov_sequence("onedep", 0)[0] == 1.0

    def test_m1_sample_autocorrelation(self):
        x = generate("m1", 10_000, RngStream(33))
        xc = x - x.mean()
        rho = float((xc[1:] * xc[:-1]).sum() / (xc @ xc))
        assert rho == pytest.approx(0.7, abs=0.02)

    @pytest.mark.parametrize("noise,var", [
        ("iidn", 1.0),
        ("t6", 1.5),
        ("lognorm", math.e * (math.e - 1.0)),
        ("nonmds", 5.0),
        ("garch", 0.001 / 0.18),
        ("bilinear", 4.0 / 3.0),
    ])
    def test_white_noise_variances(self, noise, var):
        x = generate_batch(noise, 400, _streams(34, 200))
        assert x.var() == pytest.approx(var, rel=0.25)
        assert autocov_sequence(noise, 0)[0] == pytest.approx(var, rel=1e-12)

    # AR(1) gamma(0) = s2 / (1 - a^2); MA(1) s2 (1 + b^2); AR(2)
    # s2 (1 - a2) / ((1 + a2) ((1 - a2)^2 - a1^2)); t5 and ARCH innovations
    # have unit variance before the model's scale
    @pytest.mark.parametrize("name,var", [
        ("m1", 1 / 0.51), ("m2", 0.6 / 0.51), ("m3", 1 / 0.51),
        ("m4", 1.64), ("m5", 0.6 * 1.64), ("m6", 1.64),
        ("m7", 0.65 / (1.35 * 0.0625)), ("m8", 0.6 * 0.65 / (1.35 * 0.0625)),
        ("m9", 0.65 / (1.35 * 0.0625)),
        ("ar1:0.5:normal", 1 / 0.75), ("ar1:0.5:garch", 0.001 / 0.18 / 0.75),
        ("ar1:0.5:bilinear", 4 / 3 / 0.75),
    ])
    def test_filtered_model_variances(self, name, var):
        x = generate_batch(name, 400, _streams(35, 300))
        assert x.var() == pytest.approx(var, rel=0.1)
        assert autocov_sequence(name, 0)[0] == pytest.approx(var, rel=1e-12)

    def test_everything_finite(self):
        # every model name: the eight noise families, m1-m9, ar1 with each innovation
        names = ("iidn", "t6", "lognorm", "onedep", "hetero", "nonmds", "garch", "bilinear",
                 *(f"m{i}" for i in range(1, 10)),
                 "ar1:0.5:normal", "ar1:0.5:garch", "ar1:0.5:bilinear", "ar1:0.8:bilinear")
        for name in names:
            x = generate_batch(name, 200, _streams(36, 50))
            assert x.shape == (50, 200) and np.isfinite(x).all(), name


class TestAutocovSequence:
    def test_ar1_geometric(self):
        g = autocov_sequence("m1", 5)
        g0 = 1.0 / (1 - 0.49)
        for k in range(6):
            assert g[k] == pytest.approx(g0 * 0.7**k, rel=1e-12)

    def test_ma1(self):
        g = autocov_sequence("m4", 4)
        assert g[0] == pytest.approx(1 + 0.64, rel=1e-12)
        assert g[1] == pytest.approx(0.8, rel=1e-12)
        np.testing.assert_allclose(g[2:], 0.0, atol=1e-15)

    def test_ar2_yule_walker_recursion(self):
        g = autocov_sequence("m7", 10)
        for k in range(2, 11):
            assert g[k] == pytest.approx(0.6 * g[k - 1] + 0.35 * g[k - 2], rel=1e-10)

    def test_ar2_matches_simulation(self):
        g = autocov_sequence("m7", 1)
        x = generate_batch("m7", 2000, _streams(37, 100))
        xc = x - x.mean(axis=1, keepdims=True)
        sample_g0 = (xc * xc).mean()
        sample_g1 = (xc[:, 1:] * xc[:, :-1]).mean()
        assert sample_g0 == pytest.approx(g[0], rel=0.1)
        assert sample_g1 == pytest.approx(g[1], rel=0.1)

    def test_white_noise_spike(self):
        g = autocov_sequence("t6", 3)
        assert g[0] == pytest.approx(1.5)
        np.testing.assert_array_equal(g[1:], 0.0)

    def test_hetero_has_no_stationary_autocovariance(self):
        with pytest.raises(ValidationError):
            autocov_sequence("hetero", 2)


class TestTrueValues:
    def test_means_and_medians(self):
        assert true_value("m1", "mean") == 0.0
        assert true_value("iidn", "median") == 0.0
        assert true_value("lognorm", "median") == pytest.approx(
            1.0 - math.exp(0.5))

    def test_autocovariance_targets(self):
        g0 = 1.0 / (1 - 0.49)
        assert true_value("m1", "acov:1") == pytest.approx(0.7 * g0, rel=1e-10)
        assert true_value("m1", "acf:1") == pytest.approx(0.7, rel=1e-12)
        assert true_value("m4", "acf:1") == pytest.approx(0.8 / 1.64, rel=1e-12)

    def test_lad_targets(self):
        np.testing.assert_allclose(true_value("m1", "ladar:1"), [0.7])
        np.testing.assert_allclose(true_value("m7", "ladar:2"), [0.6, 0.35])
        with pytest.raises(ValidationError):
            true_value("m4", "ladar:1")  # moving-average model has no AR truth

    def test_spectral_targets_against_quadrature(self):
        # integrate the closed-form AR(1) spectral density numerically
        phi, s2 = 0.7, 1.0

        def density(lam):
            return s2 / (2 * math.pi * (1 - 2 * phi * math.cos(lam) + phi * phi))

        expect, _ = quad(density, 0.0, math.pi / 2, limit=200)
        got = true_value("m1", "specmean:pi/2")
        assert got == pytest.approx(expect, rel=1e-6)
        ratio = true_value("m1", "specratio:pi/2")
        g0 = 1.0 / (1 - 0.49)
        assert ratio == pytest.approx(expect / (g0 / 2.0), rel=1e-6)

    def test_full_band_targets(self):
        g0 = 1.0 / (1 - 0.49)
        assert true_value("m1", "specmean:pi") == pytest.approx(g0 / 2, rel=1e-9)
        assert true_value("m1", "specratio:pi") == pytest.approx(1.0, rel=1e-12)
