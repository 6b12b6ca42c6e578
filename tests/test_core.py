"""Series validation, SPD solves, stream derivation, text round-trips."""

import io
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfnorm.core import (
    EstimateSequence,
    NonFiniteError,
    NotPositiveDefiniteError,
    NumericalError,
    RngStream,
    SeriesParseError,
    TooShortError,
    ValidationError,
    as_series,
    chi2_quantile,
    chol_solve_batch,
    generators,
    normal_quantile,
    quadform_batch,
    quadform_spd,
    read_series,
    row_blocks,
    row_exponent,
    solve_spd,
    stream_index_for,
    validate_series,
    write_series,
)

# blake2b-derived stream key, frozen so a changed encoding cannot slip by
_STREAM_KEY_REP_3 = 232797312065277253


class TestValidateSeries:
    def test_accepts_plain_tuple(self):
        ts = validate_series((1.0, 2.0, 3.0))
        assert ts.n == 3
        assert ts.values.dtype == np.float64

    def test_nan_reports_position(self):
        with pytest.raises(NonFiniteError) as err:
            validate_series((1.0, float("nan")))
        assert "1" in str(err.value)

    def test_single_observation_too_short(self):
        with pytest.raises(TooShortError):
            validate_series((5.0,))

    def test_rejects_matrix_input(self):
        with pytest.raises(ValidationError):
            validate_series(np.ones((3, 3)))

    def test_as_series_passthrough(self):
        ts = validate_series((1.0, 2.0))
        assert as_series(ts) is ts


class TestSpdSolve:
    def test_identity(self):
        x = solve_spd(np.eye(2), np.array([3.0, -1.0]))
        np.testing.assert_allclose(x, [3.0, -1.0])

    def test_scalar_diagonal(self):
        x = solve_spd(np.array([[4.0]]), np.array([8.0]))
        np.testing.assert_allclose(x, [2.0])

    def test_hand_elimination(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        x = solve_spd(a, np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    def test_zero_matrix_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            solve_spd(np.zeros((2, 2)), np.zeros(2))

    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_inverse(self, dim, seed):
        # independent oracle: numpy's general solver on a random SPD matrix
        g = np.random.default_rng(seed)
        root = g.standard_normal((dim, dim))
        a = root @ root.T + dim * np.eye(dim)
        b = g.standard_normal(dim)
        np.testing.assert_allclose(solve_spd(a, b), np.linalg.solve(a, b),
                                   rtol=1e-9, atol=1e-9)
        expect = float(b @ np.linalg.solve(a, b))
        assert quadform_spd(a, b) == pytest.approx(expect, rel=1e-9)

    def test_batch_matches_single(self, rng):
        a = np.empty((6, 3, 3))
        b = rng.standard_normal((6, 3))
        for i in range(6):
            root = rng.standard_normal((3, 3))
            a[i] = root @ root.T + 3 * np.eye(3)
        qf, ok = quadform_batch(a, b)
        xs, ok2 = chol_solve_batch(a, b)
        assert ok.all() and ok2.all()
        for i in range(6):
            assert qf[i] == pytest.approx(quadform_spd(a[i], b[i]), rel=1e-12)
            np.testing.assert_allclose(xs[i], solve_spd(a[i], b[i]), rtol=1e-12)

    def test_batch_flags_degenerate_rows(self):
        a = np.stack([np.eye(2), np.zeros((2, 2))])
        qf, ok = quadform_batch(a, np.ones((2, 2)))
        assert ok.tolist() == [True, False]
        assert qf[0] == pytest.approx(2.0)


def test_row_exponent_scales_each_row_exactly_into_half_to_one():
    x = np.array([[0.75, -3.0], [0.0, 0.0], [np.inf, 1.0], [2.0 ** -1074, 0.0]])
    e = row_exponent(x)
    assert e.shape == (4, 1)
    assert e[:, 0].tolist() == [2, 0, 0, -1073]
    np.testing.assert_array_equal(np.ldexp(x[:1], -e[:1]), [[0.1875, -0.75]])
    assert row_exponent(np.full((2, 3, 4), -2.0 ** 600)).reshape(-1).tolist() == [601, 601]


class TestRowBlocks:
    @staticmethod
    def _spans(*args):
        return [(b.start, b.stop) for b in row_blocks(*args)]

    def test_blocks_hold_block_values_and_cover_the_rows_in_order(self):
        assert self._spans(10, (1 << 16) // 4) == [(0, 4), (4, 8), (8, 10)]
        assert self._spans(3, 1) == [(0, 3)]
        assert self._spans(0, 50) == []

    def test_at_least_one_row_and_the_kind_floor(self):
        assert self._spans(3, 1 << 20) == [(0, 1), (1, 2), (2, 3)]
        assert self._spans(300, 600, "median") == [(0, 128), (128, 256), (256, 300)]
        assert self._spans(300, 600) == [(0, 109), (109, 218), (218, 300)]
        assert self._spans(40, 20 * 1000, "uq") == [(0, 32), (32, 40)]


class TestStreams:
    def test_key_is_frozen(self):
        assert stream_index_for("rep", 3) == _STREAM_KEY_REP_3

    def test_keys_distinguish_type_and_order(self):
        assert stream_index_for("rep", 3) != stream_index_for("rep", "3")
        assert stream_index_for(1, 2) != stream_index_for(2, 1)
        assert stream_index_for(12) != stream_index_for(1, 2)

    def test_float_parts_rejected(self):
        with pytest.raises(ValidationError):
            stream_index_for(1.5)
        with pytest.raises(ValidationError):
            stream_index_for(True)

    def test_same_stream_same_draws(self):
        a = RngStream(7, 3).generator().standard_normal(5)
        b = RngStream(7, 3).generator().standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_children_are_distinct(self):
        root = RngStream(7)
        a = root.child("rep", 0).generator().standard_normal(4)
        b = root.child("rep", 1).generator().standard_normal(4)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            RngStream(-1)

    def test_children_equal_child(self):
        for root in (RngStream(7), RngStream(3, 2**70)):
            indices = [0, 1, 5, 199, 2**40, -3]
            assert root.children("rep", indices) == [root.child("rep", i) for i in indices]
            assert root.children(4, range(3)) == [root.child(4, i) for i in range(3)]
        assert RngStream(1).children("rep", []) == []
        with pytest.raises(ValidationError):
            RngStream(1).children("rep", [1.5])


class TestBatchGenerators:
    """generators() works out numpy's SeedSequence for many streams at once;
    RngStream.generator(), numpy's own, is the reference."""

    def test_states_equal_numpy_seedsequence(self):
        # seeds of one, two and five 32-bit words in one call; streams of
        # one, two and three words, and hashed replication streams
        streams = []
        for seed in (0, 1, 2**32 + 1, 2**130):
            streams += [RngStream(seed, s) for s in (0, 5, 2**32 - 1, 2**32, 2**64 - 1, 2**70)]
            streams += RngStream(seed).children("rep", range(20))
        order = np.random.default_rng(3).permutation(len(streams))
        streams = [streams[i] for i in order]
        gens = generators(streams)
        assert len(gens) == len(streams)
        for g, s in zip(gens, streams):
            ref = s.generator()
            assert g.bit_generator.state == ref.bit_generator.state, s
            np.testing.assert_array_equal(g.standard_normal(3), ref.standard_normal(3))

    def test_repeated_and_single_streams(self):
        s = RngStream(9, 4)
        a, b = generators([s, s])
        assert a.bit_generator.state == b.bit_generator.state == s.generator().bit_generator.state
        assert generators([]) == []

    def test_importing_core_loads_no_numpy_random(self):
        code = "import sys, selfnorm.core; print('numpy.random' in sys.modules)"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "False\n"


class TestSeriesIo:
    def test_comments_blanks_and_csv_columns(self):
        text = "# header\n1.5\n\n2.5, 9, 9\n3.5  # trailing\n"
        ts = read_series(io.StringIO(text))
        np.testing.assert_array_equal(ts.values, [1.5, 2.5, 3.5])

    def test_parse_error_carries_line_number(self):
        with pytest.raises(SeriesParseError) as err:
            read_series(io.StringIO("1.0\napple\n2.0\n"))
        assert "2" in str(err.value)

    def test_roundtrip_is_exact(self, rng):
        values = rng.standard_normal(17)
        buf = io.StringIO()
        write_series(values, buf, header="seed 1\nline two")
        text = buf.getvalue()
        assert text.startswith("# seed 1\n# line two\n")
        back = read_series(io.StringIO(text))
        np.testing.assert_array_equal(back.values, values)


class TestEstimateSequence:
    def test_row_count_must_match_prefix_range(self):
        with pytest.raises(ValidationError):
            EstimateSequence(np.zeros(4), first_valid=1, n_eff=5)

    def test_non_finite_estimates_rejected(self):
        with pytest.raises(NumericalError):
            EstimateSequence(np.array([1.0, np.nan]), first_valid=1, n_eff=2)

    def test_scalar_vector_stored_as_column(self):
        seq = EstimateSequence(np.array([1.0, 2.0, 3.0]), first_valid=1, n_eff=3)
        assert seq.estimates.shape == (3, 1)
        assert seq.dim == 1

    def test_shape_rule_does_not_guess(self):
        # 1-d is always a column of scalars; a one-row vector must be 2-d
        with pytest.raises(ValidationError):
            EstimateSequence(np.array([1.0, 2.0]), first_valid=5, n_eff=5)
        seq = EstimateSequence(np.array([[1.0, 2.0]]), first_valid=5, n_eff=5)
        assert seq.dim == 2


_CHI2_ALPHAS = [1e-6, 1e-4, 1e-3, 0.01, 0.025, 0.05, 0.1, 0.2, 0.5, 0.9]


class TestReferenceQuantiles:
    """The port of Cephes ndtri reproduces scipy bit for bit; the chi-square
    quantile agrees with scipy's gammainccinv, which also takes alpha itself,
    not 1 - alpha."""

    def test_normal_quantile_matches_norm_ppf(self):
        from scipy import stats

        levels = np.concatenate([np.arange(1, 10000) / 10000, [0.9, 0.95, 0.99]])
        for level in levels:
            p = 0.5 + float(level) / 2.0
            assert normal_quantile(p) == float(stats.norm.ppf(p)), level

    def test_normal_quantile_matches_ndtri_in_the_tails(self):
        from scipy.special import ndtri

        rng = np.random.default_rng(3)
        ps = np.concatenate([10.0 ** -np.arange(1, 301), 10.0 ** rng.uniform(-300, 0, 2000),
                             1.0 - 10.0 ** -np.arange(1, 17), rng.uniform(size=2000)])
        for p in ps.tolist():
            assert normal_quantile(p) == float(ndtri(p)), p
        assert normal_quantile(0.0) == -np.inf and normal_quantile(1.0) == np.inf

    @pytest.mark.parametrize("alpha", _CHI2_ALPHAS)
    def test_chi2_quantile_matches_chi2_ppf(self, alpha):
        from scipy.special import gammainccinv

        for k in range(1, 31):
            ref = 2 * gammainccinv(k / 2, alpha)
            assert chi2_quantile(k, alpha) == pytest.approx(ref, rel=2e-14, abs=0), k

    @pytest.mark.parametrize("alpha", [0.6, 0.9, 0.99, 0.999, 0.999999])
    def test_chi2_quantile_near_one_keeps_its_digits(self, alpha):
        # alpha > 0.5 lies in the lower tail, where 1 - alpha is exact
        from scipy.special import gammaincinv

        for k in [*range(1, 31), 100, 1000, 5000]:
            ref = 2 * gammaincinv(k / 2, 1 - alpha)
            assert chi2_quantile(k, alpha) == pytest.approx(ref, rel=1e-14, abs=0), k

    @pytest.mark.parametrize("k", [100, 1000, 5000])
    def test_chi2_quantile_for_many_lags(self, k):
        from scipy.special import gammainccinv

        for alpha in _CHI2_ALPHAS:
            ref = 2 * gammainccinv(k / 2, alpha)
            assert chi2_quantile(k, alpha) == pytest.approx(ref, rel=1e-13, abs=0), alpha
