"""Series validation, SPD solves, stream derivation, text round-trips."""

import io

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
    normal_quantile,
    quadform_batch,
    quadform_spd,
    read_series,
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


class TestReferenceQuantiles:
    """The scipy.special formulas reproduce scipy.stats bit for bit."""

    def test_normal_quantile_matches_norm_ppf(self):
        from scipy import stats

        levels = np.concatenate([np.arange(1, 10000) / 10000, [0.9, 0.95, 0.99]])
        for level in levels:
            p = 0.5 + float(level) / 2.0
            assert normal_quantile(p) == float(stats.norm.ppf(p)), level

    @pytest.mark.parametrize("alpha", [0.01, 0.025, 0.05, 0.1])
    def test_chi2_quantile_matches_chi2_ppf(self, alpha):
        from scipy import stats

        for k in range(1, 11):
            assert chi2_quantile(k, alpha) == float(stats.chi2.ppf(1 - alpha, df=k)), k
