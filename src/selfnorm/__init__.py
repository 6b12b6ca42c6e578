"""Tuning-parameter-free confidence intervals, regions and non-correlation
tests for stationary time series, normalized by recursive prefix estimates
instead of a consistent long-run variance estimate.

Quick start::

    import numpy as np
    from selfnorm import EstimatorSpec, prefix_estimates, sn_interval, get_quantile

    x = np.loadtxt("series.txt")
    spec = EstimatorSpec.parse("acf:1")
    seq = prefix_estimates(spec, x)
    crit = get_quantile(spec.dim, 0.05)
    print(sn_interval(seq, crit, level=0.95, estimator="acf:1").to_json())
"""

from .core import (
    DegenerateVarianceError,
    EstimateSequence,
    NonFiniteError,
    NotPositiveDefiniteError,
    NumericalError,
    RngStream,
    SelfnormError,
    SeriesParseError,
    SolverFailedError,
    TimeSeries,
    TooManyDegenerateResamplesError,
    TooShortError,
    ValidationError,
    as_series,
    read_series,
    stream_index_for,
    validate_series,
    write_series,
)
from .estimators import (
    EstimatorSpec,
    PhiSpec,
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
from .inference import (
    Ellipsoid,
    Interval,
    SelfNormResult,
    sn_interval,
    sn_pivot,
    sn_region,
    wn_matrix,
)
from .critvals import (
    CritvalTable,
    get_quantile,
    load_table,
    simulate_uq,
)
from .noncorr import (
    EfficientCiResult,
    NoncorrResult,
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
from .bootstrap import (
    MbbConfig,
    MbbResult,
    mbb_normal_ci,
    mbb_percentile_ci,
    mbb_resample,
    mbb_sn_ci,
)
from .dgp import generate, generate_batch, parse_model, true_value
from .montecarlo import (
    ExperimentRow,
    run_block_sweep,
    run_coverage,
    run_power,
    run_size,
    run_study,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CritvalTable",
    "DegenerateVarianceError",
    "EfficientCiResult",
    "Ellipsoid",
    "EstimateSequence",
    "EstimatorSpec",
    "ExperimentRow",
    "Interval",
    "MbbConfig",
    "MbbResult",
    "NonFiniteError",
    "NoncorrResult",
    "NotPositiveDefiniteError",
    "NumericalError",
    "PhiSpec",
    "RngStream",
    "SelfNormResult",
    "SelfnormError",
    "SeriesParseError",
    "SolverFailedError",
    "TimeSeries",
    "TooManyDegenerateResamplesError",
    "TooShortError",
    "ValidationError",
    "as_series",
    "efficient_ci",
    "efficient_variance_batch",
    "fourier_coeffs",
    "generate",
    "generate_batch",
    "get_quantile",
    "load_table",
    "lobato_stat",
    "lobato_test",
    "mbb_normal_ci",
    "mbb_percentile_ci",
    "mbb_resample",
    "mbb_sn_ci",
    "parse_model",
    "prefix_autocorr",
    "prefix_autocov",
    "prefix_estimates",
    "prefix_lad_ar",
    "prefix_mean",
    "prefix_median",
    "prefix_spectral_mean",
    "prefix_spectral_ratio",
    "qtilde_stat",
    "qtilde_stat_batch",
    "qtilde_test",
    "read_series",
    "run_block_sweep",
    "run_coverage",
    "run_power",
    "run_size",
    "run_study",
    "simulate_uq",
    "sn_interval",
    "sn_noncorr_stat",
    "sn_noncorr_test",
    "sn_pivot",
    "sn_region",
    "stream_index_for",
    "true_value",
    "validate_series",
    "wn_matrix",
    "write_csv",
    "write_series",
]
