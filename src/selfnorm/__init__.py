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

from importlib import import_module

# Public name -> the submodule that defines it.  Nothing is imported until a
# name is first used (PEP 562), so a command loads only the layers it runs.
_EXPORTS = {
    "core": (
        "DegenerateVarianceError", "EstimateSequence", "NonFiniteError",
        "NotPositiveDefiniteError", "NumericalError", "RngStream", "SelfnormError",
        "SeriesParseError", "SolverFailedError", "TimeSeries",
        "TooManyDegenerateResamplesError", "TooShortError", "ValidationError",
        "as_series", "read_series", "stream_index_for", "validate_series",
        "write_series",
    ),
    "estimators": (
        "EstimatorSpec", "fourier_coeffs", "prefix_estimates", "prefix_lad_ar",
    ),
    "inference": (
        "Ellipsoid", "Interval", "SelfNormResult", "sn_interval", "sn_pivot",
        "sn_region", "wn_batch", "wn_matrix",
    ),
    "critvals": (
        "CritvalTable", "get_quantile", "load_table", "simulate_draws", "simulate_uq",
        "table_alpha",
    ),
    "noncorr": (
        "EfficientCiResult", "NoncorrResult", "efficient_ci",
        "efficient_variance_batch", "lobato_stat", "lobato_test", "qtilde_stat",
        "qtilde_stat_batch", "qtilde_test", "sn_noncorr_stat", "sn_noncorr_test",
    ),
    "bootstrap": (
        "MbbConfig", "MbbResult", "mbb_normal_ci", "mbb_percentile_ci",
        "mbb_resample", "mbb_sn_ci",
    ),
    "dgp": ("generate", "generate_batch", "parse_model", "true_value"),
    "montecarlo": (
        "ExperimentRow", "run_block_sweep", "run_coverage", "run_power",
        "run_size", "run_study", "write_csv",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__version__ = "0.1.0"

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value
