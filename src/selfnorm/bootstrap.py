"""Moving-block bootstrap confidence intervals.

Three schemes around one resampling engine: the raw percentile interval for
sqrt(N)(est* - est), the normal interval with a bootstrap standard error, and
the bootstrapped self-normalized interval, which replaces the simulated limit
quantile by the bootstrap quantile of the resampled pivot.  Resamples draw
ceil(n/l) blocks of length l uniformly and truncate the concatenation to n,
so a fractional last block is used when l does not divide n.

Degenerate resamples: a resample whose estimate is undefined (a vanished
prefix variance, a failed fit) is redrawn up to max_retries times and then
dropped.  The self-normalized scheme also drops resamples whose normalizer
W* is not positive, without redrawing them.  More than max_bad_frac of the
replications dropped, for either reason, raises
TooManyDegenerateResamplesError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import (
    BlockTooLongError,
    DegenerateVarianceError,
    RngStream,
    SelfnormError,
    SeriesLike,
    TooManyDegenerateResamplesError,
    ValidationError,
    as_series,
    normal_quantile,
)
from .estimators import EstimatorSpec, batch_prefix_values, prefix_estimates
from .inference import (
    Ellipsoid,
    Interval,
    json_estimate,
    json_region,
    sn_interval,
    sn_pivot,
    sn_region,
    wn_scalar_batch,
)


@dataclass(frozen=True)
class MbbConfig:
    """Block length, resample count, seed, and degenerate-resample policy.

    max_retries bounds the redraws of a resample with an undefined estimate;
    max_bad_frac is the largest share of replications that may be dropped
    (see the module docstring).
    """

    block_length: int
    replications: int = 1000
    seed: int = 0
    level: float = 0.95
    max_retries: int = 5
    max_bad_frac: float = 0.05

    def __post_init__(self):
        if self.block_length < 1:
            raise ValidationError("block length must be >= 1")
        if self.replications < 2:
            raise ValidationError("need at least 2 bootstrap replications")
        if not 0.0 < self.level < 1.0:
            raise ValidationError("level must be in (0, 1)")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


@dataclass(frozen=True)
class MbbResult:
    scheme: str
    estimator: str
    estimate: Union[float, np.ndarray]
    n_eff: int
    level: float
    block_length: int
    replications: int
    region: Union[Interval, Ellipsoid]
    sigma2: Optional[float] = None  # scheme 2 bootstrap variance of the root
    ustar: Optional[float] = None  # scheme 3 bootstrap pivot quantile

    def to_dict(self) -> dict:
        d = {
            "scheme": self.scheme,
            "estimator": self.estimator,
            "estimate": json_estimate(self.estimate),
            "N": self.n_eff,
            "level": self.level,
            "block_length": self.block_length,
            "replications": self.replications,
        }
        d.update(json_region(self.region))
        if self.sigma2 is not None:
            d["sigma2"] = self.sigma2
        if self.ustar is not None:
            d["critval"] = self.ustar
        return d


def assemble_blocks(values: np.ndarray, starts: np.ndarray, block_length: int) -> np.ndarray:
    """Concatenate blocks values[s : s+l] for each 0-based start, truncated
    to the original length.  starts may carry leading batch axes; the last
    axis lists the blocks of one resample."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    starts = np.asarray(starts)
    idx = starts[..., :, None] + np.arange(block_length)
    idx = idx.reshape(*starts.shape[:-1], -1)[..., :n]
    if idx.shape[-1] < n:
        raise ValidationError("not enough blocks to cover the series")
    return values[idx]


def _draw(x: np.ndarray, block_length: int, rows: int, gen: np.random.Generator) -> np.ndarray:
    """rows moving-block resamples of x, one per row."""
    n = x.shape[0]
    starts = gen.integers(0, n - block_length + 1, size=(rows, math.ceil(n / block_length)))
    return assemble_blocks(x, starts, block_length)


def mbb_resample(ts: SeriesLike, block_length: int, rng: Union[RngStream, np.random.Generator]) -> np.ndarray:
    """One moving-block resample of the series."""
    s = as_series(ts)
    if block_length > s.n:
        raise BlockTooLongError(block_length, s.n)
    if block_length < 1:
        raise ValidationError("block length must be >= 1")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return _draw(s.values, block_length, 1, gen)[0]


# ---------------------------------------------------------------------------
# Resampling engine
# ---------------------------------------------------------------------------

def _check_bad(bad: int, cfg: MbbConfig) -> None:
    if bad > cfg.max_bad_frac * cfg.replications:
        raise TooManyDegenerateResamplesError(bad, cfg.replications)


def _resample(
    x: np.ndarray,
    cfg: MbbConfig,
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, int]:
    """Evaluate cfg.replications resamples of x; returns (values, dropped).

    evaluate maps a (rows, n) matrix of resamples to (values, ok), one entry
    per row.  Rows with ok False are redrawn up to cfg.max_retries times,
    then dropped; values holds the kept rows only.
    """
    n = x.shape[0]
    if cfg.block_length > n:
        raise BlockTooLongError(cfg.block_length, n)
    gen = RngStream(cfg.seed).child("mbb", cfg.block_length).generator()
    vals, ok = evaluate(_draw(x, cfg.block_length, cfg.replications, gen))
    for _ in range(cfg.max_retries):
        bad = np.flatnonzero(~ok)
        if bad.size == 0:
            break
        vals[bad], ok[bad] = evaluate(_draw(x, cfg.block_length, bad.size, gen))
    dropped = int((~ok).sum())
    _check_bad(dropped, cfg)
    return vals[ok], dropped


def _resample_prefix_values(x: np.ndarray, spec: EstimatorSpec, cfg: MbbConfig) -> tuple[np.ndarray, int]:
    """Prefix-value rows of the kept resamples, and the dropped count."""
    # batch_prefix_values gives (values, first_valid, ok); keep values and ok
    return _resample(x, cfg, lambda xs: batch_prefix_values(spec, xs)[::2])


def _per_resample(fn: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """An evaluate for _resample that applies fn to one resample at a time,
    for estimators without a batch kernel; a resample on which fn raises
    SelfnormError (or returns NaN) is not ok."""

    def evaluate(xs):
        out = np.full(xs.shape[0], np.nan)
        for r, row in enumerate(xs):
            try:
                out[r] = fn(row)
            except SelfnormError:
                pass
        return out, ~np.isnan(out)

    return evaluate


def _percentile_interval(root: np.ndarray, est: float, n: int, level: float) -> Interval:
    alpha = 1.0 - level
    q_lo, q_hi = np.quantile(root, [alpha / 2.0, 1.0 - alpha / 2.0])
    return Interval(est - q_hi / math.sqrt(n), est - q_lo / math.sqrt(n))


def _normal_interval(root: np.ndarray, est: float, n: int, level: float) -> tuple[Interval, float]:
    # a degenerate root (constant series) legitimately gives a point interval
    sigma2 = float(np.var(root, ddof=1))
    z = normal_quantile(0.5 + level / 2.0)
    half = z * math.sqrt(sigma2 / n)
    return Interval(est - half, est + half), sigma2


def _sn_quantile(vals: np.ndarray, est: float, n: int, spec: EstimatorSpec, cfg: MbbConfig, dropped: int) -> float:
    """Bootstrap quantile of the scalar pivot n (est* - est)^2 / W*.

    Resamples with W* <= 0 are dropped and count with the already dropped
    ones toward cfg.max_bad_frac.
    """
    w = wn_scalar_batch(vals, spec.first_valid(), n)
    good = w > 0.0
    _check_bad(dropped + int((~good).sum()), cfg)
    pivots = n * (vals[good, -1] - est) ** 2 / w[good]
    return float(np.quantile(pivots, cfg.level))


# ---------------------------------------------------------------------------
# Public schemes
# ---------------------------------------------------------------------------

def _scalar_root(ts: SeriesLike, spec: EstimatorSpec, cfg: MbbConfig, scheme: str):
    """(series, estimate, bootstrap root sqrt(N)(est* - est)) for scalar schemes."""
    s = as_series(ts)
    if spec.dim != 1:
        raise ValidationError(f"{scheme} scheme handles scalar estimators only")
    est = float(prefix_estimates(spec, s).final[0])
    if spec.batched:
        finals = _resample_prefix_values(s.values, spec, cfg)[0][:, -1]
    else:
        final = _per_resample(lambda row: prefix_estimates(spec, row).final[0])
        finals = _resample(s.values, cfg, final)[0]
    return s, est, math.sqrt(s.n) * (finals - est)


def _result(
    scheme: str,
    spec: EstimatorSpec,
    cfg: MbbConfig,
    estimate: Union[float, np.ndarray],
    n: int,
    region: Union[Interval, Ellipsoid],
    **extra,
) -> MbbResult:
    return MbbResult(
        scheme=scheme,
        estimator=spec.canonical(),
        estimate=estimate,
        n_eff=n,
        level=cfg.level,
        block_length=cfg.block_length,
        replications=cfg.replications,
        region=region,
        **extra,
    )


def mbb_percentile_ci(ts: SeriesLike, spec: EstimatorSpec, cfg: MbbConfig) -> MbbResult:
    """Scheme 1: percentile interval from the bootstrap law of
    sqrt(N)(est* - est)."""
    s, est, root = _scalar_root(ts, spec, cfg, "percentile")
    return _result("mbb-pct", spec, cfg, est, s.n, _percentile_interval(root, est, s.n, cfg.level))


def mbb_normal_ci(ts: SeriesLike, spec: EstimatorSpec, cfg: MbbConfig) -> MbbResult:
    """Scheme 2: normal interval with the bootstrap variance of the root."""
    s, est, root = _scalar_root(ts, spec, cfg, "normal")
    region, sigma2 = _normal_interval(root, est, s.n, cfg.level)
    return _result("mbb-normal", spec, cfg, est, s.n, region, sigma2=sigma2)


def mbb_sn_ci(ts: SeriesLike, spec: EstimatorSpec, cfg: MbbConfig) -> MbbResult:
    """Scheme 3: self-normalized interval with the bootstrap pivot quantile.

    The resampled pivot N (est* - est)' W*^{-1} (est* - est) replaces the
    simulated limit quantile; the region itself is the self-normalized one
    on the original series, so it always contains the point estimate.
    Estimators without a batch kernel are evaluated one resample at a time.
    """
    s = as_series(ts)
    seq = prefix_estimates(spec, s)
    if spec.batched:
        vals, dropped = _resample_prefix_values(s.values, spec, cfg)
        ustar = _sn_quantile(vals, float(seq.final[0]), s.n, spec, cfg, dropped)
    else:
        pivot = _per_resample(lambda row: sn_pivot(prefix_estimates(spec, row), seq.final))
        pivots, _ = _resample(s.values, cfg, pivot)
        ustar = float(np.quantile(pivots, cfg.level))
    build = sn_interval if spec.dim == 1 else sn_region
    region = build(seq, ustar, cfg.level, estimator=spec.canonical()).region
    estimate = float(seq.final[0]) if spec.dim == 1 else seq.final.copy()
    return _result("mbb-sn", spec, cfg, estimate, s.n, region, ustar=ustar)


# ---------------------------------------------------------------------------
# Shared-resample suite (one draw set feeding all three schemes)
# ---------------------------------------------------------------------------

def bootstrap_suite(
    x: np.ndarray,
    spec: EstimatorSpec,
    cfg: MbbConfig,
    seq_values: np.ndarray,
    first_valid: int,
) -> dict:
    """All three bootstrap intervals from one resample set.

    seq_values/first_valid are the prefix values of the original series
    (scalar estimators only).  Used by the Monte Carlo sweeps, where drawing
    three independent resample sets per block length would triple the cost
    without changing any contract.
    """
    n = x.shape[0]
    est = float(seq_values[-1])
    vals, dropped = _resample_prefix_values(x, spec, cfg)
    root = math.sqrt(n) * (vals[:, -1] - est)
    nrm, _ = _normal_interval(root, est, n, cfg.level)
    ustar = _sn_quantile(vals, est, n, spec, cfg, dropped)
    w0 = wn_scalar_batch(seq_values[None, :], first_valid, n)[0]
    if not w0 > 0.0:
        raise DegenerateVarianceError("self-normalizer of the original series is zero")
    half_sn = math.sqrt(ustar * w0 / n)
    return {
        "mbb-pct": _percentile_interval(root, est, n, cfg.level),
        "mbb-normal": nrm,
        "mbb-sn": Interval(est - half_sn, est + half_sn),
        "ustar": ustar,
    }
