"""Moving-block bootstrap confidence intervals.

Three schemes around one resampling engine: the raw percentile interval for
sqrt(N)(est* - est), the normal interval with a bootstrap standard error, and
the bootstrapped self-normalized interval, which replaces the simulated limit
quantile by the bootstrap quantile of the resampled pivot.  Resamples draw
ceil(n/l) blocks of length l uniformly, rows of the series' sliding-window
view, and truncate the concatenation to n, so a fractional last block is used
when l does not divide n.  Every estimator, ladar included, is evaluated by
batch_prefix_values on row blocks of resamples, each block reduced at once to
the final estimates and, for the self-normalized scheme, the pivots.  The
blocks follow the one rule of core.row_blocks, at n prefix values per
resample, so peak memory depends on n and not on the replication count.  The
blocks draw from one generator in row order, so the outputs do not depend on
the block size.

Scheme statistics (root quantiles, root variance, pivot quantile) take one
resample set per row.  The public schemes are batches of one; a Monte Carlo
sweep evaluates them once per replication for all block lengths.

Degenerate resamples: a resample whose estimate is undefined (a vanished
prefix variance, a failed fit) or whose trajectory overflows is redrawn up
to MAX_RETRIES times and then dropped.  The self-normalized scheme also
drops resamples whose normalizer W* is not positive definite, without
redrawing them.  More than MAX_BAD_FRAC of the replications dropped, for
either reason, raises TooManyDegenerateResamplesError, which gives both counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    BlockTooLongError,
    RngStream,
    SeriesLike,
    TooManyDegenerateResamplesError,
    ValidationError,
    as_series,
    keep_heap,
    normal_quantile,
    row_blocks,
)
from .critvals import check_probability
from .estimators import EstimatorSpec, batch_prefix_values, prefix_estimates
from .inference import (
    Ellipsoid,
    Interval,
    json_estimate,
    json_region,
    sn_half_width,
    sn_interval,
    sn_pivot,  # noqa: F401  (bound by name in bench/spans.py)
    sn_region,
    wn_batch as wn_scalar_batch,  # alias bound by name in bench/spans.py
)

MAX_RETRIES = 5  # redraws of a resample with an undefined estimate
MAX_BAD_FRAC = 0.05  # largest share of replications that may be dropped


@dataclass(frozen=True)
class MbbConfig:
    """Block length, resample count, seed, and level of a bootstrap interval."""

    block_length: int
    replications: int = 1000
    seed: int = 0
    level: float = 0.95

    def __post_init__(self):
        if self.block_length < 1:
            raise ValidationError("block length must be >= 1")
        if self.replications < 2:
            raise ValidationError("need at least 2 bootstrap replications")
        check_probability(self.level, "level")
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
    if starts.shape[-1] * block_length < n:
        raise ValidationError("not enough blocks to cover the series")
    blocks = np.take(sliding_window_view(values, block_length), starts, axis=0)
    return blocks.reshape(*starts.shape[:-1], -1)[..., :n]


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

def _resample(x: np.ndarray, spec: EstimatorSpec, cfg: MbbConfig, est=None) -> tuple:
    """Final estimates (kept, dim) of cfg.replications resamples of x and,
    when est is given, their pivots n (est* - est)' W*^{-1} (est* - est);
    None otherwise.

    Resamples are evaluated in the row blocks of core.row_blocks, n prefix
    values per resample; each block is reduced at once to its finals and
    pivots, so memory does not grow with the replication count.  The blocks
    draw from one generator in row order, which gives the values of a single
    draw.
    Resamples that batch_prefix_values marks not ok are redrawn after the
    whole first pass, up to MAX_RETRIES times, then dropped.  Resamples whose
    W* is not positive definite are dropped without a redraw and have no
    pivot; their finals are kept.  Both kinds count toward MAX_BAD_FRAC.
    """
    n = x.shape[0]
    if cfg.block_length > n:
        raise BlockTooLongError(cfg.block_length, n)
    keep_heap()  # the blocks' freed temporaries would otherwise be faulted in again
    gen = RngStream(cfg.seed).child("mbb", cfg.block_length).generator()
    reps = cfg.replications
    finals = np.empty((reps, spec.dim))
    ok, good = np.empty(reps, dtype=bool), np.empty(reps, dtype=bool)
    pivots = None if est is None else np.empty(reps)

    def evaluate(where) -> None:
        """Draw resamples into the output slots where (a slice or indices)."""
        rows = ok[where].size
        vals, fine = batch_prefix_values(spec, _draw(x, cfg.block_length, rows, gen))
        if not np.isfinite(vals).all():  # one flat test; the per-row one costs more
            fine = fine & np.isfinite(vals).all(axis=(1, 2))
        finals[where], ok[where] = vals[:, -1], fine
        if pivots is None:
            return
        if not fine.all():
            where, vals = np.arange(reps)[where][fine], vals[fine]
        pivots[where], good[where] = wn_scalar_batch(vals, spec.first_valid(), n, est)[1:3]

    for block in row_blocks(reps, n, spec.kind):
        evaluate(block)
    for _ in range(MAX_RETRIES):
        bad = np.flatnonzero(~ok)
        if bad.size == 0:
            break
        for block in row_blocks(bad.size, n, spec.kind):
            evaluate(bad[block])
    undefined = reps - int(np.count_nonzero(ok))
    singular = 0 if pivots is None else int(np.count_nonzero(ok & ~good))
    if undefined + singular > MAX_BAD_FRAC * reps:
        raise TooManyDegenerateResamplesError(undefined, singular, reps, MAX_RETRIES)
    if pivots is not None and undefined + singular:
        pivots = pivots[ok & good]
    return (finals[ok] if undefined else finals), pivots


def _percentile_bounds(root: np.ndarray, est, n: int, level: float) -> np.ndarray:
    """(lower, upper) of the percentile interval per row of the roots (m, R)."""
    alpha = 1.0 - level
    q_lo, q_hi = np.quantile(root, [alpha / 2.0, 1.0 - alpha / 2.0], axis=1)
    return np.array([est - q_hi / math.sqrt(n), est - q_lo / math.sqrt(n)])


def _normal_bounds(root: np.ndarray, est, n: int, level: float) -> np.ndarray:
    """(lower, upper, sigma2) of the normal interval per row of the roots;
    a degenerate root (constant series) legitimately gives a point interval."""
    sigma2 = np.var(root, axis=1, ddof=1)
    half = normal_quantile(0.5 + level / 2.0) * np.sqrt(sigma2 / n)
    return np.array([est - half, est + half, sigma2])


def _stacked(stat, samples: list, *args) -> np.ndarray:
    """stat of 1-D samples stacked as rows; samples that differ in length
    (dropped resamples) go through it one batch of one each."""
    if len({v.size for v in samples}) == 1:
        return stat(np.stack(samples), *args)
    return np.concatenate([stat(v[None], *args) for v in samples], axis=-1)


# ---------------------------------------------------------------------------
# Public schemes
# ---------------------------------------------------------------------------

def _scalar_root(ts: SeriesLike, spec: EstimatorSpec, cfg: MbbConfig, scheme: str):
    """(series, estimate, bootstrap root sqrt(N)(est* - est) as a batch of
    one) for scalar schemes."""
    s = as_series(ts)
    if spec.dim != 1:
        raise ValidationError(f"{scheme} scheme handles scalar estimators only")
    est = float(prefix_estimates(spec, s).final[0])
    finals = _resample(s.values, spec, cfg)[0][:, 0]
    return s, est, math.sqrt(s.n) * (finals - est)[None]


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
    lower, upper = _percentile_bounds(root, est, s.n, cfg.level)
    return _result("mbb-pct", spec, cfg, est, s.n, Interval(lower[0], upper[0]))


def mbb_normal_ci(ts: SeriesLike, spec: EstimatorSpec, cfg: MbbConfig) -> MbbResult:
    """Scheme 2: normal interval with the bootstrap variance of the root."""
    s, est, root = _scalar_root(ts, spec, cfg, "normal")
    lower, upper, sigma2 = _normal_bounds(root, est, s.n, cfg.level)
    region = Interval(lower[0], upper[0])
    return _result("mbb-normal", spec, cfg, est, s.n, region, sigma2=float(sigma2[0]))


def mbb_sn_ci(ts: SeriesLike, spec: EstimatorSpec, cfg: MbbConfig) -> MbbResult:
    """Scheme 3: self-normalized interval with the bootstrap pivot quantile.

    The resampled pivot N (est* - est)' W*^{-1} (est* - est) replaces the
    simulated limit quantile; the region itself is the self-normalized one
    on the original series, so it always contains the point estimate.
    """
    s = as_series(ts)
    seq = prefix_estimates(spec, s)
    pivots = _resample(s.values, spec, cfg, seq.final)[1]
    ustar = float(np.quantile(pivots, cfg.level))
    build = sn_interval if spec.dim == 1 else sn_region
    region = build(seq, ustar, cfg.level, estimator=spec.canonical()).region
    estimate = float(seq.final[0]) if spec.dim == 1 else seq.final.copy()
    return _result("mbb-sn", spec, cfg, estimate, s.n, region, ustar=ustar)


# ---------------------------------------------------------------------------
# Shared-resample suite (one draw set feeding all three schemes)
# ---------------------------------------------------------------------------

def bootstrap_suite(x: np.ndarray, spec: EstimatorSpec, cfg: MbbConfig, est: float) -> tuple:
    """(root sqrt(N)(est* - est), pivots) of one resample set, which all three
    schemes reduce (see suite_intervals).

    est is the estimate of the original series (scalar estimators only).
    Used by the Monte Carlo sweeps, where drawing three independent resample
    sets per block length would triple the cost without changing any
    contract.
    """
    finals, pivots = _resample(x, spec, cfg, est)
    return math.sqrt(x.shape[0]) * (finals[:, 0] - est), pivots


def suite_intervals(roots: list, pivots: list, est: float, w: float, e: int, n: int, level: float) -> dict:
    """{scheme: (lower, upper)} for m resample sets of one series, each bound
    an (m,) array, from the bootstrap_suite vectors of every set and the
    series' wn_batch w and e: the single-series schemes, for all sets at once."""
    half_sn = sn_half_width(_stacked(lambda p: np.quantile(p, level, axis=1), pivots), w, n, e)
    return {
        "mbb-pct": _stacked(_percentile_bounds, roots, est, n, level),
        "mbb-normal": _stacked(_normal_bounds, roots, est, n, level)[:2],
        "mbb-sn": (est - half_sn, est + half_sn),
    }
