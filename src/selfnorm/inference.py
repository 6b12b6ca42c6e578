"""Self-normalized pivots, confidence intervals and regions.

The normalizer W is built from the trajectory of recursive estimates, so no
bandwidth, block length, or other tuning parameter enters.  The pivot
N (theta_N - theta)' W^{-1} (theta_N - theta) is asymptotically pivotal; its
limit quantiles come from the critvals module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    EstimateSequence,
    NotPositiveDefiniteError,
    TooFewPrefixesError,
    quadform_batch,
    quadform_spd,
    solve_spd,
)


def _gram_quadform(dev: np.ndarray, center: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """(W, n center' W^{-1} center, ok) with W = n^{-2} dev' dev per row of
    the weighted deviations dev (B, rows, q); ok is False where W is not
    positive definite, and the pivot is NaN there."""
    # numpy runs dev' dev as BLAS syrk per row: exactly symmetric, faster than
    # einsum's loop over q, and closer to an extended-precision Gram
    w = np.matmul(dev.swapaxes(1, 2), dev) / (float(n) * float(n))
    quad, ok = quadform_batch(w, center)
    return w, n * quad, ok


def wn_batch(values: np.ndarray, first_valid: int, n_eff: int, theta0=0.0) -> tuple[np.ndarray, ...]:
    """Self-normalizer and pivot of a batch of prefix trajectories.

    values is (B, rows, q), row m holding the estimate from the first
    first_valid + m observations.  Returns (w, pivot, ok): the (B, q, q)
    W = N^{-2} sum_t t^2 (est_t - est_N)(est_t - est_N)', the (B,) pivot
    N (est_N - theta0)' W^{-1} (est_N - theta0), and ok False where W is not
    positive definite.  W, the Gram of the t-weighted deviations, is exactly
    symmetric.
    """
    values = np.asarray(values, dtype=np.float64)
    t = np.arange(first_valid, n_eff + 1, dtype=np.float64)
    dev = values - values[:, -1:, :]
    dev *= t[:, None]
    return _gram_quadform(dev, values[:, -1, :] - theta0, n_eff)


def wn_matrix(seq: EstimateSequence) -> np.ndarray:
    """Self-normalizer W = N^{-2} sum_t t^2 (est_t - est_N)(est_t - est_N)';
    a batch of one through wn_batch.  Prefixes below first_valid simply do
    not contribute."""
    rows = seq.estimates.shape[0]
    if rows < 2:
        raise TooFewPrefixesError(rows)
    return wn_batch(seq.estimates[None], seq.first_valid, seq.n_eff)[0][0]


def sn_pivot(seq: EstimateSequence, theta0: np.ndarray) -> float:
    """N (est_N - theta0)' W^{-1} (est_N - theta0)."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=np.float64))
    if theta0.shape != (seq.dim,):
        raise ValueError(f"theta0 shape {theta0.shape} does not match dim {seq.dim}")
    w = wn_matrix(seq)
    diff = seq.final - theta0
    return seq.n_eff * quadform_spd(w, diff)


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


@dataclass(frozen=True)
class Ellipsoid:
    """Region {theta : (theta - center)' shape^{-1} (theta - center) <= radius2}."""

    center: np.ndarray
    shape: np.ndarray
    radius2: float

    def contains(self, point: np.ndarray) -> bool:
        d = np.asarray(point, dtype=np.float64) - self.center
        return quadform_spd(self.shape, d) <= self.radius2


@dataclass(frozen=True)
class SelfNormResult:
    """A finished confidence statement."""

    estimator: str
    estimate: np.ndarray
    n_eff: int
    level: float
    critval: float
    w_matrix: np.ndarray
    region: Union[Interval, Ellipsoid]

    def to_json(self) -> str:
        d: dict = {
            "estimator": self.estimator,
            "estimate": json_estimate(self.estimate),
            "N": self.n_eff,
            "level": self.level,
            "critval": self.critval,
        }
        d.update(json_region(self.region))
        return json.dumps(d)


def json_estimate(estimate) -> Union[float, list]:
    """A point estimate for JSON: a float when scalar, else a list."""
    est = np.atleast_1d(np.asarray(estimate, dtype=np.float64))
    return float(est[0]) if est.shape == (1,) else [float(v) for v in est]


def json_region(region: Union[Interval, Ellipsoid]) -> dict:
    """JSON fields of a region: L and U, or center, shape and radius2."""
    if isinstance(region, Interval):
        return {"L": region.lower, "U": region.upper}
    return {
        "center": [float(v) for v in region.center],
        "shape": [[float(v) for v in row] for row in region.shape],
        "radius2": region.radius2,
    }


def sn_interval(
    seq: EstimateSequence,
    critval: float,
    level: float,
    estimator: str = "",
) -> SelfNormResult:
    """Two-sided interval est_N +- sqrt(critval * W / N) for scalar targets.

    Always a non-empty [L, U] containing the point estimate.
    """
    if seq.dim != 1:
        raise ValueError("sn_interval is for scalar estimators; use sn_region")
    w = wn_matrix(seq)[0, 0]
    if not w > 0.0:
        raise NotPositiveDefiniteError("self-normalizer is not positive")
    half = float(np.sqrt(critval * w / seq.n_eff))
    est = float(seq.final[0])
    return SelfNormResult(
        estimator=estimator,
        estimate=seq.final.copy(),
        n_eff=seq.n_eff,
        level=level,
        critval=critval,
        w_matrix=np.array([[w]]),
        region=Interval(est - half, est + half),
    )


def sn_region(
    seq: EstimateSequence,
    critval: float,
    level: float,
    estimator: str = "",
) -> SelfNormResult:
    """Ellipsoidal confidence region for vector targets (q >= 1)."""
    w = wn_matrix(seq)
    n = seq.n_eff
    shape = w / n
    # reject degenerate normalizers up front, matching the pivot's solve
    solve_spd(shape, np.zeros(seq.dim))
    return SelfNormResult(
        estimator=estimator,
        estimate=seq.final.copy(),
        n_eff=n,
        level=level,
        critval=critval,
        w_matrix=w,
        region=Ellipsoid(seq.final.copy(), shape, critval),
    )
