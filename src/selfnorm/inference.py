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
    NumericalError,
    TooFewPrefixesError,
    quadform_batch,
    quadform_spd,
    row_exponent,
    solve_spd,
)


# W grows as the square of the estimates' scale (the data's fourth power for acov
# and specmean); rows whose largest diagonal entry leaves this band are rescaled
_W_BAND = (2.0 ** -500, 2.0 ** 500)


def _gram(dev: np.ndarray, n: int) -> np.ndarray:
    # numpy's own loops, not BLAS: the same sums on every CPU, W exactly symmetric
    return np.einsum("bim,bjm->bij", dev, dev) / (float(n) * float(n))


def _gram_quadform(dev: np.ndarray, center: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """(w, n center' W^{-1} center, ok, e) per row of the weighted deviations
    dev (B, q, rows), W = n^{-2} dev dev' = ldexp(w, 2 e).  e = 0 and w = W
    where W's largest diagonal entry is in _W_BAND; other rows scale dev and
    center by 2^-e of core.row_exponent first, which keeps the pivot's bits.
    ok is False where W is not positive definite, and the pivot NaN there."""
    w = _gram(dev, n)
    e = np.zeros(w.shape[0], dtype=np.int32)
    top = np.diagonal(w, axis1=1, axis2=2).max(axis=1)
    far = ~((top >= _W_BAND[0]) & (top <= _W_BAND[1]))  # NaN is far too
    if far.any():
        e[far] = row_exponent(dev[far])[:, 0, 0]
        w[far] = _gram(np.ldexp(dev[far], -e[far, None, None]), n)
        center = np.ldexp(center, -e[:, None])
    quad, ok = quadform_batch(w, center)
    return w, n * quad, ok, e


def wn_batch(values: np.ndarray, first_valid: int, n_eff: int, theta0=0.0) -> tuple[np.ndarray, ...]:
    """Self-normalizer and pivot of a batch of prefix trajectories.

    values is (B, rows, q), row m holding the estimate from the first
    first_valid + m observations.  Returns _gram_quadform's (w, pivot, ok, e)
    for the (B, q, q) W = N^{-2} sum_t t^2 (est_t - est_N)(est_t - est_N)',
    exactly symmetric, and the (B,) pivot N (est_N - theta0)' W^{-1} (est_N - theta0).
    """
    values = np.asarray(values, dtype=np.float64)
    t = np.arange(first_valid, n_eff + 1, dtype=np.float64)
    dev = np.subtract(values.transpose(0, 2, 1), values[:, -1, :, None], order="C")
    dev *= t
    return _gram_quadform(dev, values[:, -1, :] - theta0, n_eff)


def _wn_one(seq: EstimateSequence) -> tuple[np.ndarray, int]:
    """(w, e) of wn_batch for one trajectory."""
    if seq.estimates.shape[0] < 2:
        raise TooFewPrefixesError(seq.estimates.shape[0])
    w, _, _, e = wn_batch(seq.estimates[None], seq.first_valid, seq.n_eff)
    return w[0], e[0]


def wn_matrix(seq: EstimateSequence) -> np.ndarray:
    """Self-normalizer W = N^{-2} sum_t t^2 (est_t - est_N)(est_t - est_N)';
    a batch of one through wn_batch.  Prefixes below first_valid simply do
    not contribute."""
    w, e = _wn_one(seq)
    return np.ldexp(w, 2 * e)


def sn_pivot(seq: EstimateSequence, theta0: np.ndarray) -> float:
    """N (est_N - theta0)' W^{-1} (est_N - theta0), from wn_batch's w and 2^-e (est_N - theta0)."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=np.float64))
    if theta0.shape != (seq.dim,):
        raise ValueError(f"theta0 shape {theta0.shape} does not match dim {seq.dim}")
    w, e = _wn_one(seq)
    return seq.n_eff * quadform_spd(w, np.ldexp(seq.final - theta0, -e))


def sn_half_width(critval, w, n_eff: int, e):
    """Half-width sqrt(critval W / N) of a scalar interval from wn_batch's w, e."""
    return np.ldexp(np.sqrt(critval * w / n_eff), e)


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
    w, e = _wn_one(seq)
    if not 0.0 < w[0, 0] < np.inf:
        raise NotPositiveDefiniteError("self-normalizer is not positive and finite")
    half = float(sn_half_width(critval, w[0, 0], seq.n_eff, e))
    est = float(seq.final[0])
    if not np.isfinite([est - half, est + half]).all():
        raise NumericalError("interval bounds overflow")
    return SelfNormResult(
        estimator=estimator,
        estimate=seq.final.copy(),
        n_eff=seq.n_eff,
        level=level,
        critval=critval,
        region=Interval(est - half, est + half),
    )


def sn_region(
    seq: EstimateSequence,
    critval: float,
    level: float,
    estimator: str = "",
) -> SelfNormResult:
    """Ellipsoidal confidence region for vector targets (q >= 1)."""
    shape = wn_matrix(seq) / seq.n_eff
    # reject degenerate normalizers up front, matching the pivot's solve
    solve_spd(shape, np.zeros(seq.dim))
    return SelfNormResult(
        estimator=estimator,
        estimate=seq.final.copy(),
        n_eff=seq.n_eff,
        level=level,
        critval=critval,
        region=Ellipsoid(seq.final.copy(), shape, critval),
    )
