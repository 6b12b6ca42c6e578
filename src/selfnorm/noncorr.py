"""Tests for zero autocorrelation up to lag K, plus studentized comparators.

Three tests share one null (the first K autocorrelations vanish):

* sn_noncorr_test: self-normalized, built from recursive prefix
  autocovariances; referenced to the simulated U_K quantiles.
* lobato_test: the fixed-normalizer variant using cumulative sums of the
  lagged products around the full-sample autocovariances; same U_K limit.
* qtilde_test: a conventional Wald test with a kernel long-run variance
  (AR(1) prewhitening, Bartlett window, automatic bandwidth) referenced to
  chi-square.  Comparator-grade by design.

The module also provides the efficiently studentized normal-approximation
intervals for gamma(1) and rho(1) used as coverage comparators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DegenerateVarianceError,
    NotPositiveDefiniteError,
    SeriesLike,
    TooShortError,
    ValidationError,
    as_series,
    chi2_quantile,
    normal_quantile,
    quadform_batch,
    quadform_spd,
)
from .estimators import _autocov_grid
from .inference import Interval


@dataclass(frozen=True)
class NoncorrResult:
    method: str
    k: int
    statistic: float
    critical_value: float
    alpha: float
    reject: bool

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "k": self.k,
            "statistic": self.statistic,
            "critical_value": self.critical_value,
            "alpha": self.alpha,
            "reject": self.reject,
        }


def check_k(n: int, k: int) -> None:
    """Reject a lag count k that is not positive or too long for n points."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    # need a sensible number of prefixes beyond the first valid one
    if n < k + 21:
        raise TooShortError(n, k + 21)


# ---------------------------------------------------------------------------
# Self-normalized and fixed-normalizer statistics
# ---------------------------------------------------------------------------

def sn_noncorr_stat_batch(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched recursive statistic; x is (B, n).  Returns (stats, ok).

    The estimate at prefix length s stacks the first k mean-corrected
    autocovariances of x_1..x_s (divisor s); deviations from the full-sample
    vector, weighted by s - k, build the normalizer.  N = n - k.
    """
    b, n = x.shape
    check_k(n, k)
    big_n = n - k
    s_values = np.arange(k + 2, n + 1)
    c = _autocov_grid(x, list(range(1, k + 1)), "full_n", k + 2)  # (B, S, k)
    # the statistic does not change with the scale of c; fixing it keeps J,
    # which grows as the fourth power of the data's scale, within range
    size = np.abs(c).max(axis=(1, 2), keepdims=True)
    c = c / np.where(size > 0.0, size, 1.0)
    c_full = c[:, -1, :]
    u = (s_values - k).astype(np.float64)
    dev = (c - c_full[:, None, :]) * u[None, :, None]
    j_mat = np.einsum("bsk,bsj->bkj", dev, dev) / (float(big_n) ** 2)
    quad, ok = quadform_batch(j_mat, c_full)
    return big_n * quad, ok


def lobato_stat_batch(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched fixed-normalizer statistic; x is (B, n).  Returns (stats, ok).

    Cumulative sums of the demeaned lagged products around the full-sample
    autocovariance vector form the normalizer; N = n - k.
    """
    b, n = x.shape
    check_k(n, k)
    big_n = n - k
    xc = x - x.mean(axis=1, keepdims=True)
    # the statistic does not change with the scale of x; a power-of-two scale
    # near each row's largest magnitude is exact and keeps J, which grows as
    # the fourth power of the data's scale, within range
    _, e = np.frexp(np.abs(xc).max(axis=1, keepdims=True))
    xc = np.ldexp(xc, -e)
    # full-sample autocovariances (divisor n)
    c_full = np.stack(
        [(xc[:, : n - j] * xc[:, j:]).sum(axis=1) / n for j in range(1, k + 1)],
        axis=1,
    )  # (B, k)
    z = np.stack(
        [xc[:, :big_n] * xc[:, j : j + big_n] for j in range(1, k + 1)], axis=2
    )  # (B, N, k)
    s = np.cumsum(z - c_full[:, None, :], axis=1)
    j_mat = np.einsum("btk,btj->bkj", s, s) / (float(big_n) ** 2)
    quad, ok = quadform_batch(j_mat, c_full)
    return big_n * quad, ok


def sn_noncorr_stat(ts: SeriesLike, k: int) -> float:
    s = as_series(ts)
    stat, ok = sn_noncorr_stat_batch(s.values[None, :], k)
    if not ok[0]:
        raise NotPositiveDefiniteError("recursive normalizer is not positive definite")
    return float(stat[0])


def lobato_stat(ts: SeriesLike, k: int) -> float:
    s = as_series(ts)
    stat, ok = lobato_stat_batch(s.values[None, :], k)
    if not ok[0]:
        raise NotPositiveDefiniteError("normalizer is not positive definite")
    return float(stat[0])


def sn_noncorr_test(ts: SeriesLike, k: int, alpha: float, critval: float) -> NoncorrResult:
    """Self-normalized test; critval is the upper alpha quantile of U_k."""
    stat = sn_noncorr_stat(ts, k)
    return NoncorrResult("sn", k, stat, critval, alpha, stat > critval)


def lobato_test(ts: SeriesLike, k: int, alpha: float, critval: float) -> NoncorrResult:
    stat = lobato_stat(ts, k)
    return NoncorrResult("lobato", k, stat, critval, alpha, stat > critval)


# ---------------------------------------------------------------------------
# Automatic bandwidth and kernel long-run variance
# ---------------------------------------------------------------------------

def nw_bandwidth(x: np.ndarray) -> int:
    """Automatic Bartlett bandwidth (weights-one rule) for a scalar series.

    Pilot truncation L = floor(2 (n/100)^{2/9}); bandwidth
    min(n-1, ceil(1.1447 ((s1/s0)^2)^{1/3} n^{1/3})), floored at 1.
    A non-positive s0 falls back to bandwidth 1.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        return 1
    xc = x - x.mean()
    big_l = min(int(math.floor(2.0 * (n / 100.0) ** (2.0 / 9.0))), n - 1)
    acov = np.array([(xc[: n - j] * xc[j:]).sum() / n for j in range(big_l + 1)])
    s0 = acov[0] + 2.0 * acov[1:].sum()
    if not s0 > 0.0:
        return 1
    s1 = 2.0 * (np.arange(1, big_l + 1) * acov[1:]).sum()
    bw = math.ceil(1.1447 * ((s1 / s0) ** 2) ** (1.0 / 3.0) * n ** (1.0 / 3.0))
    return max(1, min(n - 1, bw))


def bartlett_lrv(w: np.ndarray, bandwidth: int) -> np.ndarray:
    """Bartlett lag-window long-run covariance of the rows of w (m, d).

    Columns are demeaned; lag j gets weight max(0, 1 - j/bandwidth); the
    divisor is the number of rows.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim == 1:
        w = w[:, None]
    m = w.shape[0]
    wc = w - w.mean(axis=0, keepdims=True)
    v = wc.T @ wc / m
    for j in range(1, min(bandwidth, m)):
        weight = 1.0 - j / bandwidth
        if weight <= 0.0:
            break
        gamma_j = wc[j:].T @ wc[:-j] / m
        v = v + weight * (gamma_j + gamma_j.T)
    return (v + v.T) / 2.0


def _ar1_coefficient(w: np.ndarray, cap: float = 0.97) -> float:
    wc = w - w.mean()
    denom = float(wc[:-1] @ wc[:-1])
    if denom <= 0.0:
        return 0.0
    a = float(wc[1:] @ wc[:-1]) / denom
    return max(-cap, min(cap, a))


def _lagged_products(x: np.ndarray, k: int) -> np.ndarray:
    """Rows t = k+1..n of (x_t - mean)(x_{t-j} - mean) for j = 0..k."""
    n = x.shape[0]
    xc = x - x.mean()
    return np.stack([xc[k:] * xc[k - j : n - j] for j in range(k + 1)], axis=1)


def prewhitened_lrv(x: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Long-run covariance of the lag-0..k product series with AR(1)
    prewhitening; returns (V, bandwidth).

    Each component is prewhitened by its own AR(1) fit (coefficient capped at
    0.97 in absolute value); the bandwidth comes from the aggregated
    (weights-one) residual series; recoloring divides entry (i, j) by
    (1 - a_i)(1 - a_j).
    """
    w = _lagged_products(x, k)
    w = w - w.mean(axis=0, keepdims=True)
    coef = np.array([_ar1_coefficient(w[:, j]) for j in range(w.shape[1])])
    resid = w[1:] - w[:-1] * coef[None, :]
    bw = nw_bandwidth(resid.sum(axis=1))
    v_resid = bartlett_lrv(resid, bw)
    recolor = np.outer(1.0 - coef, 1.0 - coef)
    return v_resid / recolor, bw


def qtilde_stat(ts: SeriesLike, k: int) -> float:
    """Wald statistic of the first k autocorrelations.

    The joint long-run variance of the lag products is estimated with AR(1)
    prewhitening and the automatic-bandwidth Bartlett window, then mapped to
    correlations by the delta method.
    """
    s = as_series(ts)
    check_k(s.n, k)
    x = s.values
    n = s.n
    xc = x - x.mean()
    gamma = np.array([(xc[: n - j] * xc[j:]).sum() / n for j in range(k + 1)])
    if not gamma[0] > 0.0:
        raise DegenerateVarianceError("sample variance is zero")
    rho = gamma[1:] / gamma[0]
    v, _ = prewhitened_lrv(x, k)
    # delta method: d rho_i / d gamma_0 = -rho_i/gamma_0, d rho_i/d gamma_i = 1/gamma_0
    jac = np.zeros((k, k + 1))
    jac[:, 0] = -rho / gamma[0]
    jac[np.arange(k), np.arange(1, k + 1)] = 1.0 / gamma[0]
    omega = jac @ v @ jac.T
    omega = (omega + omega.T) / 2.0
    return n * quadform_spd(omega, rho)


def qtilde_test(ts: SeriesLike, k: int, alpha: float) -> NoncorrResult:
    """Wald test of the first k autocorrelations against chi-square(k)."""
    stat = qtilde_stat(ts, k)
    crit = chi2_quantile(k, alpha)
    return NoncorrResult("nw", k, stat, crit, alpha, stat > crit)


# ---------------------------------------------------------------------------
# Efficiently studentized intervals for gamma(1) and rho(1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EfficientCiResult:
    target: str
    estimate: float
    variance: float
    bandwidth: int
    level: float
    interval: Interval

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "estimate": self.estimate,
            "variance": self.variance,
            "bandwidth": self.bandwidth,
            "level": self.level,
            "lower": self.interval.lower,
            "upper": self.interval.upper,
        }


def efficient_variance_parts(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Bartlett lag-window covariance V of (w0, w1) = the lag-0 and lag-1
    demeaned products.  The bandwidth follows the same automatic rule as the
    Wald test: AR(1) prewhitening per component, then the weights-one formula
    on the aggregated residual series.  The window itself is applied to the
    raw products.  Returns (V, bandwidth)."""
    w = _lagged_products(x, 1)  # columns: lag 0, lag 1; rows t = 2..n
    coef = np.array([_ar1_coefficient(w[:, j]) for j in range(w.shape[1])])
    resid = w[1:] - w[:-1] * coef[None, :]
    bw = nw_bandwidth(resid.sum(axis=1))
    return bartlett_lrv(w, bw), bw


def efficient_ci(ts: SeriesLike, target: str, level: float = 0.95) -> EfficientCiResult:
    """Normal-approximation interval for gamma(1) or rho(1) with a kernel
    long-run variance (the studentized comparator to the self-normalized
    interval)."""
    if target not in ("gamma1", "rho1"):
        raise ValidationError(f"target must be gamma1 or rho1, got {target!r}")
    if not 0.0 < level < 1.0:
        raise ValidationError("level must be in (0, 1)")
    s = as_series(ts)
    if s.n < 22:
        raise TooShortError(s.n, 22)
    x = s.values
    n = s.n
    xc = x - x.mean()
    g0 = float(xc @ xc) / n
    g1 = float(xc[1:] @ xc[:-1]) / n
    if not g0 > 0.0:
        raise DegenerateVarianceError("sample variance is zero")
    v, bw = efficient_variance_parts(x)
    if target == "gamma1":
        est = g1
        var = float(v[1, 1])
    else:
        r = g1 / g0
        est = r
        var = (float(v[1, 1]) - r * float(v[1, 0]) - r * float(v[0, 1]) + r * r * float(v[0, 0])) / (g0 * g0)
    if not var > 0.0:
        raise DegenerateVarianceError("long-run variance estimate is not positive")
    z = normal_quantile(0.5 + level / 2.0)
    half = z * math.sqrt(var / n)
    return EfficientCiResult(
        target=target,
        estimate=est,
        variance=var,
        bandwidth=bw,
        level=level,
        interval=Interval(est - half, est + half),
    )
