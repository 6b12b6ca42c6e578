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
    RESIDUAL_RTOL,
    DegenerateVarianceError,
    NotPositiveDefiniteError,
    SeriesLike,
    TooShortError,
    ValidationError,
    as_series,
    chi2_quantile,
    chol_solve_batch,
    normal_quantile,
    quadform_batch,  # noqa: F401  (bound by name in bench/spans.py)
    quadform_spd,
    solve_residual_batch,
)
from .estimators import _autocov_grid
from .inference import Interval, _gram_quadform, wn_batch


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


def _full_autocov(xc: np.ndarray, lags) -> np.ndarray:
    """(B, len(lags)) full-sample autocovariances of the centred rows xc
    (B, n), divisor n."""
    n = xc.shape[1]
    return np.stack([(xc[:, : n - j] * xc[:, j:]).sum(axis=1) / n for j in lags], axis=1)


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
    c = _autocov_grid(x, list(range(1, k + 1)), k + 2)  # (B, S, k)
    # the statistic does not change with the scale of c; fixing it keeps W,
    # which grows as the fourth power of the data's scale, within range
    size = np.abs(c).max(axis=(1, 2), keepdims=True)
    c = c / np.where(size > 0.0, size, 1.0)
    # prefix s carries weight s - k = 2..N
    return wn_batch(c, 2, n - k)[1:]


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
    # near each row's largest magnitude is exact and keeps W, which grows as
    # the fourth power of the data's scale, within range
    _, e = np.frexp(np.abs(xc).max(axis=1, keepdims=True))
    xc = np.ldexp(xc, -e)
    c_full = _full_autocov(xc, range(1, k + 1))  # (B, k)
    z = np.stack(
        [xc[:, :big_n] * xc[:, j : j + big_n] for j in range(1, k + 1)], axis=2
    )  # (B, N, k)
    # S_t = t (mean of z_1..z_t - c_full): deviations already weighted by t
    return _gram_quadform(np.cumsum(z - c_full[:, None, :], axis=1), c_full, big_n)[1:]


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
# Kernel long-run variance: one batched primitive over (B, n) rows; scalar
# paths are batches of one
# ---------------------------------------------------------------------------

def _nw_bandwidths(u: np.ndarray) -> np.ndarray:
    """Automatic Bartlett bandwidth (weights-one rule) of each row of u (B, n):
    pilot truncation L = floor(2 (n/100)^{2/9}), bandwidth min(n-1,
    ceil(1.1447 ((s1/s0)^2)^{1/3} n^{1/3})), floored at 1; 1 if s0 <= 0."""
    b, n = u.shape
    if n < 2:
        return np.ones(b, dtype=np.int64)
    uc = u - u.mean(axis=1, keepdims=True)
    big_l = min(int(math.floor(2.0 * (n / 100.0) ** (2.0 / 9.0))), n - 1)
    acov = _full_autocov(uc, range(big_l + 1))
    s0 = acov[:, 0] + 2.0 * acov[:, 1:].sum(axis=1)
    s1 = 2.0 * (np.arange(1, big_l + 1) * acov[:, 1:]).sum(axis=1)
    # scalar pow: numpy's array power may round differently, and bw is a ceiling
    bw = [math.ceil(1.1447 * ((a / c) ** 2) ** (1.0 / 3.0) * n ** (1.0 / 3.0)) if c > 0.0 else 1
          for a, c in zip(s1.tolist(), s0.tolist())]
    return np.clip(np.array(bw, dtype=np.int64), 1, n - 1)


def _lag_products(xc: np.ndarray, k: int) -> np.ndarray:
    """(B, k+1, n-k) products xc[:, t] * xc[:, t-j], t = k+1..n, j = 0..k,
    of the centred rows xc (B, n); each component is centred over t."""
    b, n = xc.shape
    w = np.empty((b, k + 1, n - k))
    for j in range(k + 1):
        np.multiply(xc[:, k:], xc[:, k - j : n - j], out=w[:, j])
    w -= w.mean(axis=-1, keepdims=True)
    return w


def _ar1_coefficients(w: np.ndarray, cap: float = 0.97) -> np.ndarray:
    """AR(1) coefficient of each centred series along w's last axis, capped."""
    denom = (w[..., :-1] * w[..., :-1]).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.clip((w[..., 1:] * w[..., :-1]).sum(axis=-1) / denom, -cap, cap)
    return np.where(denom > 0.0, a, 0.0)


def _bartlett_window(wc: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """Bartlett lag-window long-run covariance (B, d, d) of the centred rows
    wc (B, d, m): lag j < min(bw[b], m) gets weight 1 - j/bw[b]; divisor m.
    The rows come sorted by bandwidth, descending, so lag j touches only the
    prefix of rows with bw > j: no row pays for another row's bandwidth."""
    b, d, m = wc.shape
    v = np.matmul(wc, wc.swapaxes(1, 2)) / m
    for j in range(1, min(int(bw[0]), m) if b else 0):
        rows = int(np.count_nonzero(bw > j))
        gamma = np.matmul(wc[:rows, :, j:], wc[:rows, :, : m - j].swapaxes(1, 2)) / m
        weight = 1.0 - j / bw[:rows]
        v[:rows] += weight[:, None, None] * (gamma + gamma.transpose(0, 2, 1))
    return v


def _kernel_lrv(xc: np.ndarray, k: int, recolor: bool) -> tuple[np.ndarray, np.ndarray]:
    """Long-run covariance (B, k+1, k+1) of the lag-0..k products of the
    centred rows xc (B, n), and each row's bandwidth.  Each component is
    prewhitened by its own AR(1) fit; the bandwidth comes from the summed
    residuals.  With recolor the window acts on the residuals and entry (i, j)
    is divided by (1 - a_i)(1 - a_j); without, on the products themselves."""
    w = _lag_products(xc, k)
    coef = _ar1_coefficients(w)
    # AR(1) residuals, formed in place: no second temporary of w's size
    resid = np.multiply(w[:, :, :-1], coef[:, :, None])
    np.subtract(w[:, :, 1:], resid, out=resid)
    bw = _nw_bandwidths(resid.sum(axis=1))
    if recolor:
        resid -= resid.mean(axis=-1, keepdims=True)
        w = resid
    del resid
    order = np.argsort(-bw, kind="stable")
    v = _bartlett_window(w[order], bw[order])[np.argsort(order)]
    if recolor:
        v /= (1.0 - coef)[:, :, None] * (1.0 - coef)[:, None, :]
    return v, bw


def _delta_parts(x: np.ndarray, k: int, recolor: bool) -> tuple[np.ndarray, ...]:
    """Per row of x (B, n): autocovariances gamma_0..k, the first k
    autocorrelations, their delta-method long-run covariance (B, k, k), and
    the lag-product covariance V and bandwidth of _kernel_lrv."""
    b, n = x.shape
    check_k(n, k)
    xc = x - x.mean(axis=1, keepdims=True)
    gamma = _full_autocov(xc, range(k + 1))
    g0 = gamma[:, :1]
    v, bw = _kernel_lrv(xc, k, recolor)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = gamma[:, 1:] / g0
        # delta method: d rho_i / d gamma_0 = -rho_i/gamma_0, d rho_i/d gamma_i = 1/gamma_0
        jac = np.zeros((b, k, k + 1))
        jac[:, :, 0] = -rho / g0
        jac[:, np.arange(k), np.arange(1, k + 1)] = 1.0 / g0
        omega = jac @ v @ jac.transpose(0, 2, 1)
    return gamma, rho, (omega + omega.transpose(0, 2, 1)) / 2.0, v, bw


def qtilde_stat_batch(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched qtilde_stat; x is (B, n).  Returns (stats, ok); ok is False
    where qtilde_stat raises (zero variance, failed pivot or residual check)."""
    gamma, rho, omega, _, _ = _delta_parts(x, k, recolor=True)
    with np.errstate(invalid="ignore"):
        sol, ok = chol_solve_batch(omega, rho)
        ok &= (gamma[:, 0] > 0.0) & (solve_residual_batch(omega, rho, sol) <= RESIDUAL_RTOL)
    return x.shape[1] * np.einsum("mk,mk->m", rho, sol), ok


def qtilde_stat(ts: SeriesLike, k: int) -> float:
    """Wald statistic of the first k autocorrelations: the AR(1)-prewhitened
    long-run variance of the lag products (_kernel_lrv) maps to correlations
    by the delta method."""
    s = as_series(ts)
    gamma, rho, omega, _, _ = _delta_parts(s.values[None, :], k, recolor=True)
    if not gamma[0, 0] > 0.0:
        raise DegenerateVarianceError("sample variance is zero")
    return s.n * quadform_spd(omega[0], rho[0])


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


def efficient_variance_batch(x: np.ndarray, target: str) -> tuple[np.ndarray, ...]:
    """Batched estimate of gamma(1) or rho(1) and its variance; x is (B, n).
    The variance comes from the Bartlett covariance of the lag-0 and lag-1
    products, with the prewhitened bandwidth of _kernel_lrv but the window on
    the raw products.  Returns (estimate, variance, bandwidth, ok); a row is
    not ok when either variance is not positive."""
    if target not in ("gamma1", "rho1"):
        raise ValidationError(f"target must be gamma1 or rho1, got {target!r}")
    gamma, rho, omega, v, bw = _delta_parts(x, 1, recolor=False)
    if target == "gamma1":
        est, var = gamma[:, 1], v[:, 1, 1]
    else:
        est, var = rho[:, 0], omega[:, 0, 0]
    with np.errstate(invalid="ignore"):
        return est, var, bw, (gamma[:, 0] > 0.0) & (var > 0.0)


def efficient_ci(ts: SeriesLike, target: str, level: float = 0.95) -> EfficientCiResult:
    """Normal-approximation interval for gamma(1) or rho(1) studentized by a
    kernel long-run variance: the comparator to the self-normalized interval."""
    if not 0.0 < level < 1.0:
        raise ValidationError("level must be in (0, 1)")
    s = as_series(ts)
    est, var, bw, ok = (a[0] for a in efficient_variance_batch(s.values[None, :], target))
    if not ok:
        raise DegenerateVarianceError("sample or long-run variance is not positive")
    half = normal_quantile(0.5 + level / 2.0) * math.sqrt(var / s.n)
    est, var = float(est), float(var)
    return EfficientCiResult(target, est, var, int(bw), level, Interval(est - half, est + half))
