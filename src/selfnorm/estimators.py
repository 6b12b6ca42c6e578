"""Recursive prefix estimators.

Every estimator here can be evaluated on all growing prefixes of a series at
once; the resulting sequence of estimates is the raw material for the
self-normalizer.  Batch variants evaluate whole matrices of series (one row
per series) and are what the bootstrap and Monte Carlo layers call in their
inner loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DegenerateVarianceError,
    EstimateSequence,
    LagTooLargeError,
    SeriesLike,
    SolverFailedError,
    TooShortError,
    ValidationError,
    as_series,
)

# first prefix long enough for a mean-corrected lag-k estimate
def _autocov_first_valid(k: int) -> int:
    return k + 2


SPECTRAL_FIRST_VALID = 4
LAD_EXTRA_PREFIX = 10  # lad estimates start at t = order + 10

_DEGENERATE_RTOL = 1e-14


# ---------------------------------------------------------------------------
# Spectral weight functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiSpec:
    """Weight function on [0, pi] for spectral averages.

    The only kind is "indicator": the spectral density integrated over
    [0, x], written PhiSpec("indicator", x=...).
    """

    kind: str
    x: float = 0.0

    def __post_init__(self):
        if self.kind != "indicator":
            raise ValidationError(f"unknown weight function kind {self.kind!r}")
        if not 0.0 <= self.x <= math.pi:
            raise ValidationError(f"indicator cutoff {self.x} outside [0, pi]")


def fourier_coeffs(phi: PhiSpec, count: int) -> np.ndarray:
    """Cosine-series weights g_0..g_{count-1}.

    The spectral average of a density f equals sum_k gamma(k) g_k where
    g_0 is the 0th Fourier coefficient of the weight over [0, pi] and
    g_k folds the +-k coefficients together.
    """
    if count < 1:
        raise ValidationError("need at least one coefficient")
    g = np.zeros(count)
    g[0] = phi.x / (2.0 * math.pi)
    k = np.arange(1, count)
    g[1:] = np.sin(k * phi.x) / (math.pi * k)
    return g


# ---------------------------------------------------------------------------
# Estimator specification / canonical string forms
# ---------------------------------------------------------------------------

_PI_TOKENS = {"pi": math.pi, "pi/2": math.pi / 2, "pi/4": math.pi / 4,
              "3pi/4": 3 * math.pi / 4}


def _parse_angle(token: str) -> float:
    token = token.strip().lower()
    if token in _PI_TOKENS:
        return _PI_TOKENS[token]
    try:
        return float(token)
    except ValueError:
        raise ValidationError(f"cannot parse angle {token!r}") from None


def _format_angle(x: float) -> str:
    for name, val in _PI_TOKENS.items():
        if abs(x - val) < 1e-12:
            return name
    return repr(x)


@dataclass(frozen=True)
class EstimatorSpec:
    """Which statistic to track over prefixes.

    Canonical string forms: "mean", "median", "acov:K", "acf:K",
    "specmean:X", "specratio:X" (X a float or pi/2-style token), "ladar:P".
    """

    kind: str
    lag: int = 0
    x: float = 0.0
    order: int = 0
    divisor: str = "full_n"  # or "n_minus_lag"

    KINDS = ("mean", "median", "acov", "acf", "specmean", "specratio", "ladar")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValidationError(f"unknown estimator kind {self.kind!r}")
        if self.divisor not in ("full_n", "n_minus_lag"):
            raise ValidationError(f"unknown divisor {self.divisor!r}")
        if self.kind in ("acov", "acf") and self.lag < 0:
            raise ValidationError("lag must be >= 0")
        if self.kind in ("specmean", "specratio") and not 0.0 <= self.x <= math.pi:
            raise ValidationError(f"spectral cutoff {self.x} outside [0, pi]")
        if self.kind == "ladar" and self.order < 1:
            raise ValidationError("autoregression order must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "EstimatorSpec":
        parts = text.strip().split(":")
        kind = parts[0].lower()
        args = parts[1:]
        if kind in ("mean", "median"):
            if args:
                raise ValidationError(f"{kind} takes no arguments")
            return cls(kind)
        if kind in ("acov", "acf"):
            if len(args) != 1:
                raise ValidationError(f"{kind} needs a lag, e.g. {kind}:1")
            try:
                lag = int(args[0])
            except ValueError:
                raise ValidationError(f"bad lag {args[0]!r}") from None
            return cls(kind, lag=lag)
        if kind in ("specmean", "specratio"):
            if len(args) != 1:
                raise ValidationError(f"{kind} needs a cutoff, e.g. {kind}:pi/2")
            return cls(kind, x=_parse_angle(args[0]))
        if kind == "ladar":
            if len(args) != 1:
                raise ValidationError("ladar needs an order, e.g. ladar:2")
            try:
                order = int(args[0])
            except ValueError:
                raise ValidationError(f"bad order {args[0]!r}") from None
            return cls(kind, order=order)
        raise ValidationError(f"unknown estimator {text!r}")

    def canonical(self) -> str:
        if self.kind in ("mean", "median"):
            return self.kind
        if self.kind in ("acov", "acf"):
            return f"{self.kind}:{self.lag}"
        if self.kind in ("specmean", "specratio"):
            return f"{self.kind}:{_format_angle(self.x)}"
        return f"ladar:{self.order}"

    @property
    def dim(self) -> int:
        return self.order if self.kind == "ladar" else 1

    @property
    def batched(self) -> bool:
        """Whether batch_prefix_values evaluates this statistic row-wise."""
        return self.kind != "ladar"

    def first_valid(self) -> int:
        if self.kind in ("mean", "median"):
            return 1
        if self.kind in ("acov", "acf"):
            return _autocov_first_valid(self.lag)
        if self.kind in ("specmean", "specratio"):
            return SPECTRAL_FIRST_VALID
        return self.order + LAD_EXTRA_PREFIX

    def phi(self) -> PhiSpec:
        if self.kind not in ("specmean", "specratio"):
            raise ValidationError(f"{self.kind} has no weight function")
        return PhiSpec("indicator", x=self.x)


# ---------------------------------------------------------------------------
# Batch kernels (one series per row)
# ---------------------------------------------------------------------------

def _check_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError(f"expected (series, time) matrix, got shape {x.shape}")
    return x


def batch_prefix_mean(x: np.ndarray) -> np.ndarray:
    """(B, n) -> (B, n) prefix means, first column = first observation."""
    x = _check_matrix(x)
    t = np.arange(1, x.shape[1] + 1, dtype=np.float64)
    return np.cumsum(x, axis=1) / t


def batch_prefix_median(x: np.ndarray) -> np.ndarray:
    """(B, n) -> (B, n) prefix medians (midpoint rule on even prefixes).

    Each row is sorted once.  Walking back from the full sample, the newest
    observation is unlinked from a doubly linked list over the sorted order,
    and the pointer to the lower-middle element moves at most one step per
    deletion, so a row costs O(n log n).
    """
    x = _check_matrix(x)
    b, n = x.shape
    order = np.argsort(x, axis=1, kind="stable")
    # flat indices into (B, n + 1) arrays: a row's sorted positions 0..n-1,
    # then one spare slot that both ends of the row's list point at
    slot = np.arange(b * (n + 1)).reshape(b, n + 1)
    ranked = np.empty(slot.size)
    ranked[slot[:, :n]] = np.take_along_axis(x, order, axis=1)
    sorted_slot = np.empty_like(order)  # sorted_slot[:, i]: where x[:, i] sits
    np.put_along_axis(sorted_slot, order, slot[:, :n], axis=1)
    prev, nxt = slot - 1, slot + 1
    prev[:, 0] = nxt[:, n - 1] = slot[:, n]
    prev, nxt = prev.ravel(), nxt.ravel()
    lo = slot[:, (n - 1) // 2]
    out = np.empty_like(x)
    for t in range(n, 0, -1):
        gone = sorted_slot[:, t - 1]
        # the lower middle of the t - 1 values left: one step down when t is
        # odd and the deleted value sits at or above it, one step up when t
        # is even and it sits at or below it
        if t % 2:
            out[:, t - 1] = ranked[lo]
            lo = np.where(gone >= lo, prev[lo], lo)
        else:
            out[:, t - 1] = (ranked[lo] + ranked[nxt[lo]]) / 2.0
            lo = np.where(gone <= lo, nxt[lo], lo)
        before, after = prev[gone], nxt[gone]
        nxt[before] = after
        prev[after] = before
    return out


def _centered_prefix_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows shifted by their full-sample mean, and their prefix sums.

    Returns (xc, p) with p[:, t] = P_t = xc_1 + ... + xc_t, so P_0 = 0.  The
    statistics built on these are shift-invariant, so the shift is exact; it
    spares the prefix-sum formulas the cancellation of a level offset.  The
    mean can round outside [min, max]: clipping keeps a constant row zero.
    """
    centre = np.clip(x.mean(axis=1), x.min(axis=1), x.max(axis=1))
    xc = x - centre[:, None]
    p = np.zeros((x.shape[0], x.shape[1] + 1))
    np.cumsum(xc, axis=1, out=p[:, 1:])
    return xc, p


def _ratio(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """num / den per prefix; returns (values, ok_rows).

    Rows whose denominator degenerates anywhere on the prefix range come back
    as NaN with ok False; single-series callers turn that into
    DegenerateVarianceError, resampling callers redraw.
    """
    floor = _DEGENERATE_RTOL * np.maximum(den[:, -1], 0.0)[:, None]
    ok = (den > floor).all(axis=1) & (den[:, -1] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = num / den
    return np.where(ok[:, None], vals, np.nan), ok


def _autocov_grid(x: np.ndarray, lags: list[int], divisor: str, t_min: int) -> np.ndarray:
    """(B, n) -> (B, n - t_min + 1, len(lags)) lag-k autocovariances, k in lags.

    On the centred rows of _centered_prefix_sums, with P the prefix sums,
    Q_t = sum_{j<=t-k} x_j x_{j+k} and m_t = P_t / t,
      sum_{j<=t-k} (x_j - m_t)(x_{j+k} - m_t)
        = Q_t - m_t (P_{t-k} + P_t - P_k) + (t-k) m_t^2,
    so each lag costs O(B n) time and memory.
    """
    x = _check_matrix(x)
    n, top = x.shape[1], max(lags)
    if min(lags) < 0 or top > n - 1 or t_min > n:
        raise LagTooLargeError(top, n)
    if t_min < top + 1:
        raise ValidationError(f"t_min {t_min} below first defined prefix {top + 1}")
    xc, p = _centered_prefix_sums(x)
    ts = np.arange(t_min, n + 1)
    pt = p[:, t_min:]
    m = pt / ts
    out = np.empty((x.shape[0], ts.size, len(lags)))
    for i, k in enumerate(lags):
        q = np.cumsum(xc[:, : n - k] * xc[:, k:], axis=1)  # q[:, i] = Q_{i+k+1}
        num = q[:, t_min - k - 1:] - m * (p[:, t_min - k: n + 1 - k] + pt - p[:, k:k + 1])
        out[:, :, i] = (num + (ts - k) * m * m) / (ts if divisor == "full_n" else ts - k)
    return out


def batch_prefix_autocov(x: np.ndarray, k: int, divisor: str = "full_n") -> np.ndarray:
    """(B, n) -> (B, n-k-1) prefix autocovariances, prefixes k+2..n."""
    return _autocov_grid(x, [k], divisor, _autocov_first_valid(k))[:, :, 0]


def batch_prefix_autocorr(
    x: np.ndarray, k: int, divisor: str = "full_n"
) -> tuple[np.ndarray, np.ndarray]:
    """Prefix lag-k autocorrelations; returns (values, ok_rows) as _ratio."""
    if k < 1:
        raise ValidationError("autocorrelation lag must be >= 1")
    # the lag-0 divisor is t under either convention (t - 0 = t)
    grid = _autocov_grid(x, [k, 0], divisor, _autocov_first_valid(k))
    return _ratio(grid[:, :, 0], grid[:, :, 1])


def _fft_len(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m, a length the FFT factors quickly.

    A power of two can be almost twice m and costs more than the 5-smooth
    length just above m."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def batch_prefix_spectral(
    x: np.ndarray, phi: PhiSpec, ratio: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Prefix spectral averages S_t = sum_{k<t} g_k gamma_t(k) for t = 4..n.

    Summing the lag-k formula of _autocov_grid against g gives, on the same
    centred rows and prefix sums P (P_0 = 0, m_t = P_t / t),
      S_t = (A_t - m_t (D_t + P_t G_t - H_t) + m_t^2 (t G_t - K_t)) / t
    with c = causal-conv(x, g), A = cumsum(x c), D = causal-conv(P, g), and
    G, K, H the cumsums of g_k, k g_k and g_k P_k.  The two convolutions run
    by FFT, so a (B, n) batch costs O(B n log n) time and O(B n) memory.

    For ratio=True divides by gamma_t(0)/2 = (sum_{j<=t} x_j^2 - P_t m_t)/(2t),
    the spectral average of the constant weight, giving a normalized spectral
    distribution value; returns (values, ok_rows) as _ratio.
    """
    x = _check_matrix(x)
    b, n = x.shape
    if n < SPECTRAL_FIRST_VALID:
        raise TooShortError(n, SPECTRAL_FIRST_VALID)
    xc, p = _centered_prefix_sums(x)
    pt, t = p[:, 1:], np.arange(1, n + 1)
    g = fourier_coeffs(phi, n)
    size = _fft_len(2 * n - 1)  # long enough not to wrap
    g_hat = np.fft.rfft(g, size)
    c, d = (np.fft.irfft(np.fft.rfft(a, size, axis=1) * g_hat, size, axis=1)[:, :n]
            for a in (xc, pt))
    big_g = np.cumsum(g)
    h = np.cumsum(g * p[:, :n], axis=1)
    m = pt / t
    s = np.cumsum(xc * c, axis=1) - m * (d + pt * big_g - h)
    s = (s + m * m * (t * big_g - np.cumsum(np.arange(n) * g))) / t
    first = SPECTRAL_FIRST_VALID - 1
    if not ratio:
        return s[:, first:], np.ones(b, dtype=bool)
    den = (np.cumsum(xc * xc, axis=1) - pt * m) / (2.0 * t)
    return _ratio(s[:, first:], den[:, first:])


def batch_prefix_values(spec: EstimatorSpec, x: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Dispatch: (values (B, rows), first_valid, ok (B,)) for scalar estimators."""
    x = _check_matrix(x)
    all_ok = np.ones(x.shape[0], dtype=bool)
    if spec.kind == "mean":
        return batch_prefix_mean(x), 1, all_ok
    if spec.kind == "median":
        return batch_prefix_median(x), 1, all_ok
    if spec.kind == "acov":
        return batch_prefix_autocov(x, spec.lag, spec.divisor), spec.first_valid(), all_ok
    if spec.kind == "acf":
        vals, ok = batch_prefix_autocorr(x, spec.lag, spec.divisor)
        return vals, spec.first_valid(), ok
    if spec.kind in ("specmean", "specratio"):
        vals, ok = batch_prefix_spectral(x, spec.phi(), spec.kind == "specratio")
        return vals, spec.first_valid(), ok
    raise ValidationError(f"{spec.kind} has no batch kernel; evaluate per series")


# ---------------------------------------------------------------------------
# Public single-series estimators
# ---------------------------------------------------------------------------

def prefix_mean(ts: SeriesLike) -> EstimateSequence:
    """Running means of all prefixes."""
    return prefix_estimates(EstimatorSpec("mean"), ts)


def prefix_median(ts: SeriesLike) -> EstimateSequence:
    """Running medians; even-length prefixes use the midpoint of the two
    central order statistics."""
    return prefix_estimates(EstimatorSpec("median"), ts)


def prefix_autocov(ts: SeriesLike, k: int, divisor: str = "full_n") -> EstimateSequence:
    """Running mean-corrected lag-k autocovariances, prefixes k+2..n.

    divisor "full_n" divides the lag-k sum by t (the usual gamma-hat);
    "n_minus_lag" divides by t - k.
    """
    return prefix_estimates(EstimatorSpec("acov", lag=k, divisor=divisor), ts)


def prefix_autocorr(ts: SeriesLike, k: int, divisor: str = "full_n") -> EstimateSequence:
    """Running lag-k autocorrelations, prefixes k+2..n."""
    return prefix_estimates(EstimatorSpec("acf", lag=k, divisor=divisor), ts)


def prefix_spectral_mean(ts: SeriesLike, phi: PhiSpec) -> EstimateSequence:
    """Running spectral averages of the prefix periodogram, prefixes 4..n."""
    return prefix_estimates(EstimatorSpec("specmean", x=phi.x), ts)


def prefix_spectral_ratio(ts: SeriesLike, phi: PhiSpec) -> EstimateSequence:
    """Running normalized spectral averages (relative to total mass)."""
    return prefix_estimates(EstimatorSpec("specratio", x=phi.x), ts)


# ---------------------------------------------------------------------------
# Least absolute deviation autoregression
# ---------------------------------------------------------------------------

_LAD_TOL = 1e-9
_LAD_MAX_ITER = 200
_LAD_RESID_FLOOR = 1e-8


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    half = w.sum() / 2.0
    cum = np.cumsum(w)
    i = int(np.searchsorted(cum, half))
    if i + 1 < len(v) and abs(cum[i] - half) <= 1e-12 * max(half, 1.0):
        return (v[i] + v[i + 1]) / 2.0
    return float(v[min(i, len(v) - 1)])


def _lad_coordinate_descent(a: np.ndarray, y: np.ndarray, start: np.ndarray) -> Optional[np.ndarray]:
    """Exact 1-d minimization per coordinate via weighted medians of the
    residual breakpoints; used when IRLS stalls."""
    theta = start.copy()
    p = a.shape[1]
    for _ in range(200):
        moved = 0.0
        for j in range(p):
            col = a[:, j]
            mask = np.abs(col) > 0.0
            if not mask.any():
                continue
            partial = y - a @ theta + col * theta[j]
            ratios = partial[mask] / col[mask]
            new = _weighted_median(ratios, np.abs(col[mask]))
            moved = max(moved, abs(new - theta[j]))
            theta[j] = new
        if moved < _LAD_TOL:
            return theta
    return None


def _lad_fit(a: np.ndarray, y: np.ndarray, start: Optional[np.ndarray]) -> np.ndarray:
    """Iteratively reweighted least squares for the L1 autoregression.

    IRLS with a residual floor can stall at a non-optimal fixed point, so its
    output is always polished by exact coordinate descent (weighted medians of
    the breakpoints), which settles on the piecewise-linear minimizer.
    """
    if start is None:
        theta, *_ = np.linalg.lstsq(a, y, rcond=None)
    else:
        theta = start.copy()
    for _ in range(_LAD_MAX_ITER):
        resid = y - a @ theta
        w = 1.0 / np.maximum(np.abs(resid), _LAD_RESID_FLOOR)
        aw = a * w[:, None]
        try:
            new = np.linalg.solve(a.T @ aw, aw.T @ y)
        except np.linalg.LinAlgError:
            break
        step = float(np.max(np.abs(new - theta)))
        theta = new
        if step < _LAD_TOL:
            break
    polished = _lad_coordinate_descent(a, y, theta)
    if polished is None:
        raise SolverFailedError("L1 autoregression did not converge")
    return polished


def prefix_lad_ar(ts: SeriesLike, p: int) -> EstimateSequence:
    """Running LAD autoregression coefficients, prefixes p+10..n.

    Each prefix solves argmin over phi of sum |X_t - phi_1 X_{t-1} - ... -
    phi_p X_{t-p}|; IRLS with warm starts, exact coordinate descent as the
    fallback.
    """
    if p < 1:
        raise ValidationError("autoregression order must be >= 1")
    s = as_series(ts)
    first = p + LAD_EXTRA_PREFIX
    if s.n < first:
        raise TooShortError(s.n, first)
    x = s.values
    cols = [x[p - 1 - j: len(x) - 1 - j] for j in range(p)]
    design_full = np.column_stack(cols)  # row i predicts x[p + i]
    y_full = x[p:]
    rows = []
    theta: Optional[np.ndarray] = None
    for t in range(first, s.n + 1):
        m = t - p
        theta = _lad_fit(design_full[:m], y_full[:m], theta)
        rows.append(theta.copy())
    return EstimateSequence(np.vstack(rows), first, s.n)


def prefix_estimates(spec: EstimatorSpec, ts: SeriesLike) -> EstimateSequence:
    """Evaluate any estimator spec on one series; the scalar estimators run
    as a batch of one."""
    s = as_series(ts)
    if spec.kind == "ladar":
        return prefix_lad_ar(s, spec.order)
    vals, first_valid, ok = batch_prefix_values(spec, s.values[None, :])
    if not ok[0]:
        raise DegenerateVarianceError(f"a prefix variance vanished; {spec.canonical()} undefined")
    return EstimateSequence(vals[0], first_valid, s.n)
