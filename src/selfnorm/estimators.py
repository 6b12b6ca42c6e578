"""Recursive prefix estimators.

Every estimator here can be evaluated on all growing prefixes of a series at
once; the resulting sequence of estimates is the raw material for the
self-normalizer.  Batch variants evaluate whole matrices of series (one row
per series) and are what the bootstrap and Monte Carlo layers call in their
inner loops.

The moment kernels index time-major (prefix first, series second) and return
transposed views; their running sums add whole prefix rows across a batch at
least ROW_SUM_MIN_WIDTH series wide, np.cumsum's additions in its order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

LAD_EXTRA_PREFIX = 10  # lad estimates start at t = order + 10

_DEGENERATE_RTOL = 1e-14


# ---------------------------------------------------------------------------
# Spectral weight function: the indicator of [0, x]
# ---------------------------------------------------------------------------

def fourier_coeffs(x: float, count: int) -> np.ndarray:
    """Cosine-series weights g_0..g_{count-1} of the indicator of [0, x].

    The spectral average of a density f over [0, x] equals sum_k gamma(k) g_k
    where g_0 is the 0th Fourier coefficient of the weight over [0, pi] and
    g_k folds the +-k coefficients together.
    """
    if count < 1:
        raise ValidationError("need at least one coefficient")
    g = np.zeros(count)
    g[0] = x / (2.0 * math.pi)
    k = np.arange(1, count)
    g[1:] = np.sin(k * x) / (math.pi * k)
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
    """A pi token only for the float it parses to, so the text round-trips."""
    return next((name for name, val in _PI_TOKENS.items() if x == val), repr(x))


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

    KINDS = ("mean", "median", "acov", "acf", "specmean", "specratio", "ladar")
    # the one field each kind reads; every other field keeps its default, so
    # that equal statistics compare equal
    FIELD = {"acov": "lag", "acf": "lag", "specmean": "x", "specratio": "x", "ladar": "order"}
    # per field, the noun and example argument of parse's usage message
    USAGE = {"lag": ("a lag", "1"), "x": ("a cutoff", "pi/2"), "order": ("an order", "2")}

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValidationError(f"unknown estimator kind {self.kind!r}")
        for name in ("lag", "x", "order"):
            if name != self.FIELD.get(self.kind) and getattr(self, name) != 0:
                raise ValidationError(f"{self.kind} takes no {name}")
        if self.kind == "acov" and self.lag < 0:
            raise ValidationError("lag must be >= 0")
        if self.kind == "acf" and self.lag < 1:
            raise ValidationError("autocorrelation lag must be >= 1")
        if self.kind in ("specmean", "specratio") and not 0.0 <= self.x <= math.pi:
            raise ValidationError(f"spectral cutoff {self.x} outside [0, pi]")
        if self.kind == "ladar" and self.order < 1:
            raise ValidationError("autoregression order must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "EstimatorSpec":
        kind, *args = text.strip().split(":")
        kind = kind.lower()
        if kind not in cls.KINDS:
            raise ValidationError(f"unknown estimator {text!r}")
        field = cls.FIELD.get(kind)
        if field is None:
            if args:
                raise ValidationError(f"{kind} takes no arguments")
            return cls(kind)
        if len(args) != 1:
            noun, example = cls.USAGE[field]
            raise ValidationError(f"{kind} needs {noun}, e.g. {kind}:{example}")
        if field == "x":
            return cls(kind, x=_parse_angle(args[0]))
        try:
            value = int(args[0])
        except ValueError:
            raise ValidationError(f"bad {field} {args[0]!r}") from None
        return cls(kind, **{field: value})

    def canonical(self) -> str:
        field = self.FIELD.get(self.kind)
        if field is None:
            return self.kind
        value = getattr(self, field)
        return f"{self.kind}:{_format_angle(value) if field == 'x' else value}"

    @property
    def dim(self) -> int:
        return self.order if self.kind == "ladar" else 1

    def first_valid(self) -> int:
        """The shortest prefix with an estimate: a mean-corrected lag-k
        estimate needs k + 2 observations, a spectral average 4."""
        if self.kind in ("acov", "acf"):
            return self.lag + 2
        if self.kind in ("specmean", "specratio"):
            return 4
        return self.order + LAD_EXTRA_PREFIX if self.kind == "ladar" else 1


# ---------------------------------------------------------------------------
# Batch kernels (one series per row)
# ---------------------------------------------------------------------------

def _check_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError(f"expected (series, time) matrix, got shape {x.shape}")
    return x


# Whole prefix rows cost a numpy call each but run across the batch: they take
# 1.3x np.cumsum's time at 128 series, 0.5-1.0x at 256 and 0.4x at 1000, for
# n = 50, 150 and 600 alike (numpy 2.4, one thread).
ROW_SUM_MIN_WIDTH = 256


def _prefix_sum(a: np.ndarray, out=None) -> np.ndarray:
    """np.cumsum(a, axis=0, out=out), bytes and all, of a time-major a
    (prefixes, series), by whole rows from ROW_SUM_MIN_WIDTH series on.
    out may be a."""
    if a.shape[1] < ROW_SUM_MIN_WIDTH:
        return np.cumsum(a, axis=0, out=out)
    out = np.empty(a.shape) if out is None else out
    out[:1] = a[:1]
    for prev, row, new in zip(out, out[1:], a[1:]):
        np.add(prev, new, out=row)
    return out


def _every_row(x: np.ndarray) -> np.ndarray:
    """ok of a kernel none of whose rows can fail."""
    return np.ones(x.shape[0], dtype=bool)


def _mean(spec: EstimatorSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, n) prefix means, first column = first observation."""
    s = _prefix_sum(x.T)
    s /= np.arange(1, x.shape[1] + 1, dtype=np.float64)[:, None]
    return s.T, _every_row(x)


def _median(spec: EstimatorSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, n) prefix medians (midpoint rule on even prefixes).

    Each row is sorted once.  Walking back from the full sample, the newest
    observation is unlinked from a doubly linked list over the sorted order,
    and the pointer to the lower-middle element moves at most one step per
    deletion, so a row costs O(n log n).  The sorted values get 0.0 added,
    which turns -0.0 into +0.0, so values that compare equal have equal
    bytes and the sort need not be stable: a tie may land in any order
    without changing a median's bits.
    """
    b, n = x.shape
    order = np.argsort(x, axis=1)
    # flat indices into (B, n + 1) arrays: a row's sorted positions 0..n-1,
    # then one spare slot that both ends of the row's list point at
    slot = np.arange(b * (n + 1)).reshape(b, n + 1)
    ranked = np.zeros(slot.size)
    ranked[slot[:, :n]] = np.take_along_axis(x, order, axis=1)
    ranked += 0.0
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
    return out, _every_row(x)


def _centered_prefix_sums(x: np.ndarray, order: str = "C") -> tuple[np.ndarray, np.ndarray]:
    """Rows shifted by their full-sample mean, and their prefix sums, indexed
    time-major: (xc, p), (n, B) and (n + 1, B), p[t] = P_t = xc_1 + ... + xc_t,
    so P_0 = 0; stored in the given order, "C" time-major or "F" series-major.
    The statistics built on these are shift-invariant, so the shift is exact;
    it spares the prefix-sum formulas the cancellation of a level offset.  The
    mean can round outside [min, max]: clipping keeps a constant row zero.
    """
    xc = np.array(x.T, order=order)
    xc -= np.clip(x.mean(axis=1), xc.min(axis=0), xc.max(axis=0))
    p = np.zeros((x.shape[1] + 1, x.shape[0]), order=order)
    _prefix_sum(xc, out=p[1:])
    return xc, p


def _ratio(num: np.ndarray, den: np.ndarray, t=(1.0,)) -> tuple[np.ndarray, np.ndarray]:
    """num / den of time-major (rows, B) arrays, formed in num; returns
    (values, ok_rows), values the (B, rows) transposed view of num.

    den is t times a prefix variance.  Series whose variance degenerates
    anywhere on the prefix range come back as NaN with ok False;
    single-series callers turn that into DegenerateVarianceError, resampling
    callers redraw.
    """
    t = np.asarray(t, dtype=np.float64)[:, None]
    floor = _DEGENERATE_RTOL * np.maximum(den[-1] / t[-1], 0.0) * t
    ok = (den > floor).all(axis=0) & (den[-1] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.divide(num, den, out=num).T
    if not ok.all():
        vals[~ok] = np.nan
    return vals, ok


def _lag_sums(x: np.ndarray, lags: list[int], t_min: int) -> tuple[np.ndarray, list]:
    """Prefix lengths ts = t_min..n and, per lag k in lags, the time-major
    (ts.size, B) mean-corrected lag-k sums t gamma_t(k) of the prefixes.

    On the centred rows of _centered_prefix_sums, with P the prefix sums,
    Q_t = sum_{j<=t-k} x_j x_{j+k} and m_t = P_t / t,
      sum_{j<=t-k} (x_j - m_t)(x_{j+k} - m_t)
        = Q_t - m_t (P_{t-k} + P_t - P_k) + (t-k) m_t^2,
    so each lag costs O(B n) time and memory; its terms are formed in place.
    x is a float (B, n) matrix.
    """
    n, top = x.shape[1], max(lags)
    if min(lags) < 0 or top > n - 1 or t_min > n:
        raise LagTooLargeError(top, n)
    if t_min < top + 1:
        raise ValidationError(f"t_min {t_min} below first defined prefix {top + 1}")
    xc, p = _centered_prefix_sums(x)
    ts = np.arange(t_min, n + 1)
    pt = p[t_min:]
    m = pt / ts[:, None]
    sums = []
    for k in lags:
        q = np.multiply(xc[: n - k], xc[k:])
        q = _prefix_sum(q, out=q)[t_min - k - 1:]  # q[i] = Q_{t_min+i}
        s = np.add(p[t_min - k: n + 1 - k], pt)
        s -= p[k]
        s = np.subtract(q, np.multiply(m, s, out=s), out=s)
        q = np.multiply((ts - k)[:, None], m, out=q)
        s += np.multiply(q, m, out=q)
        sums.append(s)
    return ts, sums


def _autocov(spec: EstimatorSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, n-k-1) prefix lag-k autocovariances, prefixes k+2..n."""
    ts, (s,) = _lag_sums(x, [spec.lag], spec.first_valid())
    s /= ts[:, None]
    return s.T, _every_row(x)


def _autocorr(spec: EstimatorSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix lag-k autocorrelations, as _ratio returns them.  The lag sums
    share the divisor t, so their ratio leaves it out."""
    ts, (num, den) = _lag_sums(x, [spec.lag, 0], spec.first_valid())
    return _ratio(num, den, ts)


def _fft_len(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m >= 1, a length the FFT factors quickly.

    A power of two can be almost twice m and costs more than the 5-smooth
    length just above m."""
    while True:
        rest = m
        for f in (2, 3, 5):
            while rest % f == 0:
                rest //= f
        if rest == 1:
            return m
        m += 1


def _spectral(spec: EstimatorSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix spectral averages S_t = sum_{k<t} g_k gamma_t(k) for t = 4..n,
    g the fourier_coeffs of the indicator of [0, spec.x].

    Summing the lag-k formula of _lag_sums against g gives, on the same
    centred rows and prefix sums P (P_0 = 0, m_t = P_t / t),
      S_t = (A_t - m_t (D_t + P_t G_t - H_t) + m_t^2 (t G_t - K_t)) / t
    with c = causal-conv(x, g), A = cumsum(x c), D = causal-conv(P, g), and
    G, K, H the cumsums of g_k, k g_k and g_k P_k.  The two convolutions run
    by FFT, so a (B, n) batch costs O(B n log n) time and O(B n) memory.

    specratio divides by gamma_t(0)/2 = (sum_{j<=t} x_j^2 - P_t m_t)/(2t),
    the spectral average of the constant weight, giving a normalized spectral
    distribution value, as _ratio returns it.
    """
    b, n = x.shape
    first = spec.first_valid()
    if n < first:
        raise TooShortError(n, first)
    # series-major below ROW_SUM_MIN_WIDTH series, for contiguous FFT lanes: at
    # n = 600 that takes 0.87-0.89x the time-major time at 28 and 109 series
    xc, p = _centered_prefix_sums(x, "C" if b >= ROW_SUM_MIN_WIDTH else "F")
    pt, t = p[1:], np.arange(1, n + 1)[:, None]
    g = fourier_coeffs(spec.x, n)
    size = _fft_len(2 * n - 1)  # long enough not to wrap
    g_hat = np.fft.rfft(g, size)[:, None]
    c, d = (np.fft.irfft(np.fft.rfft(a, size, axis=0) * g_hat, size, axis=0)[:n]
            for a in (xc, pt))
    big_g = np.cumsum(g)[:, None]
    h = _prefix_sum(g[:, None] * p[:n])
    m = pt / t
    s = _prefix_sum(xc * c) - m * (d + pt * big_g - h)
    s = (s + m * m * (t * big_g - np.cumsum(np.arange(n) * g)[:, None])) / t
    if spec.kind == "specmean":
        return s[first - 1:].T, _every_row(x)
    den = (_prefix_sum(xc * xc) - pt * m) / (2.0 * t)
    return _ratio(s[first - 1:], den[first - 1:])


# ---------------------------------------------------------------------------
# Least absolute deviation autoregression
# ---------------------------------------------------------------------------

def _lad_path(x: np.ndarray, p: int) -> np.ndarray:
    """(n - p - 9, p) LAD autoregression coefficients of the prefixes
    p+10..n of x, each an exact L1 optimum.

    Edge descent on the L1 objective (Barrodale and Roberts, 1973), warm
    started from one prefix to the next, in the orthonormal coordinates
    phi = S V' theta of the design's numerical range: a level offset leaves
    the basis well conditioned, and a rank-deficient design (a constant
    series) gets the least-norm theta.  The state is phi, a basis B of rows
    with zero residual, and one stored sign per row, recomputed only where
    the residual is clear of zero.  With g = sum_{i not in B} s_i a_i, basis
    duals u = lstsq(A_B', g) and the unfitted remainder h = g - A_B' u:
    h != 0 is a descent edge on which B gains a row; else |u| <= 1 certifies
    the prefix optimal; else the lowest-numbered row with |u_j| > 1 leaves B
    along A_B d = sign(u_j) e_j.  Each edge is followed to the breakpoint
    where the slope turns nonnegative.  Stored signs and the lowest-row rule
    keep degenerate vertices (ties, exact fits) from cycling.  Raises
    SolverFailedError when a prefix is not certified after 10 m pivots.
    """
    first = p + LAD_EXTRA_PREFIX
    design = np.column_stack([x[p - 1 - j: len(x) - 1 - j] for j in range(p)])
    y_full = x[p:]  # row i of design predicts y_full[i]
    q, sv, vt = np.linalg.svd(design, full_matrices=False)
    if not np.isfinite(sv[0]):
        raise SolverFailedError("L1 autoregression design overflows")
    rank = int((sv > sv[0] * len(y_full) * np.finfo(float).eps).sum())
    out = np.zeros((len(x) - first + 1, rank))
    if rank == 0:  # an all-zero design: every theta fits alike
        return np.zeros((out.shape[0], p))
    a_full = q[:, :rank]
    # |g| <= m max|a|: a remainder below 1e-10 of that bound is rounding
    g_noise = 1e-10 * np.abs(a_full).max()
    zero = 1e-12 * np.abs(x).max()
    phi, basis, sign = np.zeros(rank), [], np.where(y_full >= 0.0, 1.0, -1.0)
    for k in range(out.shape[0]):
        m = first - p + k
        a, y = a_full[:m], y_full[:m]
        for _ in range(10 * m):
            r = y - a @ phi
            sign[:m] = np.where(np.abs(r) > zero, np.sign(r), sign[:m])
            s = sign[:m].copy()
            s[basis] = 0.0  # a basis row's stored sign is reset when it leaves
            g = s @ a
            a_b = a[basis]
            u = np.linalg.lstsq(a_b.T, g, rcond=None)[0]
            d = g - a_b.T @ u
            if not np.abs(d).max() > m * g_noise:
                if np.all(np.abs(u) <= 1.0 + 1e-9):
                    break
                row, j = min((b, j) for j, b in enumerate(basis) if abs(u[j]) > 1.0 + 1e-9)
                e = np.zeros(len(basis))
                e[j] = np.sign(u[j])
                d = np.linalg.lstsq(a_b, e, rcond=None)[0]
                s[row] = sign[row] = -e[j]
                basis.remove(row)
            c = a @ d
            rows = np.flatnonzero(s * c > 1e-12 * np.abs(d).sum())
            if rows.size == 0:
                raise SolverFailedError("L1 autoregression found no breakpoint on a descent edge")
            t = np.maximum(r[rows] / c[rows], 0.0)
            order = np.argsort(t, kind="stable")  # ties in row order
            slope = np.cumsum(2.0 * np.abs(c[rows[order]])) - s @ c
            stop = min(int(np.searchsorted(slope, 0.0)), rows.size - 1)
            sign[rows[order[:stop]]] *= -1.0
            phi = phi + t[order[stop]] * d
            basis.append(int(rows[order[stop]]))
        else:
            raise SolverFailedError("L1 autoregression did not converge")
        out[k] = phi
    return (out / sv[:rank]) @ vt[:rank]


def _lad_ar(spec: EstimatorSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, n - p - 9, p) ladar:p paths, each prefix an exact L1 optimum
    certified by its duals; a row whose solver fails is not ok."""
    b, n = x.shape
    first = spec.first_valid()
    if n < first:
        raise TooShortError(n, first)
    vals = np.full((b, n - first + 1, spec.order), np.nan)
    ok = _every_row(x)
    for r in range(b):
        try:
            vals[r] = _lad_path(x[r], spec.order)
        except SolverFailedError:
            ok[r] = False
    return vals, ok


_KERNELS = {"mean": _mean, "median": _median, "acov": _autocov, "acf": _autocorr,
            "specmean": _spectral, "specratio": _spectral, "ladar": _lad_ar}


def batch_prefix_values(spec: EstimatorSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values (B, rows, dim), ok (B,)) of any estimator on the rows of x,
    prefixes spec.first_valid()..n.

    values[b] is the (rows, dim) trajectory of row b, the layout of
    EstimateSequence and wn_batch; rows that ok marks False are NaN.
    """
    x = _check_matrix(x)
    vals, ok = _KERNELS[spec.kind](spec, x)
    return vals.reshape(*vals.shape[:2], spec.dim), ok


def prefix_lad_ar(ts: SeriesLike, p: int) -> EstimateSequence:
    """Running LAD autoregression coefficients, prefixes p+10..n.

    Each prefix solves argmin over phi of sum |X_t - phi_1 X_{t-1} - ... -
    phi_p X_{t-p}| exactly; the optimum is certified by its duals at every
    prefix.
    """
    return prefix_estimates(EstimatorSpec("ladar", order=p), ts)


def prefix_estimates(spec: EstimatorSpec, ts: SeriesLike) -> EstimateSequence:
    """Evaluate any estimator spec on one series: a batch of one."""
    s = as_series(ts)
    vals, ok = batch_prefix_values(spec, s.values[None, :])
    if not ok[0]:
        if spec.kind == "ladar":
            raise SolverFailedError("L1 autoregression did not converge")
        raise DegenerateVarianceError(f"a prefix variance vanished; {spec.canonical()} undefined")
    return EstimateSequence(vals[0], spec.first_valid(), s.n)
