"""Independent checks of every benchmark operation's output.

Each check recomputes the answer from its definition with plain numpy/scipy
and none of selfnorm's kernels.  A check returns a list of (check, message)
pairs, empty when the output is right.
"""

from __future__ import annotations

import json
import math

import numpy as np

EPS = np.finfo(np.float64).eps
CENTRE_RTOL = 1e-9  # acf / specratio centres against the two-pass definition
STAT_RTOL = 1e-7  # sn / lobato statistics against the brute-force definition
LAD_RTOL = 1e-7  # LAD objective against the LP optimum
# a Monte Carlo row as recorded in bench/reference (cell key gives the rest)
REFERENCE_FIELDS = ("method", "level_or_alpha", "block_length", "value_pct")


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


def two_pass_acov(x: np.ndarray, lags: int) -> np.ndarray:
    """gamma(0..lags) of x, centred at the full-sample mean, divisor n."""
    n = x.shape[0]
    xc = x - x.mean()
    return np.array([xc[: n - k] @ xc[k:] / n for k in range(lags + 1)])


def acf1(x: np.ndarray) -> float:
    g = two_pass_acov(x, 1)
    return float(g[1] / g[0])


def specratio(x: np.ndarray, cutoff: float) -> float:
    """F(cutoff) / F(pi) for the sample spectral distribution.

    With f(l) = (2 pi)^-1 (g0 + 2 sum_k gk cos(k l)), integrating over
    [0, c] gives g0 c / (2 pi) + sum_k gk sin(k c) / (pi k); over [0, pi]
    it gives g0 / 2.
    """
    n = x.shape[0]
    xc = x - x.mean()
    g = np.correlate(xc, xc, mode="full")[n - 1:] / n
    k = np.arange(1, n)
    f = g[0] * cutoff / (2.0 * math.pi) + np.sum(g[1:] * np.sin(k * cutoff) / (math.pi * k))
    return float(f / (g[0] / 2.0))


def sn_noncorr_stat(x: np.ndarray, k: int) -> float:
    """Self-normalized statistic, every prefix autocovariance recomputed."""
    n = x.shape[0]
    big_n = n - k
    c = np.empty((n - k - 1, k))
    for row, s in enumerate(range(k + 2, n + 1)):
        c[row] = two_pass_acov(x[:s], k)[1:]
    c_full = c[-1]
    u = np.arange(2, n - k + 1, dtype=np.float64)  # s - k for s = k+2..n
    dev = (c - c_full) * u[:, None]
    j = dev.T @ dev / big_n**2
    return float(big_n * c_full @ np.linalg.solve(j, c_full))


def lobato_stat(x: np.ndarray, k: int) -> float:
    """Fixed-normalizer statistic from cumulative sums of lagged products."""
    n = x.shape[0]
    big_n = n - k
    xc = x - x.mean()
    c_full = two_pass_acov(x, k)[1:]
    s = np.empty((big_n, k))
    for j in range(1, k + 1):
        s[:, j - 1] = np.cumsum(xc[:big_n] * xc[j: j + big_n] - c_full[j - 1])
    jm = s.T @ s / big_n**2
    return float(big_n * c_full @ np.linalg.solve(jm, c_full))


def lad_gap(x: np.ndarray, p: int, theta: np.ndarray) -> tuple[float, float]:
    """(L1 objective at theta, LP optimum) for the order-p LAD autoregression."""
    from scipy.optimize import linprog
    from scipy.sparse import eye, hstack, csr_matrix

    n = x.shape[0]
    y = x[p:]
    a = np.column_stack([x[p - 1 - j: n - 1 - j] for j in range(p)])
    m = y.shape[0]
    cost = np.concatenate([np.zeros(p), np.ones(2 * m)])
    a_eq = hstack([csr_matrix(a), eye(m), -eye(m)], format="csr")
    bounds = [(None, None)] * p + [(0, None)] * (2 * m)
    res = linprog(cost, A_eq=a_eq, b_eq=y, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(np.abs(y - a @ theta).sum()), float(res.fun)


def check_cli(args: list[str], x: np.ndarray, rc: int, stdout: str, tables: dict) -> list[tuple[str, str]]:
    """Check one CLI request; ``tables`` maps q to the cached alpha=0.05 quantile."""
    if rc != 0:
        return [("exit", f"exit status {rc}")]
    try:
        out = json.loads(stdout)
    except ValueError:
        return [("output", "stdout is not one JSON object")]
    opts = dict(zip(args[1::2], args[2::2]))
    if args[0] == "test-noncorr":
        return _check_test(opts, x, out, tables)
    return _check_ci(opts, x, out, tables)


def _check_test(opts: dict, x: np.ndarray, out: dict, tables: dict) -> list:
    from scipy import stats

    k = int(opts["--k"])
    method = opts["--method"]
    bad = []
    stat, crit = out["statistic"], out["critical_value"]
    if out["reject"] != (stat > crit):
        bad.append(("reject", f"reject={out['reject']} but statistic {stat} vs {crit}"))
    if method == "nw":
        if not _rel_close(crit, float(stats.chi2.ppf(0.95, df=k)), 1e-12):
            bad.append(("critval", f"critical value {crit} is not chi2(0.95, {k})"))
        if not (math.isfinite(stat) and stat >= 0.0):
            bad.append(("statistic", f"statistic {stat} is not a finite Wald value"))
        return bad
    if crit != tables[k]:
        bad.append(("critval", f"critical value {crit} != cached {tables[k]}"))
    want = sn_noncorr_stat(x, k) if method == "sn" else lobato_stat(x, k)
    if not _rel_close(stat, want, STAT_RTOL):
        bad.append(("statistic", f"statistic {stat!r} vs brute force {want!r}"))
    return bad


def _check_ci(opts: dict, x: np.ndarray, out: dict, tables: dict) -> list:
    stat = opts["--stat"]
    method = opts.get("--method", "sn")
    bad = []
    q = int(stat.split(":")[1]) if stat.startswith("ladar:") else 1
    if method == "sn" and out["critval"] != tables[q]:
        bad.append(("critval", f"critval {out['critval']} != cached {tables[q]}"))
    if "center" in out:  # ellipsoidal region (ladar:p, p >= 2)
        if out["center"] != out["estimate"] or out["radius2"] != out["critval"]:
            bad.append(("region", "region centre/radius differ from estimate/critval"))
        est = np.asarray(out["estimate"], dtype=np.float64)
    else:
        est, lo, hi = out["estimate"], out["L"], out["U"]
        # the percentile scheme's interval est - q/sqrt(N) need not contain est
        inside = lo <= est <= hi if method != "mbb-pct" else lo <= hi
        if not (math.isfinite(lo) and math.isfinite(hi) and inside):
            bad.append(("interval", f"estimate {est} and interval [{lo}, {hi}]"))
    if stat.startswith("ladar:"):
        obj, opt = lad_gap(x, q, np.atleast_1d(est))
        if not _rel_close(obj, opt, LAD_RTOL):
            bad.append(("ladar-objective", f"L1 objective {obj!r} vs LP optimum {opt!r}"))
        return bad
    n = x.shape[0]
    if stat == "mean":
        # recursive summation is within n * eps * sum|x| of the exact sum
        want = float(np.mean(x))
        ok = abs(est - want) <= 4.0 * n * EPS * float(np.mean(np.abs(x)))
    elif stat == "median":
        want = float(np.median(x))
        ok = est == want
    elif stat == "acf:1":
        want = acf1(x)
        ok = _rel_close(est, want, CENTRE_RTOL)
    else:
        want = specratio(x, math.pi / 2)
        ok = _rel_close(est, want, CENTRE_RTOL)
    if not ok:
        bad.append(("centre", f"{stat} centre {est!r} vs recomputed {want!r}"))
    return bad


def check_rows(cell: dict, rows: list[dict], expected: int, reference: dict | None) -> list[tuple[str, str]]:
    """Check one Monte Carlo cell: every row present and finite, and, where
    a reference for this seed exists, each percentage within 3 binomial
    standard errors of it."""
    bad = []
    if len(rows) != expected:
        bad.append(("rows", f"{len(rows)} rows, expected {expected}"))
    for row in rows:
        values = [row["value_pct"], row["se_pct"]]
        if cell["fn"] != "run_size":
            values.append(row["mean_width"])
        if not all(math.isfinite(v) for v in values):
            bad.append(("finite", f"non-finite row {row}"))
    if reference is None:
        return bad
    if len(reference) != len(rows):
        bad.append(("reference", f"{len(rows)} rows, reference has {len(reference)}"))
        return bad
    reps = cell["reps"]
    for row, ref in zip(rows, reference):
        if [row[k] for k in REFERENCE_FIELDS[:-1]] != ref[:-1]:
            bad.append(("reference", f"row {row} does not match reference {ref}"))
            continue
        p = ref[-1] / 100.0
        se = 100.0 * math.sqrt(p * (1.0 - p) / reps)
        if abs(row["value_pct"] - ref[-1]) > 3.0 * se + 1e-9:
            bad.append(("reference", f"{row['value_pct']} vs reference {ref[-1]} (se {se:.3g})"))
    return bad
