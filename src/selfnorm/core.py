"""Core plumbing shared by every other module.

Series validation, the prefix-estimate container, a positive-definite solve
with an explicit pivot tolerance, and counter-seeded RNG streams that make
parallel Monte Carlo runs reproducible independently of worker count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import IO, Iterable, Union

import numpy as np


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class SelfnormError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SelfnormError, ValueError):
    """Bad input: malformed series, out-of-range lag, impossible block length."""


class NumericalError(SelfnormError, ArithmeticError):
    """Computation failed on valid input: degenerate or non-PD quantities."""


class NonFiniteError(ValidationError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"series contains a non-finite value at position {index}")


class TooShortError(ValidationError):
    def __init__(self, n: int, minimum: int = 2):
        self.n = n
        super().__init__(f"series has {n} observations, need at least {minimum}")


class SeriesParseError(ValidationError):
    def __init__(self, line_no: int, text: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: cannot parse {text!r} as a number")


class LagTooLargeError(ValidationError):
    def __init__(self, lag: int, n: int):
        self.lag = lag
        super().__init__(f"lag {lag} out of range for series of length {n}")


class BlockTooLongError(ValidationError):
    def __init__(self, block: int, n: int):
        self.block = block
        super().__init__(f"block length {block} exceeds series length {n}")


class NotPositiveDefiniteError(NumericalError):
    def __init__(self, detail: str = "matrix is not positive definite"):
        super().__init__(detail)


class DegenerateVarianceError(NumericalError):
    def __init__(self, detail: str = "variance estimate is not positive"):
        super().__init__(detail)


class SolverFailedError(NumericalError):
    def __init__(self, detail: str):
        super().__init__(detail)


class TooFewPrefixesError(NumericalError):
    def __init__(self, count: int):
        self.count = count
        super().__init__(f"only {count} usable prefix estimates, need at least 2")


class TooManyDegenerateResamplesError(NumericalError):
    def __init__(self, bad: int, total: int):
        super().__init__(
            f"{bad} of {total} bootstrap resamples stayed degenerate after retries"
        )


# ---------------------------------------------------------------------------
# Series container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeSeries:
    """Validated univariate series: finite float64 values, length >= 2."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


def validate_series(values: Iterable[float]) -> TimeSeries:
    """Coerce to float64, reject non-finite entries and too-short input.

    Raises
    ------
    TooShortError
        Fewer than 2 observations.
    NonFiniteError
        NaN or infinity anywhere, reported with its position.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"expected a 1-d series, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise TooShortError(arr.shape[0])
    finite = np.isfinite(arr)
    if not finite.all():
        raise NonFiniteError(int(np.argmin(finite)))
    return TimeSeries(arr)


SeriesLike = Union[TimeSeries, np.ndarray, Iterable[float]]


def as_series(x: SeriesLike) -> TimeSeries:
    if isinstance(x, TimeSeries):
        return x
    return validate_series(x)


def read_series(source: Union[str, IO[str]]) -> TimeSeries:
    """Read one observation per line; '#' starts a comment, blanks skipped.

    Lines may carry trailing comma-separated fields (only the first is used),
    so single-column CSV files work unchanged.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    out = []
    for line_no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        token = text.split(",")[0].strip()
        try:
            out.append(float(token))
        except ValueError:
            raise SeriesParseError(line_no, token) from None
    if len(out) < 2:
        raise TooShortError(len(out))
    return validate_series(out)


def write_series(values: np.ndarray, sink: IO[str], header: str | None = None) -> None:
    if header:
        for line in header.splitlines():
            sink.write(f"# {line}\n")
    for v in values:
        sink.write(f"{float(v)!r}\n")


# ---------------------------------------------------------------------------
# Prefix-estimate container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateSequence:
    """Estimates computed on growing prefixes of one series.

    Row j holds the estimate using the first ``first_valid + j`` observations;
    the last row used all ``n_eff`` observations.  Estimates are stored as a
    (rows, dim) array; a 1-d input is a column of scalar estimates.
    """

    estimates: np.ndarray
    first_valid: int
    n_eff: int

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=np.float64)
        if est.ndim == 1:
            est = est[:, None]
        elif est.ndim != 2:
            raise ValidationError(f"estimates must be 1-d or (rows, dim), got shape {est.shape}")
        object.__setattr__(self, "estimates", est)
        rows = est.shape[0]
        if self.first_valid < 1:
            raise ValidationError(f"first_valid must be >= 1, got {self.first_valid}")
        if rows != self.n_eff - self.first_valid + 1:
            raise ValidationError(
                f"{rows} rows inconsistent with prefixes {self.first_valid}..{self.n_eff}"
            )
        if not np.isfinite(est).all():
            raise NumericalError("prefix estimates contain non-finite values")

    @property
    def dim(self) -> int:
        return self.estimates.shape[1]

    @property
    def final(self) -> np.ndarray:
        """Full-sample estimate (last row)."""
        return self.estimates[-1]

    def at(self, t: int) -> np.ndarray:
        """Estimate using the first t observations."""
        if not self.first_valid <= t <= self.n_eff:
            raise ValidationError(f"prefix {t} outside {self.first_valid}..{self.n_eff}")
        return self.estimates[t - self.first_valid]


# ---------------------------------------------------------------------------
# Positive-definite solve
# ---------------------------------------------------------------------------

# Pivots at or below PIVOT_RTOL times the largest diagonal entry are treated
# as zero, i.e. the matrix is declared not positive definite.
PIVOT_RTOL = 1e-14
RESIDUAL_RTOL = 1e-10


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for symmetric positive definite a via Cholesky.

    A batch of one through chol_solve_batch.  Raises NotPositiveDefiniteError
    when a pivot falls at or below 1e-14 times the largest diagonal entry,
    and SolverFailedError when the residual exceeds 1e-10 relative to the
    problem scale.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotPositiveDefiniteError("matrix has non-finite entries")
    x, ok = chol_solve_batch(a[None], b[None])
    if not ok[0]:
        raise NotPositiveDefiniteError()
    x = x[0]
    scale = np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b)
    resid = np.linalg.norm(a @ x - b)
    if resid > RESIDUAL_RTOL * max(scale, np.finfo(np.float64).tiny):
        raise SolverFailedError(f"solve residual {resid:.3e} exceeds tolerance")
    return x


def quadform_spd(a: np.ndarray, v: np.ndarray) -> float:
    """v' a^{-1} v for symmetric positive definite a."""
    v = np.asarray(v, dtype=np.float64)
    return float(v @ solve_spd(a, v))


def chol_solve_batch(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched SPD solve: a is (m, q, q), b is (m, q).

    Returns (x, ok) where ok marks rows whose factorization kept every pivot
    above PIVOT_RTOL times the row's largest diagonal entry.  Failed rows come
    back as NaN instead of raising, so callers can apply their own retry
    policy; solve_spd is the raising batch of one.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, q, _ = a.shape
    diag = a[:, np.arange(q), np.arange(q)]
    tol = PIVOT_RTOL * np.maximum(diag.max(axis=1), 0.0)
    lower = np.zeros_like(a)
    ok = np.isfinite(a).all(axis=(1, 2))
    for j in range(q):
        pivot = a[:, j, j] - np.einsum("mk,mk->m", lower[:, j, :j], lower[:, j, :j])
        good = pivot > tol
        ok &= good
        safe = np.where(good, pivot, 1.0)
        lower[:, j, j] = np.sqrt(safe)
        if j + 1 < q:
            num = a[:, j + 1:, j] - np.einsum("mik,mk->mi", lower[:, j + 1:, :j], lower[:, j, :j])
            lower[:, j + 1:, j] = num / lower[:, j, j][:, None]
    y = np.zeros_like(b)
    for i in range(q):
        y[:, i] = (b[:, i] - np.einsum("mk,mk->m", lower[:, i, :i], y[:, :i])) / lower[:, i, i]
    x = np.zeros_like(y)
    for i in range(q - 1, -1, -1):
        x[:, i] = (y[:, i] - np.einsum("mk,mk->m", lower[:, i + 1:, i], x[:, i + 1:])) / lower[:, i, i]
    x = np.where(ok[:, None], x, np.nan)
    return x, ok


def quadform_batch(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched v' a^{-1} v; returns (values, ok) with NaN on failed rows."""
    x, ok = chol_solve_batch(a, v)
    return np.einsum("mk,mk->m", v, x), ok


# ---------------------------------------------------------------------------
# Reference quantiles
# ---------------------------------------------------------------------------

# scipy.special is imported on first use: the self-normalized paths never
# need it, and importing scipy costs far more than their arithmetic.  Both
# functions are what scipy.stats evaluates for norm.ppf and chi2.ppf.

def normal_quantile(p: float) -> float:
    """Standard normal quantile at p, equal to scipy.stats.norm.ppf(p)."""
    from scipy.special import ndtri

    return float(ndtri(p))


def chi2_quantile(k: int, alpha: float) -> float:
    """Upper alpha quantile of chi-square(k), equal to
    scipy.stats.chi2.ppf(1 - alpha, df=k)."""
    from scipy.special import gammaincinv

    return float(2 * gammaincinv(k / 2, 1 - alpha))


# ---------------------------------------------------------------------------
# Counter-seeded RNG streams
# ---------------------------------------------------------------------------

def stream_index_for(*parts) -> int:
    """Stable 64-bit index for a stream key (ints and strings).

    Uses a fixed hash so the same key maps to the same stream in every
    process, unlike the builtin salted hash().
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, (bool, float)):
            raise ValidationError(f"stream key parts must be int or str, got {part!r}")
        if isinstance(part, (int, np.integer)):
            h.update(b"i" + int(part).to_bytes(16, "little", signed=True))
        elif isinstance(part, str):
            h.update(b"s" + part.encode("utf-8"))
        else:
            raise ValidationError(f"stream key parts must be int or str, got {part!r}")
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream) pair naming one reproducible random stream.

    Streams with the same pair produce identical draws in any process or
    thread; distinct pairs are statistically independent.  Monte Carlo code
    derives one stream per replication from the experiment name and the
    replication index, which makes results independent of how replications
    are split across workers.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ValidationError("seed and stream index must be non-negative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)

    def child(self, *parts) -> "RngStream":
        """Derived stream for a sub-task named by ints/strings."""
        return RngStream(self.seed, stream_index_for(self.stream, *parts))
