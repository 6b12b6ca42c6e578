"""Core plumbing shared by every other module.

Series validation, the prefix-estimate container, a positive-definite solve
with an explicit pivot tolerance, counter-seeded RNG streams that make
parallel Monte Carlo runs reproducible independently of worker count, and
the row-block rule that bounds every batch engine's working memory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Sequence, Union

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
    pass


class SolverFailedError(NumericalError):
    pass


class TooFewPrefixesError(NumericalError):
    def __init__(self, count: int):
        self.count = count
        super().__init__(f"only {count} usable prefix estimates, need at least 2")


class TooManyDegenerateResamplesError(NumericalError):
    def __init__(self, undefined: int, singular: int, total: int, retries: int):
        super().__init__(
            f"{undefined + singular} of {total} bootstrap resamples dropped: {undefined} "
            f"undefined after {retries} redraws, {singular} with a singular W*"
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
    resid = solve_residual_batch(a[None], b[None], x)[0]
    if not resid <= RESIDUAL_RTOL:
        raise SolverFailedError(f"relative solve residual {resid:.3e} exceeds tolerance")
    return x[0]


def quadform_spd(a: np.ndarray, v: np.ndarray) -> float:
    """v' a^{-1} v for symmetric positive definite a.  The dot product is
    numpy's sum, not BLAS, so its bits do not depend on the CPU kernel."""
    v = np.asarray(v, dtype=np.float64)
    return float((v * solve_spd(a, v)).sum())


def _row_dots(u: np.ndarray, v: np.ndarray):
    """Row-wise dot products of (m, k) arrays; k = 0 gives 0.0 without einsum's fixed cost."""
    return np.einsum("mk,mk->m", u, v) if u.shape[1] else 0.0


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
    diag = np.diagonal(a, axis1=1, axis2=2)
    tol = PIVOT_RTOL * np.maximum(diag.max(axis=1), 0.0)
    lower = np.zeros_like(a)
    ok = np.isfinite(a).all(axis=(1, 2))
    for j in range(q):
        pivot = a[:, j, j] - _row_dots(lower[:, j, :j], lower[:, j, :j])
        good = pivot > tol
        ok &= good
        safe = np.where(good, pivot, 1.0)
        lower[:, j, j] = np.sqrt(safe)
        if j + 1 < q:
            num = a[:, j + 1:, j] - np.einsum("mik,mk->mi", lower[:, j + 1:, :j], lower[:, j, :j])
            lower[:, j + 1:, j] = num / lower[:, j, j][:, None]
    x = np.copy(b)  # forward, then back substitution, in place
    for i in range(q):
        x[:, i] = (x[:, i] - _row_dots(lower[:, i, :i], x[:, :i])) / lower[:, i, i]
    for i in range(q - 1, -1, -1):
        x[:, i] = (x[:, i] - _row_dots(lower[:, i + 1:, i], x[:, i + 1:])) / lower[:, i, i]
    x[~ok] = np.nan
    return x, ok


def solve_residual_batch(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Residual |a x - b| / (|a| |x| + |b|) per row of a batched solve."""
    scale = np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(x, axis=1) + np.linalg.norm(b, axis=1)
    resid = np.linalg.norm(np.einsum("mij,mj->mi", a, x) - b, axis=1)
    return resid / np.maximum(scale, np.finfo(np.float64).tiny)


def quadform_batch(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched v' a^{-1} v; returns (values, ok) with NaN on failed rows."""
    x, ok = chol_solve_batch(a, v)
    return np.einsum("mk,mk->m", v, x), ok


def row_exponent(x: np.ndarray) -> np.ndarray:
    """Exponents e, one per row of x (first axis) and shaped to broadcast, with
    the row's largest magnitude in [2^(e-1), 2^e); 0 for a row of zeros or with
    a non-finite value.  ldexp(x, -e) scales each row exactly."""
    axes = tuple(range(1, x.ndim))
    top = np.maximum(x.max(axis=axes, keepdims=True), -x.min(axis=axes, keepdims=True))
    return np.frexp(top)[1]


# ---------------------------------------------------------------------------
# Reference quantiles
# ---------------------------------------------------------------------------

# The normal quantile is Cephes' ndtri (S. L. Moshier), the routine behind
# scipy.stats.norm.ppf, kept in its operation order so that it reproduces
# scipy bit for bit: a rational function of p - 1/2 in the centre and of
# 1/sqrt(-2 log p) in the tails, split at exp(-2).  Each Q has its leading 1.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _horner(x: float, coef: tuple) -> float:
    value = 0.0
    for c in coef:
        value = value * x + c
    return value


def normal_quantile(p: float) -> float:
    """Standard normal quantile at p, equal to scipy.stats.norm.ppf(p)."""
    if not 0.0 < p < 1.0:
        return {0.0: -math.inf, 1.0: math.inf}.get(p, math.nan)
    y, upper = (1.0 - p, True) if p > 1.0 - _EXP_M2 else (p, False)
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _horner(y2, _NDTRI_P0) / _horner(y2, _NDTRI_Q0))
        return x * 2.50662827463100050242
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    num, den = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x - math.log(x) / x - z * _horner(z, num) / _horner(z, den)
    return x if upper else -x


def _gamma_term(a: float, y: float) -> float:
    """y^a e^-y / Gamma(a + 1) for a > -1 and y > 0.  For large a its three
    factors nearly cancel, so it is formed from Stirling's error and a log1p
    deviance (Loader 2000); for small a in logs only where e^-y underflows."""
    if a < 15:
        if y < 700:
            return y ** a * math.exp(-y) / math.gamma(a + 1)
        return math.exp(a * math.log(y) - y - math.lgamma(a + 1))
    s = 1.0 / (a * a)
    stirling = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - s / 1188) * s) * s) * s) / a
    return math.exp(-stirling - a * math.log1p((a - y) / y) - (y - a)) / math.sqrt(2 * math.pi * a)


def _chi2_sf_pdf(k: int, x: float) -> tuple[float, float]:
    """Survival function and density of chi-square(k) at x > 0 for integer k
    (Abramowitz and Stegun 26.4.4-26.4.5).  With y = x/2 the survival is
    erfc(sqrt(y)) for odd k, and 0 for even k, plus the terms
    y^a e^-y / Gamma(a + 1) for a = k/2 - 1, k/2 - 2, ... >= 0, summed from
    the top one down; the density is half the top term."""
    y, a = 0.5 * x, 0.5 * k - 1.0
    top = _gamma_term(a, y)
    term, total = top, (math.erfc(math.sqrt(y)) if k % 2 else 0.0)
    while a >= 0.0:
        total += term
        if a < y and term < 1e-17 * total:
            break
        term *= a / y
        a -= 1.0
    return total, 0.5 * top


def _chi2_cdf(k: int, x: float) -> float:
    """Distribution function of chi-square(k) at x > 0: with y = x/2 and
    a = k/2, y^a e^-y / Gamma(a + 1) times sum_j y^j / ((a + 1)...(a + j))."""
    y, a = 0.5 * x, 0.5 * k
    term = total = 1.0
    while term > 1e-17 * total:
        a += 1.0
        term *= y / a
        total += term
    return _gamma_term(0.5 * k, y) * total


def chi2_quantile(k: int, alpha: float) -> float:
    """Upper alpha quantile of chi-square(k) for integer k, equal to
    2 * scipy.special.gammainccinv(k / 2, alpha) within 1e-13 relative.
    Newton steps from the Wilson-Hilferty start on log(survival / alpha) for
    alpha <= 0.5, and on log(distribution / (1 - alpha)) above, where
    1 - alpha is exact: each tail is taken where it keeps its digits."""
    c = 2.0 / (9.0 * k)
    x = k * max(1.0 - c - normal_quantile(alpha) * math.sqrt(c), 0.1) ** 3
    for _ in range(100):
        sf, pdf = _chi2_sf_pdf(k, x)
        if pdf == 0.0:  # the start overshot into underflow
            x *= 0.5
            continue
        if alpha > 0.5:
            cdf = _chi2_cdf(k, x)
            step = math.log((1.0 - alpha) / cdf) * cdf / pdf
        else:
            step = math.log(sf / alpha) * sf / pdf
        x, last = max(x + step, 0.25 * x), x  # Newton may overshoot below 0
        if abs(x - last) <= 1e-15 * x:
            break
    return x


# ---------------------------------------------------------------------------
# Counter-seeded RNG streams
# ---------------------------------------------------------------------------

def _feed_key(h, parts) -> None:
    """Hash each int or str part of a stream key into the blake2b object h."""
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


def _key_hash(parts):
    import hashlib  # loads OpenSSL, which ci and critvals never need

    h = hashlib.blake2b(digest_size=8)
    _feed_key(h, parts)
    return h


def stream_index_for(*parts) -> int:
    """Stable 64-bit index for a stream key (ints and strings).

    Uses a fixed hash so the same key maps to the same stream in every
    process, unlike the builtin salted hash().
    """
    return int.from_bytes(_key_hash(parts).digest(), "little")


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream) pair naming one reproducible random stream.

    Streams with the same pair produce identical draws in any process or
    thread; distinct pairs are statistically independent.  Monte Carlo code
    derives one stream per replication from the experiment name and the
    replication index, which makes results independent of how replications
    are split across workers.  generator() seeds numpy's PCG64 through
    numpy's own SeedSequence; the module function generators() gives the
    same states for many streams at once.
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

    def children(self, name: Union[int, str], indices: Iterable[int]) -> list["RngStream"]:
        """[self.child(name, i) for i in indices], hashing the shared key
        prefix once."""
        prefix = _key_hash((self.stream, name))
        out = []
        for i in indices:
            h = prefix.copy()
            _feed_key(h, (i,))
            out.append(RngStream(self.seed, int.from_bytes(h.digest(), "little")))
        return out


# numpy's SeedSequence (NEP 19 fixes its algorithm): a run's entropy words,
# here the seed's 32-bit words zero-padded to the 4-word pool and then the
# stream's words, are hashed into the pool; PCG64 takes 8 words hashed out of
# it as four uint64.  Every hash constant is fixed in advance, so the mixing
# runs in wrapping uint32 arithmetic over many streams at once.
_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value: int, count: int = 1) -> list[int]:
    """value's little-endian 32-bit words, at least count of them."""
    out = []
    while value or len(out) < count:
        out.append(value & _M32)
        value >>= 32
    return out


def _hash_consts(start: int, mult: int, count: int) -> list[int]:
    out = [start]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return out


def _hashmix(value, xor, mult):
    """SeedSequence's hashmix with its constant before and after the step;
    on ints or on uint32 arrays."""
    value = (value ^ xor) * mult & _M32
    return value ^ value >> 16


def _mix(x, y):
    value = (x * _MIX_L - y * _MIX_R) & _M32
    return value ^ value >> 16


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """The pool after a seed's words, and the next hash constant."""
    words = _words(seed, _POOL)
    h = _hash_consts(_INIT_A, _MULT_A, _POOL * len(words))
    pool = [_hashmix(w, h[i], h[i + 1]) for i, w in enumerate(words[:_POOL])]
    k = _POOL
    for src in range(_POOL):  # mix every pool word into every other
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[k], h[k + 1]))
                k += 1
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(w, h[k], h[k + 1]))
            k += 1
    return tuple(pool), h[k]


_STATE_CONSTS = np.array(_hash_consts(_INIT_B, _MULT_B, 2 * _POOL), dtype=np.uint32)[:, None]


def _pcg64_seeds(seed: int, streams: list[int], count: int) -> np.ndarray:
    """(rows, 4) uint64 PCG64 seed words for one seed and streams of count
    32-bit words each."""
    pool_words, start = _seed_pool(seed)
    pool = np.array(pool_words, dtype=np.uint32)[:, None]
    words = np.array([_words(s, count) for s in streams], dtype=np.uint32)
    h = np.array(_hash_consts(start, _MULT_A, _POOL * count), dtype=np.uint32)[:, None]
    for j in range(count):  # each word mixes into the pool words independently
        k = _POOL * j
        pool = _mix(pool, _hashmix(words[:, j], h[k:k + _POOL], h[k + 1:k + _POOL + 1]))
    state = _hashmix(pool[[0, 1, 2, 3] * 2], _STATE_CONSTS[:-1], _STATE_CONSTS[1:])
    return ((state[1::2].astype(np.uint64) << np.uint64(32)) | state[0::2]).T.copy()


@functools.cache
def _seed_words_class():
    """An ISeedSequence handing PCG64 precomputed words; defined on first
    use, because importing numpy.random costs every other request."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for 4 uint64

    return SeedWords


def generators(streams: Sequence[RngStream]) -> list[np.random.Generator]:
    """[s.generator() for s in streams] with equal states, seeded in one pass:
    rows are grouped by seed and by the stream's 32-bit word count."""
    groups: dict[tuple[int, int], list[int]] = {}
    for r, s in enumerate(streams):
        count = max(1, (int(s.stream).bit_length() + 31) // 32)
        groups.setdefault((int(s.seed), count), []).append(r)
    seeds = np.empty((len(streams), 4), dtype=np.uint64)
    for (seed, count), rows in groups.items():
        seeds[rows] = _pcg64_seeds(seed, [int(streams[r].stream) for r in rows], count)
    seed_words = _seed_words_class()
    return [np.random.Generator(np.random.PCG64(seed_words(w))) for w in seeds]


# ---------------------------------------------------------------------------
# Row blocks
# ---------------------------------------------------------------------------

BLOCK_VALUES = 1 << 16  # values (rows x values per row) one row block holds
# the least rows of a block, by kind, for kernels that loop in Python once per
# block: the median over time, and a U_q draw's pivot over the dimension q in
# chol_solve_batch; fewer rows would multiply that per-block cost.  Every
# other kernel is whole-array and takes as few rows as BLOCK_VALUES allows.
MIN_BLOCK_ROWS = {"median": 128, "uq": 32}


def row_blocks(rows: int, row_values: int, kind: str = "") -> Iterator[slice]:
    """Consecutive slices of range(rows), each of BLOCK_VALUES // row_values
    rows, at least one and at least the kind's MIN_BLOCK_ROWS; the last may
    be shorter.  A batch engine evaluates its rows block by block, so its
    temporaries stay near BLOCK_VALUES values whatever the row count."""
    step = max(MIN_BLOCK_ROWS.get(kind, 1), BLOCK_VALUES // row_values)
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


# ---------------------------------------------------------------------------
# Heap policy
# ---------------------------------------------------------------------------

# glibc's dynamic mmap and trim thresholds return each freed ~400 KB kernel
# temporary to the OS, so the next call of that shape faults its pages back in
# zeroed: a warm mc_bootstrap round took 280k minor faults and 0.42 s of system
# time in 2.5 s.  Fixed thresholds keep freed temporaries in the heap: 32 MiB is
# glibc's largest mmap threshold (64-bit), and at most 64 MiB of freed heap stays
# resident.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt(3) parameter numbers
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20
_heap_kept = False


def keep_heap() -> None:
    """Set the malloc thresholds above once per process, on glibc only."""
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):  # not glibc
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
