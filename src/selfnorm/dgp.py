"""Data-generating processes for the Monte Carlo studies.

White-noise-with-structure models for the size tables (iid families,
one-dependent and heteroscedastic products, a non-martingale-difference
white noise, GARCH and bilinear noise), linear AR/MA models with three
innovation flavors for the coverage tables, and AR(1) models with dependent
innovations for the power tables.  Each noise family is one row of the
``_NOISES`` table: how a raw row is drawn, how many raw values beyond the
series length it takes, the map from raw rows to the noise, and its
stationary variance.  A model filters its noise when it has AR or MA
coefficients; such models discard a 1000-observation burn-in.  Every
replication draws from its own counter-seeded stream, so batches are
reproducible row by row; a batch's generators are seeded together by
core.generators, with the states RngStream.generator() would give.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import RngStream, ValidationError, generators
from .estimators import EstimatorSpec, fourier_coeffs

BURN_IN = 1000
_BLOCK = 32  # steps of the AR scan filtered by one product

# periodic scale pattern for the heteroscedastic white noise
_HETERO_PATTERN = np.array([1, 1, 1, 2, 3, 1, 1, 1, 1, 2, 4, 6], dtype=np.float64)

_GARCH_OMEGA = 0.001
_GARCH_ALPHA = 0.02
_GARCH_BETA = 0.8
_GARCH_VAR = _GARCH_OMEGA / (1.0 - _GARCH_ALPHA - _GARCH_BETA)

_ARCH_A = 0.5
_ARCH_B = 0.3
_ARCH_VAR = _ARCH_B / (1.0 - _ARCH_A)  # unconditional variance 0.6

_T5_UNIT_SCALE = math.sqrt(3.0 / 5.0)  # t(5) has variance 5/3


@dataclass(frozen=True)
class ModelSpec:
    """Parsed model: a noise family, filtered when ar or ma is set."""

    name: str
    noise: str = "normal"  # a key of _NOISES
    ar: tuple[float, ...] = ()
    ma: tuple[float, ...] = ()
    scale: float = 1.0  # multiplies the innovation series before filtering


_NOISE_NAMES = {
    "iidn": "normal",
    "t6": "t6",
    "lognorm": "lognorm",
    "onedep": "onedep",
    "hetero": "hetero",
    "nonmds": "nonmds",
    "garch": "garch",
    "bilinear": "bilinear",
}

_M_INNOVATIONS = {
    # innovation noise and scale for M1..M9 (unit-variance t5 and ARCH
    # flavors carry their written scale factors)
    "1": ("normal", 1.0),
    "2": ("t5u", math.sqrt(0.6)),
    "3": ("archu", 1.0),
}


def parse_model(name: str) -> ModelSpec:
    """Parse a model name: iidn, t6, lognorm, onedep, hetero, nonmds, garch,
    bilinear, m1..m9, or ar1:RHO:INNOV with INNOV in {normal, garch,
    bilinear}."""
    text = name.strip().lower()
    if text in _NOISE_NAMES:
        return ModelSpec(text, noise=_NOISE_NAMES[text])
    if text.startswith("m") and len(text) == 2 and text[1].isdigit():
        idx = int(text[1])
        if 1 <= idx <= 9:
            noise, scale = _M_INNOVATIONS[str((idx - 1) % 3 + 1)]
            if idx <= 3:
                return ModelSpec(text, noise=noise, ar=(0.7,), scale=scale)
            if idx <= 6:
                return ModelSpec(text, noise=noise, ma=(0.8,), scale=scale)
            return ModelSpec(text, noise=noise, ar=(0.6, 0.35), scale=scale)
    if text.startswith("ar1:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError("ar1 models are written ar1:RHO:INNOV")
        try:
            rho = float(parts[1])
        except ValueError:
            raise ValidationError(f"bad autoregressive coefficient {parts[1]!r}") from None
        if not -1.0 < rho < 1.0:
            raise ValidationError(f"ar1 coefficient {rho} outside (-1, 1)")
        innov = parts[2]
        if innov not in ("normal", "garch", "bilinear"):
            raise ValidationError("ar1 innovation must be normal, garch or bilinear")
        return ModelSpec(text, noise=innov, ar=(rho,))
    raise ValidationError(f"unknown model {name!r}")


# ---------------------------------------------------------------------------
# Noise generators (vectorized across rows)
# ---------------------------------------------------------------------------

def _arch_series(u: np.ndarray) -> np.ndarray:
    """e_t = u_t sqrt(a e_{t-1}^2 + b), started from e_0 = 0."""
    out = np.empty_like(u)
    prev = np.zeros(u.shape[0])
    for t in range(u.shape[1]):
        prev = u[:, t] * np.sqrt(_ARCH_A * prev * prev + _ARCH_B)
        out[:, t] = prev
    return out


def _garch_series(u: np.ndarray) -> np.ndarray:
    """GARCH(1,1) with (omega, alpha, beta) = (0.001, 0.02, 0.8), variance
    recursion started at its stationary value."""
    out = np.empty_like(u)
    sig2 = np.full(u.shape[0], _GARCH_VAR)
    for t in range(u.shape[1]):
        x = u[:, t] * np.sqrt(sig2)
        out[:, t] = x
        sig2 = _GARCH_OMEGA + _GARCH_ALPHA * x * x + _GARCH_BETA * sig2
    return out


def _bilinear_series(u: np.ndarray) -> np.ndarray:
    """X_t = u_t + 0.5 u_{t-1} X_{t-2}, zero-initialized."""
    out = np.empty_like(u)
    cols = u.shape[1]
    out[:, 0] = u[:, 0]
    if cols > 1:
        out[:, 1] = u[:, 1]
    for t in range(2, cols):
        out[:, t] = u[:, t] + 0.5 * u[:, t - 1] * out[:, t - 2]
    return out


def _one_dependent(u: np.ndarray) -> np.ndarray:
    return u[:, 1:] * u[:, :-1]


_normal = np.random.Generator.standard_normal


class _Noise(NamedTuple):
    draw: Callable[[np.random.Generator, int], np.ndarray]  # one raw row of the given length
    extra: int  # raw values per row beyond the noise length
    transform: Optional[Callable[[np.ndarray], np.ndarray]]  # raw rows -> noise; None: the raw rows
    variance: Optional[float]  # stationary variance; None: there is none


_NOISES = {
    "normal": _Noise(_normal, 0, None, 1.0),
    "t6": _Noise(lambda g, size: g.standard_t(6, size=size), 0, None, 1.5),  # t(6) variance 6/4
    "t5u": _Noise(lambda g, size: g.standard_t(5, size=size) * _T5_UNIT_SCALE, 0, None, 1.0),
    "lognorm": _Noise(lambda g, size: np.exp(g.standard_normal(size)) - math.exp(0.5), 0, None,
                      math.e * (math.e - 1.0)),
    "onedep": _Noise(_normal, 1, _one_dependent, 1.0),
    "hetero": _Noise(
        _normal, 1, lambda u: np.resize(_HETERO_PATTERN, u.shape[1] - 1) * _one_dependent(u), None
    ),
    # u_t u_{t+1} (u_t + u_{t+2} + 1): E[u^2 (u + w + 1)^2] = 5 for independent standard normals
    "nonmds": _Noise(_normal, 2, lambda u: u[:, :-2] * u[:, 1:-1] * (u[:, :-2] + u[:, 2:] + 1.0), 5.0),
    "garch": _Noise(_normal, 0, _garch_series, _GARCH_VAR),
    "bilinear": _Noise(_normal, 0, _bilinear_series, 4.0 / 3.0),
    # the unit-variance map writes over the raw rows, which the series no longer needs
    "archu": _Noise(_normal, 0, lambda u: np.divide(_arch_series(u), math.sqrt(_ARCH_VAR), out=u), 1.0),
}


def _family(noise: str) -> _Noise:
    try:
        return _NOISES[noise]
    except KeyError:
        raise ValidationError(f"unknown noise {noise!r}") from None


def _noise_matrix(noise: str, cols: int, streams: Sequence[RngStream]) -> np.ndarray:
    """Draw the (rows, cols) noise matrix, one stream per row, its generators
    seeded in one pass."""
    family = _family(noise)
    u = np.empty((len(streams), cols + family.extra))
    for row, g in zip(u, generators(streams)):
        row[:] = family.draw(g, u.shape[1])
    return u if family.transform is None else family.transform(u)


def generate_batch(model: ModelSpec | str, n: int, streams: Sequence[RngStream]) -> np.ndarray:
    """One series per stream, stacked as rows of an (B, n) matrix."""
    spec = parse_model(model) if isinstance(model, str) else model
    if n < 2:
        raise ValidationError("need n >= 2")
    if not (spec.ar or spec.ma):
        return _noise_matrix(spec.noise, n, streams)
    x = _noise_matrix(spec.noise, n + BURN_IN, streams)
    if not spec.ar:  # the last n outputs of an MA filter read only the last n + q inputs
        x = x[:, -(n + len(spec.ma)):]
    if spec.scale != 1.0:
        x *= spec.scale
    if spec.ma:
        theta = np.asarray(spec.ma)
        acc = x[:, len(theta):].copy()
        for j, th in enumerate(theta, start=1):
            acc += th * x[:, len(theta) - j : x.shape[1] - j]
        x = acc
    if spec.ar:
        return _ar_filter(x, spec.ar, n)
    return x[:, -n:]


def _dot(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a (..., j) times m (k, j)', in numpy's loops: BLAS sums vary by CPU."""
    return np.einsum("...j,kj->...k", a, m)


@functools.lru_cache(maxsize=None)
def _ar_block_maps(ar: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(T, G) with one block of the AR recursion x_t = e_t + sum_i ar[i]
    x_{t-1-i} = _dot(inputs, T) + _dot(state, G): T the impulse response's
    Toeplitz matrix, state the p outputs before the block, oldest first."""
    p = len(ar)
    # rows: the response to each of the p state values, then to a unit impulse
    y = np.zeros((p + 1, p + _BLOCK))
    y[:, :p] = np.eye(p + 1, p)
    y[p, p] = 1.0
    for t in range(p, p + _BLOCK):
        for i, a in enumerate(ar):
            y[:, t] += a * y[:, t - 1 - i]
    lag = np.arange(_BLOCK)
    toeplitz = np.tril(y[p, p:][np.abs(lag[:, None] - lag)])
    g = y[:p, p:].T.copy()
    toeplitz.flags.writeable = g.flags.writeable = False  # shared by the cache
    return toeplitz, g


def _ar_filter(e: np.ndarray, ar: tuple[float, ...], n: int) -> np.ndarray:
    """The last n outputs of the AR recursion driven by the rows of e, from a
    zero start, as a blocked scan (Blelloch 1990): a burn-in block yields
    only the p outputs that carry into the next one.  e is made C-ordered
    first: einsum's sums follow the memory layout, and so would the bits."""
    e = np.ascontiguousarray(e)
    t_map, g_map = _ar_block_maps(ar)
    rows, p, kept = e.shape[0], len(ar), -(-n // _BLOCK)
    burn = e.shape[1] - kept * _BLOCK
    lead = burn % _BLOCK  # a short first block, zero-padded on the left
    out = _dot(e[:, burn:].reshape(rows, kept, _BLOCK), t_map)
    burn_tails = _dot(e[:, lead:burn].reshape(rows, -1, _BLOCK), t_map[-p:])
    tails = np.concatenate([burn_tails, out[:, :-1, -p:]], axis=1)
    states = [_dot(e[:, :lead], t_map[-p:, _BLOCK - lead:])]
    for b in range(tails.shape[1]):
        states.append(tails[:, b] + _dot(states[-1], g_map[-p:]))
    out += _dot(np.stack(states[-kept:], axis=1), g_map)
    return out.reshape(rows, -1)[:, -n:]


def generate(model: ModelSpec | str, n: int, rng: RngStream) -> np.ndarray:
    """One series of length n from the named model."""
    return generate_batch(model, n, [rng])[0]


# ---------------------------------------------------------------------------
# Population values for coverage targets
# ---------------------------------------------------------------------------

def autocov_sequence(model: ModelSpec | str, kmax: int) -> np.ndarray:
    """Population autocovariances gamma(0..kmax).

    Covers white-noise models with known variance and AR(1)/AR(2)/MA(q)
    filters of white innovations (the covariance structure only needs the
    innovations to be white).  Dot products run in numpy's einsum loops, not
    BLAS, so the truths have the same bits whichever CPU kernel BLAS picks.
    """
    spec = parse_model(model) if isinstance(model, str) else model
    var = _family(spec.noise).variance
    if var is None:
        raise ValidationError(f"{spec.noise} noise has no stationary autocovariance")
    s2 = var * spec.scale * spec.scale
    if not spec.ar:  # white noise is an MA(0) filter of itself
        theta = np.concatenate(([1.0], np.asarray(spec.ma)))
        g = np.zeros(kmax + 1)
        for k in range(min(kmax, len(theta) - 1) + 1):
            g[k] = s2 * float(np.einsum("i,i->", theta[k:], theta[: len(theta) - k]))
        return g
    if not spec.ma:
        if len(spec.ar) == 1:
            a = spec.ar[0]
            g0 = s2 / (1.0 - a * a)
            return g0 * np.asarray([a ** k for k in range(kmax + 1)])
        if len(spec.ar) == 2:
            a1, a2 = spec.ar
            rho1 = a1 / (1.0 - a2)
            rho2 = a2 + a1 * rho1
            g0 = s2 / (1.0 - a1 * rho1 - a2 * rho2)
            g = np.empty(kmax + 1)
            g[0] = g0
            if kmax >= 1:
                g[1] = rho1 * g0
            for k in range(2, kmax + 1):
                g[k] = a1 * g[k - 1] + a2 * g[k - 2]
            return g
    raise ValidationError(f"no closed-form autocovariances for model {spec.name!r}")


def true_value(model: ModelSpec | str, target: EstimatorSpec | str):
    """Population value of an estimator target under a model.

    Means and medians are 0 for every symmetric model (the demeaned lognormal
    is the one asymmetric case); second-order targets come from the closed
    autocovariance sequence; the LAD autoregression target is the AR
    coefficient vector itself.
    """
    spec = parse_model(model) if isinstance(model, str) else model
    est = EstimatorSpec.parse(target) if isinstance(target, str) else target
    if est.kind == "mean":
        return 0.0
    if est.kind == "median":
        if spec.noise == "lognorm" and not (spec.ar or spec.ma):
            return 1.0 - math.exp(0.5)  # median(exp Z) = 1, then demeaned
        return 0.0
    if est.kind == "ladar":
        if not spec.ar or spec.ma or len(spec.ar) != est.order:
            raise ValidationError(
                f"model {spec.name!r} is not an AR({est.order}) process"
            )
        return np.asarray(spec.ar, dtype=np.float64)
    # second-order functionals: series converge geometrically, 2000 lags is
    # far past double precision for every supported model
    kmax = 2000
    g = autocov_sequence(spec, kmax)
    if est.kind == "acov":
        return float(g[est.lag])
    if est.kind == "acf":
        return float(g[est.lag] / g[0])
    coef = fourier_coeffs(est.x, kmax + 1)
    total = float(np.einsum("i,i->", g, coef))
    if est.kind == "specmean":
        return total
    return total / (g[0] / 2.0)
