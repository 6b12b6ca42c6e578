"""Data-generating processes for the Monte Carlo studies.

White-noise-with-structure models for the size tables (iid families,
one-dependent and heteroscedastic products, a non-martingale-difference
white noise, GARCH and bilinear noise), linear AR/MA models with three
innovation flavors for the coverage tables, and AR(1) models with dependent
innovations for the power tables.  All recursive models discard a
1000-observation burn-in; every replication draws from its own counter-seeded
stream, so batches are reproducible row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import RngStream, ValidationError
from .estimators import EstimatorSpec, fourier_coeffs

BURN_IN = 1000

# periodic scale pattern for the heteroscedastic white noise
_HETERO_PATTERN = np.array([1, 1, 1, 2, 3, 1, 1, 1, 1, 2, 4, 6], dtype=np.float64)

_GARCH_OMEGA = 0.001
_GARCH_ALPHA = 0.02
_GARCH_BETA = 0.8

_ARCH_A = 0.5
_ARCH_B = 0.3
_ARCH_VAR = _ARCH_B / (1.0 - _ARCH_A)  # unconditional variance 0.6

_T5_UNIT_SCALE = math.sqrt(3.0 / 5.0)  # t(5) has variance 5/3


@dataclass(frozen=True)
class ModelSpec:
    """Parsed model: either a noise family or a linear filter of one."""

    name: str
    kind: str  # "noise" or "linear"
    noise: str = "normal"  # normal | t6 | t5u | lognorm | onedep | hetero |
    #                        nonmds | garch | bilinear | archu
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
        return ModelSpec(text, "noise", noise=_NOISE_NAMES[text])
    if text.startswith("m") and len(text) == 2 and text[1].isdigit():
        idx = int(text[1])
        if 1 <= idx <= 9:
            noise, scale = _M_INNOVATIONS[str((idx - 1) % 3 + 1)]
            if idx <= 3:
                return ModelSpec(text, "linear", noise=noise, ar=(0.7,), scale=scale)
            if idx <= 6:
                return ModelSpec(text, "linear", noise=noise, ma=(0.8,), scale=scale)
            return ModelSpec(text, "linear", noise=noise, ar=(0.6, 0.35), scale=scale)
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
        return ModelSpec(text, "linear", noise=innov, ar=(rho,))
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
    sig2 = np.full(u.shape[0], _GARCH_OMEGA / (1.0 - _GARCH_ALPHA - _GARCH_BETA))
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


def _noise_matrix(noise: str, cols: int, streams: Sequence[RngStream]) -> np.ndarray:
    """Draw the (rows, cols) innovation matrix, one stream per row."""
    draws = []
    for s in streams:
        g = s.generator()
        if noise in ("normal", "garch", "bilinear", "archu", "onedep", "hetero", "nonmds"):
            draws.append(g.standard_normal(_raw_cols(noise, cols)))
        elif noise == "t6":
            draws.append(g.standard_t(6, size=cols))
        elif noise == "t5u":
            draws.append(g.standard_t(5, size=cols) * _T5_UNIT_SCALE)
        elif noise == "lognorm":
            draws.append(np.exp(g.standard_normal(cols)) - math.exp(0.5))
        else:
            raise ValidationError(f"unknown noise {noise!r}")
    u = np.vstack(draws)
    if noise == "garch":
        return _garch_series(u)
    if noise == "bilinear":
        return _bilinear_series(u)
    if noise == "archu":
        return _arch_series(u) / math.sqrt(_ARCH_VAR)
    if noise == "onedep":
        return u[:, 1:] * u[:, :-1]
    if noise == "hetero":
        reps = -(-cols // _HETERO_PATTERN.shape[0])
        s = np.tile(_HETERO_PATTERN, reps)[:cols]
        return s[None, :] * (u[:, 1:] * u[:, :-1])
    if noise == "nonmds":
        a, b, c = u[:, :-2], u[:, 1:-1], u[:, 2:]
        return a * b * (a + c + 1.0)
    return u


def _raw_cols(noise: str, cols: int) -> int:
    if noise in ("onedep", "hetero"):
        return cols + 1
    if noise == "nonmds":
        return cols + 2
    return cols


def generate_batch(model: ModelSpec | str, n: int, streams: Sequence[RngStream]) -> np.ndarray:
    """One series per stream, stacked as rows of an (B, n) matrix."""
    spec = parse_model(model) if isinstance(model, str) else model
    if n < 2:
        raise ValidationError("need n >= 2")
    if spec.kind == "noise":
        return _noise_matrix(spec.noise, n, streams)
    cols = n + BURN_IN
    e = _noise_matrix(spec.noise, cols, streams)
    if spec.scale != 1.0:
        e = e * spec.scale
    x = e
    if spec.ma:
        theta = np.asarray(spec.ma)
        acc = x[:, len(theta):].copy()
        for j, th in enumerate(theta, start=1):
            acc += th * x[:, len(theta) - j : x.shape[1] - j]
        x = acc
    if spec.ar:
        from scipy.signal import lfilter  # costs more to import than to run

        denom = np.concatenate(([1.0], -np.asarray(spec.ar)))
        x = lfilter([1.0], denom, x, axis=1)
    return x[:, -n:]


def generate(model: ModelSpec | str, n: int, rng: RngStream) -> np.ndarray:
    """One series of length n from the named model."""
    return generate_batch(model, n, [rng])[0]


# ---------------------------------------------------------------------------
# Population values for coverage targets
# ---------------------------------------------------------------------------

_WHITE_VARIANCES = {
    "normal": 1.0,
    "t6": 1.5,  # t(6) variance 6/4
    "t5u": 1.0,
    "archu": 1.0,
    "lognorm": math.e * (math.e - 1.0),
    "onedep": 1.0,
    "garch": _GARCH_OMEGA / (1.0 - _GARCH_ALPHA - _GARCH_BETA),
    "bilinear": 4.0 / 3.0,
}


def _innovation_variance(spec: ModelSpec) -> float:
    if spec.noise not in _WHITE_VARIANCES:
        raise ValidationError(f"no closed-form variance for noise {spec.noise!r}")
    return _WHITE_VARIANCES[spec.noise] * spec.scale * spec.scale


def autocov_sequence(model: ModelSpec | str, kmax: int) -> np.ndarray:
    """Population autocovariances gamma(0..kmax).

    Covers white-noise models with known variance and AR(1)/AR(2)/MA(q)
    filters of white innovations (the covariance structure only needs the
    innovations to be white).
    """
    spec = parse_model(model) if isinstance(model, str) else model
    if spec.kind == "noise":
        if spec.noise == "hetero":
            raise ValidationError("heteroscedastic noise has no stationary autocovariance")
        var = _WHITE_VARIANCES.get(spec.noise)
        if var is None:
            if spec.noise == "nonmds":
                var = 5.0  # E[u^2 (u + w + 1)^2] for independent standard normals
            else:
                raise ValidationError(f"no autocovariances for {spec.noise!r}")
        g = np.zeros(kmax + 1)
        g[0] = var
        return g
    s2 = _innovation_variance(spec)
    if spec.ma and not spec.ar:
        theta = np.concatenate(([1.0], np.asarray(spec.ma)))
        g = np.zeros(kmax + 1)
        for k in range(min(kmax, len(theta) - 1) + 1):
            g[k] = s2 * float(theta[k:] @ theta[: len(theta) - k])
        return g
    if spec.ar and not spec.ma:
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
        if spec.kind == "noise" and spec.noise == "lognorm":
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
    coef = fourier_coeffs(est.phi(), kmax + 1)
    total = float(g @ coef)
    if est.kind == "specmean":
        return total
    return total / (g[0] / 2.0)
