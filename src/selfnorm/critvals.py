"""Limit-distribution quantiles for the self-normalized pivot.

The pivot converges to U_q = B_q(1)' V_q^{-1} B_q(1) where B_q is a
q-dimensional standard Brownian motion and V_q integrates the outer product
of its bridge.  No closed form exists, so quantiles are simulated from
discretized Brownian paths and cached as JSON.  The tables for q = 1..6 at
the default grid, seed, replications and alphas ship with the package in
``critvals_default.json``, written by ``selfnorm critvals`` itself, so the
default path simulates nothing.  Nothing here is hand-entered: deleting a
cache and regenerating reproduces identical bytes for the same
(q, grid, reps, seed).
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

try:
    import fcntl
except ImportError:  # no advisory locks: concurrent stores may still race
    fcntl = None

from .core import NumericalError, RngStream, ValidationError, quadform_batch

DEFAULT_GRID = 1000
DEFAULT_SEED = 7654321
DEFAULT_ALPHAS = (0.01, 0.025, 0.05, 0.10)
CACHE_ENV = "SELFNORM_CRITVAL_CACHE"

_CHUNK = 1024
_MAX_RESAMPLE_FRAC = 0.001
_MAX_RETRY_ROUNDS = 8


def default_reps(q: int) -> int:
    """200k replications up to dimension 5, 50k beyond (cost grows with q)."""
    return 200_000 if q <= 5 else 50_000


def default_cache_path() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME", "~/.cache")
    return Path(base).expanduser() / "selfnorm" / "critvals.json"


@dataclass(frozen=True)
class CritvalTable:
    """Simulated upper quantiles of U_q for one (q, grid, reps, seed)."""

    q: int
    grid: int
    reps: int
    seed: int
    quantiles: dict[float, float]
    sample: Optional[np.ndarray] = field(default=None, compare=False)

    def quantile(self, alpha: float) -> float:
        key = _alpha_key(alpha)
        for a, v in self.quantiles.items():
            if _alpha_key(a) == key:
                return v
        raise KeyError(f"alpha {alpha} not in table")


def _alpha_key(alpha: float) -> str:
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    return format(alpha, ".6f")


def u_stat_from_increments(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U statistics for standard-normal increment arrays of shape (m, q, grid).

    The walk value at point i/grid is grid^{-1/2} * (z_1 + ... + z_i); the
    bridge subtracts r * (endpoint); V integrates the bridge outer product by
    a left Riemann sum (the bridge vanishes at both endpoints, so including
    or excluding them is identical).  Exposed for the scale-invariance test:
    multiplying z by any c > 0 leaves U unchanged.
    """
    m, q, grid = z.shape
    walk = np.cumsum(z, axis=2) / np.sqrt(grid)
    endpoint = walk[:, :, -1]
    r = np.arange(1, grid + 1, dtype=np.float64) / grid
    bridge = walk - endpoint[:, :, None] * r
    v = np.einsum("mqg,mpg->mqp", bridge, bridge) / grid
    return quadform_batch(v, endpoint)


def _simulate_chunk(stream: RngStream, rows: int, q: int, grid: int) -> tuple[np.ndarray, np.ndarray]:
    z = stream.generator().standard_normal((rows, q, grid))
    return u_stat_from_increments(z)


def check_table_args(q: int, grid: int, reps: Optional[int]) -> int:
    """Reject an impossible (q, grid, reps); returns reps, defaulted per q."""
    if q < 1:
        raise ValidationError("dimension q must be >= 1")
    if grid < 2 * q:
        raise ValidationError(f"grid {grid} too coarse for dimension {q}")
    if reps is None:
        reps = default_reps(q)
    if reps < 100:
        raise ValidationError("need at least 100 replications")
    return reps


def simulate_uq(
    q: int,
    grid: int = DEFAULT_GRID,
    reps: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    alphas: Iterable[float] = DEFAULT_ALPHAS,
    keep_sample: bool = False,
) -> CritvalTable:
    """Simulate U_q and return its upper quantiles at the requested alphas.

    Deterministic per (q, grid, reps, seed): replications are drawn in fixed
    chunks, each from its own counter-derived stream, so the result does not
    depend on how work is scheduled.  Replications whose V matrix fails the
    positive-definite pivot test (essentially impossible for grid >> q) are
    redrawn; more than 0.1% of them failing aborts.
    """
    reps = check_table_args(q, grid, reps)
    alphas = tuple(sorted(set(float(a) for a in alphas)))
    for a in alphas:
        _alpha_key(a)

    base = RngStream(seed)
    out = np.empty(reps)
    resampled = 0
    pos = 0
    chunk_index = 0
    while pos < reps:
        rows = min(_CHUNK, reps - pos)
        u, ok = _simulate_chunk(base.child("uq", q, grid, chunk_index), rows, q, grid)
        retry = 0
        while not ok.all():
            bad = int((~ok).sum())
            resampled += bad
            retry += 1
            if retry > _MAX_RETRY_ROUNDS or resampled > _MAX_RESAMPLE_FRAC * reps:
                raise NumericalError(
                    f"{resampled} of {reps} bridge covariance matrices were "
                    "not positive definite"
                )
            u_new, ok_new = _simulate_chunk(
                base.child("uq-retry", q, grid, chunk_index, retry), bad, q, grid
            )
            idx = np.flatnonzero(~ok)
            u[idx] = u_new
            ok[idx] = ok_new
        out[pos : pos + rows] = u
        pos += rows
        chunk_index += 1

    quantiles = {
        a: float(np.quantile(out, 1.0 - a, method="linear")) for a in alphas
    }
    return CritvalTable(
        q=q,
        grid=grid,
        reps=reps,
        seed=seed,
        quantiles=quantiles,
        sample=out if keep_sample else None,
    )


# ---------------------------------------------------------------------------
# JSON cache
# ---------------------------------------------------------------------------

def _table_key(q: int, grid: int, reps: int, seed: int) -> str:
    return f"q={q}|grid={grid}|reps={reps}|seed={seed}"


def table_to_json(table: CritvalTable) -> str:
    payload = {
        "q": table.q,
        "grid": table.grid,
        "reps": table.reps,
        "seed": table.seed,
        "quantiles": {_alpha_key(a): v for a, v in sorted(table.quantiles.items())},
    }
    return json.dumps(payload, sort_keys=True)


def _load_cache(path) -> dict:
    """The cache's contents; a missing or unreadable file is an empty cache,
    which the next store overwrites.  ``path`` may be any readable
    ``Path``-like traversable, such as a packaged resource."""
    if not path.is_file():
        return {"version": 1, "tables": {}}
    with path.open("r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError:  # not JSON (or not UTF-8)
            data = None
    if not isinstance(data, dict) or not isinstance(data.get("tables"), dict):
        return {"version": 1, "tables": {}}
    return data


def _store_cache(path: Path, data: dict) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def _shipped_tables() -> dict:
    """The default tables shipped with the package.  Never written at run
    time, so one read serves the process; callers must not mutate it."""
    return _load_cache(importlib.resources.files(__package__) / "critvals_default.json")["tables"]


def _add_table(path: Path, key: str, entry: dict) -> None:
    """Store one table, keeping every table another process stored since
    this one last read the cache: re-read and merge under an exclusive lock
    on the sidecar ``<path>.lock``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.with_name(path.name + ".lock"), "a") as lock:
        if fcntl is not None:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        data = _load_cache(path)
        data["tables"][key] = entry
        _store_cache(path, data)


def load_table(
    q: int,
    grid: int = DEFAULT_GRID,
    reps: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    alphas: Iterable[float] = DEFAULT_ALPHAS,
    cache_path: Optional[Path] = None,
) -> CritvalTable:
    """Fetch a quantile table: the user cache first, then the tables shipped
    with the package, then simulation, whose result goes to the user cache.

    A table missing some requested alpha is regenerated with the union of
    alphas; the shared seed keeps previously stored quantiles bit-identical.
    The shipped file is only read.
    """
    if reps is None:
        reps = default_reps(q)
    path = Path(cache_path) if cache_path is not None else default_cache_path()
    data = _load_cache(path)
    key = _table_key(q, grid, reps, seed)
    want = tuple(sorted(set(float(a) for a in alphas)))
    entry = data["tables"].get(key)
    if entry is None:
        entry = _shipped_tables().get(key)
    if entry is not None:
        have = {k: float(v) for k, v in entry["quantiles"].items()}
        if all(_alpha_key(a) in have for a in want):
            quantiles = {float(k): v for k, v in have.items()}
            return CritvalTable(q, grid, reps, seed, quantiles)
        want = tuple(sorted(set(want) | {float(k) for k in have}))
    table = simulate_uq(q, grid, reps, seed, alphas=want)
    _add_table(path, key, json.loads(table_to_json(table)))
    return table


def get_quantile(
    q: int,
    alpha: float,
    grid: int = DEFAULT_GRID,
    reps: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    cache_path: Optional[Path] = None,
) -> float:
    """Upper alpha quantile of U_q from the cache (simulating if needed)."""
    alphas = set(DEFAULT_ALPHAS) | {float(alpha)}
    return load_table(q, grid, reps, seed, alphas, cache_path).quantile(alpha)
