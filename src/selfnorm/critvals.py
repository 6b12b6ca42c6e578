"""Limit-distribution quantiles for the self-normalized pivot.

The pivot converges to U_q = B_q(1)' V_q^{-1} B_q(1) where B_q is a
q-dimensional standard Brownian motion and V_q integrates the outer product
of its bridge.  No closed form exists, so quantiles are simulated, each draw
the statistic itself on Gaussian data: the wn_batch pivot of Gaussian
running means, whose Gram uses no BLAS, so a table has the same bytes on
every CPU.  Tables are cached as JSON; those for q = 1..6 at the default
grid, seed, replications and alphas ship with the package in
``critvals_default.json``, written by ``selfnorm critvals`` itself, so the
default path simulates nothing.  Nothing here is hand-entered: deleting a
cache and regenerating reproduces identical bytes for the same
(q, grid, reps, seed).
"""

from __future__ import annotations

import errno
import functools
import importlib.resources
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

try:
    import fcntl
except ImportError:  # no advisory locks: concurrent stores may still race
    fcntl = None

from .core import NumericalError, RngStream, ValidationError, keep_heap, row_blocks
from .core import quadform_batch  # noqa: F401  (bound by name in bench/spans.py)
from .inference import wn_batch

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
    """Simulated upper quantiles of U_q for one (q, grid, reps, seed), keyed
    by table_alpha; source is the file load_table read the table from or
    stored it in, None when a simulated table could not be stored."""

    q: int
    grid: int
    reps: int
    seed: int
    quantiles: dict[float, float]
    source: Optional[str] = field(default=None, compare=False)

    def quantile(self, alpha: float) -> float:
        return self.quantiles[table_alpha(alpha)]

    def to_dict(self) -> dict:
        """The entry a cache file stores, quantiles keyed by six-decimal text."""
        return {
            "q": self.q,
            "grid": self.grid,
            "reps": self.reps,
            "seed": self.seed,
            "quantiles": {f"{a:.6f}": v for a, v in sorted(self.quantiles.items())},
        }


def check_probability(value: float, name: str = "alpha") -> float:
    """Reject an alpha or level outside (0, 1)."""
    if not 0.0 < value < 1.0:
        raise ValidationError(f"{name} must be in (0, 1), got {value}")
    return value


def table_alpha(alpha: float) -> float:
    """alpha rounded to six decimals, the key every table stores it under."""
    key = round(float(check_probability(alpha)), 6)
    if key in (0.0, 1.0):
        raise ValidationError(f"alpha {alpha!r} rounds to {key:g} at six decimals")
    return key


def u_stat_from_increments(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, ok) for standard-normal increment arrays of shape (m, q, grid): the
    statistic itself on Gaussian data, the wn_batch pivot (theta0 = 0) of the
    running means.  Exposed for the scale-invariance test: multiplying z by
    any c > 0 leaves U unchanged.
    """
    grid = z.shape[2]
    means = np.cumsum(z, axis=2) / np.arange(1, grid + 1)
    return wn_batch(means.transpose(0, 2, 1), 1, grid)[1:3]


def _simulate_chunk(stream: RngStream, rows: int, q: int, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """(U, ok) for rows draws from the stream's one generator, taken in the
    row blocks of core.row_blocks at q * grid normals per draw.
    standard_normal yields the same numbers whether called once or piece by
    piece, so the block size changes no draw, only the peak memory."""
    gen = stream.generator()
    parts = [u_stat_from_increments(gen.standard_normal((b.stop - b.start, q, grid)))
             for b in row_blocks(rows, q * grid, "uq")]
    u, ok = zip(*parts)
    return np.concatenate(u), np.concatenate(ok)


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


def simulate_draws(q: int, grid: int, reps: Optional[int], seed: int) -> np.ndarray:
    """reps draws of U_q (reps None: default_reps(q)), in chunk order.

    Deterministic per (q, grid, reps, seed): replications are drawn in fixed
    chunks, each from its own counter-derived stream, so the result does not
    depend on how work is scheduled.  Replications whose V matrix fails the
    positive-definite pivot test (essentially impossible for grid >> q) are
    redrawn; more than 0.1% of them failing aborts.
    """
    reps = check_table_args(q, grid, reps)
    keep_heap()  # the blocks' freed temporaries would otherwise be faulted in again
    base = RngStream(seed)
    out = np.empty(reps)
    resampled = 0
    for chunk_index, pos in enumerate(range(0, reps, _CHUNK)):
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
    return out


def simulate_uq(
    q: int,
    grid: int = DEFAULT_GRID,
    reps: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    alphas: Iterable[float] = DEFAULT_ALPHAS,
) -> CritvalTable:
    """The upper quantiles of simulate_draws at the requested alphas, each
    taken at its table_alpha."""
    alphas = sorted({table_alpha(a) for a in alphas})
    out = simulate_draws(q, grid, reps, seed)
    quantiles = {
        a: float(np.quantile(out, 1.0 - a, method="linear")) for a in alphas
    }
    return CritvalTable(q=q, grid=grid, reps=out.size, seed=seed, quantiles=quantiles)


# ---------------------------------------------------------------------------
# JSON cache
# ---------------------------------------------------------------------------

def _table_key(q: int, grid: int, reps: int, seed: int) -> str:
    return f"q={q}|grid={grid}|reps={reps}|seed={seed}"


def _load_cache(path) -> dict:
    """The cache's contents; a missing or unreadable file is an empty cache,
    which the next store overwrites.  ``path`` may be any readable
    ``Path``-like traversable, such as a packaged resource."""
    if not path.is_file():
        return {"version": 1, "tables": {}}
    try:
        with path.open("r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):  # unreadable, not JSON or not UTF-8
        data = None
    if not isinstance(data, dict) or not isinstance(data.get("tables"), dict):
        return {"version": 1, "tables": {}}
    return data


def _store_cache(path: Path, data: dict) -> None:
    import tempfile  # only a cache miss writes; a lookup never needs it

    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, indent=1)
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def _shipped_tables() -> tuple[str, dict]:
    """The file of default tables shipped with the package, and its tables.
    Never written at run time, so one read serves the process; callers must
    not mutate the tables."""
    path = importlib.resources.files(__package__) / "critvals_default.json"
    return str(path), _load_cache(path)["tables"]


def _add_table(path: Path, key: str, entry: dict) -> None:
    """Store one table, keeping every table another process stored since
    this one last read the cache: re-read and merge under an exclusive lock
    on the sidecar ``<path>.lock``."""
    if path.is_dir():  # its sidecar would land in the parent directory
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
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
    with the package, then simulation, whose result goes to the user cache;
    a cache that cannot be written gets a note on stderr instead.

    A table missing some requested alpha is regenerated with the union of
    alphas; the shared seed keeps previously stored quantiles bit-identical.
    The shipped file is only read.
    """
    if reps is None:
        reps = default_reps(q)
    path = Path(cache_path) if cache_path is not None else default_cache_path()
    data = _load_cache(path)
    key = _table_key(q, grid, reps, seed)
    want = {table_alpha(a) for a in alphas}
    entry, source = data["tables"].get(key), str(path)
    if entry is None:
        source, shipped = _shipped_tables()
        entry = shipped.get(key)
    if entry is not None:
        have = {float(k): float(v) for k, v in entry["quantiles"].items()}
        if want <= have.keys():
            return CritvalTable(q, grid, reps, seed, have, source=source)
        want |= have.keys()
    table = simulate_uq(q, grid, reps, seed, alphas=want)
    try:
        _add_table(path, key, table.to_dict())
    except OSError as exc:  # the answer stands; only the cache misses it
        print(f"selfnorm: critical values not cached: {exc}", file=sys.stderr)
        return table
    return replace(table, source=str(path))


def get_quantile(q: int, alpha: float) -> float:
    """Upper alpha quantile of U_q from the default table (grid, reps, seed),
    simulated if neither cache has it."""
    return load_table(q, alphas=(*DEFAULT_ALPHAS, alpha)).quantile(alpha)
