"""Monte Carlo experiments: test size and size-adjusted power, interval
coverage, and block-bootstrap sweeps.

A named study is an ordered list of cells, each one call of a runner
(run_size, run_power, run_coverage or run_block_sweep) whose rows are
appended in order.  A replication's self-normalized region covers the truth
exactly when its pivot at the truth is at most the U_q quantile, for every
estimator dimension q.

Replications are counter-seeded (one child stream per replication index), so
results are bit-identical no matter how the work is chunked or how many
worker processes run the chunks.  A chunk generates its series whole, then
evaluates the estimator kernels, self-normalizers, non-correlation statistics
and efficient variances in the row blocks of core.row_blocks, at n values per
row, so its peak memory stays near that rule's bound whatever n; the kernels
are row by row, so the blocks change no bit.  Each experiment writes rows
with a fixed column set so every study lands in the same CSV shape.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from functools import partial
from typing import IO, Callable, Optional, Sequence

import numpy as np

from .bootstrap import MbbConfig, bootstrap_suite, suite_intervals
from .core import (
    NumericalError,
    RngStream,
    ValidationError,
    chi2_quantile,
    keep_heap,
    normal_quantile,
    row_blocks,
    stream_index_for,
)
from .critvals import get_quantile
from .dgp import generate_batch, parse_model, true_value
from .estimators import (
    EstimatorSpec,
    batch_prefix_values,
    prefix_lad_ar,  # noqa: F401  (bound by name in bench/spans.py)
)
from .inference import (
    sn_half_width,
    sn_pivot,  # noqa: F401  (bound by name in bench/spans.py)
    wn_batch as wn_scalar_batch,  # alias bound by name in bench/spans.py
)
from .noncorr import (
    efficient_ci,  # noqa: F401  (bound by name in bench/spans.py)
    efficient_variance_batch,
    lobato_stat_batch,
    qtilde_stat,  # noqa: F401  (bound by name in bench/spans.py)
    qtilde_stat_batch,
    sn_noncorr_stat_batch,
)

_CHUNK_REPS = 200  # fixed chunk size keeps chunk boundaries worker-independent



@dataclass(frozen=True)
class ExperimentRow:
    model: str
    n: int
    target: str
    method: str
    level_or_alpha: float
    value_pct: float
    se_pct: float
    mean_width: float = float("nan")
    block_length: Optional[int] = None

    def csv_fields(self) -> list:
        width = "" if math.isnan(self.mean_width) else f"{self.mean_width:.6g}"
        block = "" if self.block_length is None else str(self.block_length)
        return [
            self.model,
            str(self.n),
            self.target,
            self.method,
            f"{self.level_or_alpha:.6g}",
            f"{self.value_pct:.4f}",
            f"{self.se_pct:.4f}",
            width,
            block,
        ]


CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRow))


def write_csv(rows: Sequence[ExperimentRow], sink: IO[str], comments: Sequence[str] = ()) -> None:
    for line in comments:
        sink.write(f"# {line}\n")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.csv_fields())


def _rate_se(p_fraction: float, reps: int) -> float:
    return 100.0 * math.sqrt(p_fraction * (1.0 - p_fraction) / reps)


def _rate_row(model, n, target, method, level_or_alpha, hits, widths=None, block=None):
    """The ExperimentRow of one cell: the hit rate of its replications in
    percent, with its binomial standard error, and the mean of widths if
    given (otherwise mean_width keeps the dataclass default)."""
    p = float(np.mean(hits))
    width = {} if widths is None else {"mean_width": float(np.mean(widths))}
    return ExperimentRow(
        model, n, target, method, level_or_alpha, 100.0 * p, _rate_se(p, len(hits)),
        block_length=block, **width,
    )


# ---------------------------------------------------------------------------
# Chunked replication engine
# ---------------------------------------------------------------------------

def _chunk_bounds(reps: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _CHUNK_REPS, reps)) for lo in range(0, reps, _CHUNK_REPS)]


def _run_chunks(fn, reps: int, workers: int) -> dict:
    keep_heap()
    bounds = _chunk_bounds(reps)
    if workers <= 1 or len(bounds) == 1:
        parts = [fn(lo, hi) for lo, hi in bounds]
    else:
        # loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        los, his = zip(*bounds)
        with ProcessPoolExecutor(max_workers=workers, initializer=keep_heap) as pool:
            parts = list(pool.map(fn, los, his))
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _rep_streams(seed: int, lo: int, hi: int) -> list[RngStream]:
    return RngStream(seed).children("rep", range(lo, hi))


def _by_row_blocks(x: np.ndarray, kind: str, block) -> dict:
    """block(rows, bad) on the row blocks of x, core.row_blocks at n values
    per row, its arrays concatenated in row order.  block adds the failed
    rows of each of its checks to bad, {message: count}, always in one order;
    the first message with a count raises one NumericalError for all of x."""
    bad: dict[str, int] = {}
    parts = [block(x[b], bad) for b in row_blocks(*x.shape, kind)]
    for what, count in bad.items():
        if count:
            raise NumericalError(f"{count} {what}")
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _passed(bad: dict, what: str, ok: np.ndarray) -> bool:
    """Add the rows ok marks failed to bad[what]; True when there are none."""
    count = int(np.count_nonzero(~ok))
    bad[what] = bad.get(what, 0) + count
    return count == 0


def _test_stats_chunk(model: str, n: int, ks: tuple, seed: int, lo: int, hi: int) -> dict:
    x = generate_batch(model, n, _rep_streams(seed, lo, hi))

    def block(rows: np.ndarray, bad: dict) -> dict:
        out = {}
        for k in ks:
            # looked up per call: the traced benchmark run rebinds these names
            stats = (lobato_stat_batch, sn_noncorr_stat_batch, qtilde_stat_batch)
            for name, fn in zip(_TEST_METHOD_ORDER, stats):
                out[(name, k)], ok = fn(rows, k)
                _passed(bad, f"degenerate {name} statistics at k={k}", ok)
        return out

    return _by_row_blocks(x, "", block)


def _sn_block(spec: EstimatorSpec, n: int, theta0, x: np.ndarray, bad: dict) -> dict:
    """Full-sample estimates "center" (B, dim), wn_batch's "w" (B, dim, dim)
    and "e" (B,), and pivots at theta0 "pivot" (B,) of the rows of x; none of
    them when an estimate path is degenerate, since the chunk then fails."""
    vals, ok = batch_prefix_values(spec, x)
    if not _passed(bad, f"degenerate {spec.canonical()} estimate paths", ok):
        return {}
    w, pivot, ok, e = wn_scalar_batch(vals, spec.first_valid(), n, theta0)
    _passed(bad, "singular self-normalizers", ok)
    return {"center": vals[:, -1].copy(), "w": w, "e": e, "pivot": pivot}  # no view keeps vals alive


def _coverage_chunk(
    model: str, n: int, target: str, methods: tuple, seed: int, lo: int, hi: int
) -> dict:
    spec = EstimatorSpec.parse(target)
    x = generate_batch(model, n, _rep_streams(seed, lo, hi))
    truth = np.asarray(true_value(model, spec))

    def block(rows: np.ndarray, bad: dict) -> dict:
        out = _sn_block(spec, n, truth, rows, bad) if "sn" in methods else {}
        if "eff" in methods:
            center, var, _, ok = efficient_variance_batch(rows, spec)
            _passed(bad, "degenerate efficient variances", ok)
            out["eff_miss"] = np.abs(center - truth)
            out["eff_scale"] = np.sqrt(var / n)
        return out

    return _by_row_blocks(x, spec.kind, block)


_BOOT_SCHEMES = ("mbb-pct", "mbb-normal", "mbb-sn")


def _sweep_chunk(
    model: str,
    n: int,
    target: str,
    seed: int,
    level: float,
    boot_reps: int,
    block_lengths: tuple,
    sn_critval: float,
    lo: int,
    hi: int,
) -> dict:
    spec = EstimatorSpec.parse(target)
    truth = true_value(model, spec)
    x = generate_batch(model, n, _rep_streams(seed, lo, hi))
    sn = _by_row_blocks(x, spec.kind, partial(_sn_block, spec, n, truth))
    center, w, e, pivot = sn["center"][:, 0], sn["w"][:, 0, 0], sn["e"], sn["pivot"]
    half = sn_half_width(sn_critval, w, n, e)
    out = {("sn", "cover"): pivot <= sn_critval, ("sn", "width"): 2.0 * half}
    shape = (x.shape[0], len(block_lengths))
    for name in _BOOT_SCHEMES:
        out[(name, "cover")] = np.empty(shape, dtype=bool)
        out[(name, "width")] = np.empty(shape)
    for r, row in enumerate(x):
        boot_seed = stream_index_for(seed, "boot", lo + r)
        sets = [
            bootstrap_suite(row, spec, MbbConfig(block, boot_reps, boot_seed, level), center[r])
            for block in block_lengths
        ]
        bounds = suite_intervals(*zip(*sets), center[r], w[r], e[r], n, level)
        for name, (lower, upper) in bounds.items():
            out[(name, "cover")][r] = (lower <= truth) & (truth <= upper)
            out[(name, "width")][r] = upper - lower
    return out


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

_TEST_METHOD_ORDER = ("lobato", "sn", "nw")


def _test_critical_value(method: str, k: int, alpha: float) -> float:
    if method == "nw":
        return chi2_quantile(k, alpha)
    return get_quantile(k, alpha)


def _test_rows(model: str, n: int, ks, alphas, stats: dict, crit) -> list[ExperimentRow]:
    """Rejection rows, k by alpha by method; crit(method, k, alpha) is the
    critical value the statistics stats[(method, k)] are compared with."""
    rows = []
    for k in ks:
        for alpha in alphas:
            for method in _TEST_METHOD_ORDER:
                hits = stats[(method, k)] > crit(method, k, alpha)
                rows.append(_rate_row(model, n, f"noncorr:{k}", method, alpha, hits))
    return rows


def run_size(
    model: str,
    n: int,
    ks: Sequence[int],
    alphas: Sequence[float],
    reps: int,
    seed: int,
    workers: int = 1,
) -> list[ExperimentRow]:
    """Null rejection percentages for the three non-correlation tests."""
    merged = _run_chunks(partial(_test_stats_chunk, model, n, tuple(ks), seed), reps, workers)
    return _test_rows(model, n, ks, alphas, merged, _test_critical_value)


def _null_companion(model: str) -> str:
    spec = parse_model(model)
    if len(spec.ar) != 1 or spec.ma:
        raise ValidationError(f"no uncorrelated companion for model {model!r}")
    return f"ar1:0:{spec.noise}"


_NULL_STATS: dict = {}  # (null model, n, ks, reps, seed) -> read-only statistics


def _null_stats(model: str, n: int, ks: tuple, reps: int, seed: int, workers: int) -> dict:
    """Null companion statistics, computed once for the alternatives sharing
    them; the result does not depend on workers, so the key leaves it out."""
    key = (model, n, ks, reps, seed)
    if key not in _NULL_STATS:
        stats = _run_chunks(partial(_test_stats_chunk, model, n, ks, seed), reps, workers)
        for vals in stats.values():
            vals.flags.writeable = False
        _NULL_STATS.clear()  # one entry: a power study runs its alternatives back to back
        _NULL_STATS[key] = stats
    return _NULL_STATS[key]


def run_power(
    model: str,
    n: int,
    ks: Sequence[int],
    alphas: Sequence[float],
    reps: int,
    seed: int,
    workers: int = 1,
) -> list[ExperimentRow]:
    """Size-adjusted rejection percentages under an autocorrelated model.

    The critical values are empirical null quantiles from the companion model
    with the autoregressive coefficient set to zero, run on the same
    per-replication streams, so the adjustment is seed-matched.
    """
    null_model = _null_companion(model)
    alt = _run_chunks(partial(_test_stats_chunk, model, n, tuple(ks), seed), reps, workers)
    null = _null_stats(null_model, n, tuple(ks), reps, seed, workers)

    def crit(method, k, alpha):
        return float(np.quantile(null[(method, k)], 1.0 - alpha))

    return _test_rows(model, n, ks, alphas, alt, crit)


def run_coverage(
    model: str,
    n: int,
    target: str,
    levels: Sequence[float],
    reps: int,
    seed: int,
    methods: Sequence[str] = ("sn",),
    workers: int = 1,
) -> list[ExperimentRow]:
    """Empirical coverage of the self-normalized region and, for the lag-1
    autocovariance and autocorrelation, of the studentized normal interval.

    A replication's region covers the truth when its pivot there is at most
    the U_q quantile.  The LAD autoregression rows carry no mean width.
    Degenerate replications raise instead of being skipped, so a completed
    run certifies that every replication produced a usable region.
    """
    spec = EstimatorSpec.parse(target)
    merged = _run_chunks(
        partial(_coverage_chunk, model, n, target, tuple(methods), seed), reps, workers
    )
    label = spec.canonical()
    rows = []
    for level in levels:
        for method in methods:
            if method == "sn":
                crit = get_quantile(spec.dim, 1.0 - level)
                covered = merged["pivot"] <= crit
                half = sn_half_width(crit, merged["w"][:, 0, 0], n, merged["e"])
                widths = None if spec.kind == "ladar" else 2.0 * half
            elif method == "eff":
                halves = normal_quantile(0.5 + level / 2.0) * merged["eff_scale"]
                covered, widths = merged["eff_miss"] <= halves, 2.0 * halves
            else:
                raise ValidationError(f"unknown coverage method {method!r}")
            rows.append(_rate_row(model, n, label, method, level, covered, widths))
    return rows


def run_block_sweep(
    model: str,
    n: int,
    target: str,
    level: float,
    block_lengths: Sequence[int],
    boot_reps: int,
    reps: int,
    seed: int,
    workers: int = 1,
) -> list[ExperimentRow]:
    """Coverage and width of the three bootstrap schemes across block
    lengths, against the plain self-normalized interval (one row, no block
    column)."""
    label = EstimatorSpec.parse(target).canonical()
    crit = get_quantile(1, 1.0 - level)
    chunk = partial(
        _sweep_chunk, model, n, target, seed, level, boot_reps, tuple(block_lengths), crit
    )
    merged = _run_chunks(chunk, reps, workers)
    sn_cover, sn_width = merged[("sn", "cover")], merged[("sn", "width")]
    rows = [_rate_row(model, n, label, "sn", level, sn_cover, sn_width)]
    for j, block in enumerate(block_lengths):
        for method in _BOOT_SCHEMES:
            cover, width = merged[(method, "cover")][:, j], merged[(method, "width")][:, j]
            rows.append(_rate_row(model, n, label, method, level, cover, width, block))
    return rows


# ---------------------------------------------------------------------------
# Named studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyJob:
    """A named study: its cells, each a runner and its arguments other than
    reps, seed and workers, run in order."""

    name: str
    full_reps: int
    cells: tuple[tuple[Callable[..., list[ExperimentRow]], dict], ...]


_WHITE_MODELS = ("iidn", "t6", "lognorm", "onedep", "hetero", "nonmds", "garch", "bilinear")
_AR_MA_MODELS = ("m1", "m2", "m3", "m4", "m5", "m6")
_POWER_RHOS = ("0.1", "0.2", "0.3", "0.4", "0.5")
_SWEEP_MODELS = ("ar1:0:normal", "ar1:0.5:normal", "ar1:0.8:normal")
_ALL_BLOCKS = tuple(range(1, 16))


def _test_job(name, runner, models, n):
    cells = tuple((runner, dict(model=m, n=n, ks=(1, 3, 5), alphas=(0.05, 0.10))) for m in models)
    return StudyJob(name, 5000, cells)


def _coverage_job(name, pairs, full_reps, methods=("sn",)):
    cells = tuple(
        (run_coverage, dict(model=m, n=n, target=t, levels=(0.90, 0.95), methods=methods))
        for n in (150, 600)
        for m, t in pairs
    )
    return StudyJob(name, full_reps, cells)


def _sweep_job(name, target, full_reps):
    cells = tuple(
        (run_block_sweep, dict(model=m, n=50, target=target, level=0.95,
                               block_lengths=_ALL_BLOCKS, boot_reps=1000))
        for m in _SWEEP_MODELS
    )
    return StudyJob(name, full_reps, cells)


STUDIES = {
    "1a": _test_job("1a", run_size, _WHITE_MODELS, 100),
    "1b": _test_job("1b", run_size, _WHITE_MODELS, 500),
    "2a": _test_job("2a", run_power, tuple(f"ar1:{r}:garch" for r in _POWER_RHOS), 100),
    "2b": _test_job("2b", run_power, tuple(f"ar1:{r}:bilinear" for r in _POWER_RHOS), 100),
    "3a": _coverage_job(
        "3a", tuple((m, "acov:1") for m in _AR_MA_MODELS), 1000, methods=("sn", "eff")
    ),
    "3b": _coverage_job("3b", tuple((m, "specmean:pi/2") for m in _AR_MA_MODELS), 1000),
    "4a": _coverage_job(
        "4a", tuple((m, "acf:1") for m in _AR_MA_MODELS), 1000, methods=("sn", "eff")
    ),
    "4b": _coverage_job("4b", tuple((m, "specratio:pi/2") for m in _AR_MA_MODELS), 1000),
    "5a": _coverage_job("5a", tuple((m, "median") for m in _AR_MA_MODELS), 10000),
    "5b": _coverage_job(
        "5b",
        tuple((m, "ladar:1") for m in ("m1", "m2", "m3"))
        + tuple((m, "ladar:2") for m in ("m7", "m8", "m9")),
        1000,
    ),
    "fig1": _sweep_job("fig1", "mean", 2000),
    "fig2": _sweep_job("fig2", "median", 2000),
    "fig3": _sweep_job("fig3", "acf:1", 2000),
    "fig4": _sweep_job("fig4", "specratio:pi/2", 500),
}

MIN_REPS = 50


def get_study(name: str) -> StudyJob:
    job = STUDIES.get(name.strip().lower())
    if job is None:
        known = ", ".join(sorted(STUDIES))
        raise ValidationError(f"unknown study {name!r} (known: {known})")
    return job


def resolve_reps(job: StudyJob, scale: float, reps: Optional[int]) -> int:
    if reps is not None:
        if reps < 1:
            raise ValidationError("reps must be positive")
        return reps
    if scale <= 0:
        raise ValidationError("scale must be positive")
    return max(MIN_REPS, int(round(job.full_reps * scale)))


def run_study(
    name: str,
    scale: float = 0.2,
    reps: Optional[int] = None,
    seed: int = 0,
    workers: int = 1,
) -> list[ExperimentRow]:
    """Run one named study at a fraction of its published replication count."""
    job = get_study(name)
    count = resolve_reps(job, scale, reps)
    rows: list[ExperimentRow] = []
    for runner, kwargs in job.cells:
        rows.extend(runner(**kwargs, reps=count, seed=seed, workers=workers))
    return rows
