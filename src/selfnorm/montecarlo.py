"""Monte Carlo experiments: test size and size-adjusted power, interval
coverage, and block-bootstrap sweeps.

Replications are counter-seeded (one child stream per replication index), so
results are bit-identical no matter how the work is chunked or how many
worker processes run the chunks.  Each experiment writes rows with a fixed
column set so every study lands in the same CSV shape.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import IO, Optional, Sequence

import numpy as np

from .bootstrap import MbbConfig, bootstrap_suite
from .core import (
    NumericalError,
    RngStream,
    ValidationError,
    chi2_quantile,
    normal_quantile,
    stream_index_for,
)
from .critvals import get_quantile
from .dgp import generate_batch, parse_model, true_value
from .estimators import EstimatorSpec, batch_prefix_values, prefix_lad_ar
from .inference import sn_pivot, wn_scalar_batch
from .noncorr import (
    efficient_ci,
    lobato_stat_batch,
    qtilde_stat,
    sn_noncorr_stat_batch,
)

_CHUNK_REPS = 200  # fixed chunk size keeps chunk boundaries worker-independent

CSV_COLUMNS = (
    "model",
    "n",
    "target",
    "method",
    "level_or_alpha",
    "value_pct",
    "se_pct",
    "mean_width",
    "block_length",
)


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


def write_csv(rows: Sequence[ExperimentRow], sink: IO[str], comments: Sequence[str] = ()) -> None:
    for line in comments:
        sink.write(f"# {line}\n")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.csv_fields())


def _rate_se(p_fraction: float, reps: int) -> float:
    return 100.0 * math.sqrt(p_fraction * (1.0 - p_fraction) / reps)


# ---------------------------------------------------------------------------
# Chunked replication engine
# ---------------------------------------------------------------------------

def _chunk_bounds(reps: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _CHUNK_REPS, reps)) for lo in range(0, reps, _CHUNK_REPS)]


def _run_chunks(fn, reps: int, workers: int) -> dict:
    bounds = _chunk_bounds(reps)
    if workers <= 1:
        parts = [fn(lo, hi) for lo, hi in bounds]
    else:
        los, his = zip(*bounds)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(fn, los, his))
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _rep_streams(seed: int, lo: int, hi: int) -> list[RngStream]:
    return [RngStream(seed).child("rep", i) for i in range(lo, hi)]


def _test_stats_chunk(model: str, n: int, ks: tuple, seed: int, lo: int, hi: int) -> dict:
    x = generate_batch(model, n, _rep_streams(seed, lo, hi))
    out = {}
    for k in ks:
        for name, fn in (("lobato", lobato_stat_batch), ("sn", sn_noncorr_stat_batch)):
            vals, ok = fn(x, k)
            if not np.all(ok):
                bad = int(np.sum(~ok))
                raise NumericalError(f"{bad} degenerate {name} statistics at k={k}")
            out[(name, k)] = vals
        out[("nw", k)] = np.array([qtilde_stat(row, k) for row in x])
    return out


def _coverage_chunk(
    model: str, n: int, target: str, methods: tuple, seed: int, lo: int, hi: int
) -> dict:
    spec = EstimatorSpec.parse(target)
    x = generate_batch(model, n, _rep_streams(seed, lo, hi))
    out = {}
    if spec.kind == "ladar":
        truth = np.asarray(true_value(model, spec))
        pivots = np.empty(x.shape[0])
        for r, row in enumerate(x):
            pivots[r] = sn_pivot(prefix_lad_ar(row, spec.order), truth)
        out["pivot"] = pivots
        return out
    vals, fv, ok = batch_prefix_values(spec, x)
    if not np.all(ok):
        raise NumericalError(f"{int(np.sum(~ok))} degenerate estimate paths")
    if "sn" in methods:
        w = wn_scalar_batch(vals, fv, n)
        if not np.all(w > 0.0):
            raise NumericalError(f"{int(np.sum(w <= 0.0))} zero self-normalizers")
        out["center"] = vals[:, -1]
        out["w"] = w
    if "eff" in methods:
        if spec.kind == "acov" and spec.lag == 1:
            eff_target = "gamma1"
        elif spec.kind == "acf" and spec.lag == 1:
            eff_target = "rho1"
        else:
            raise ValidationError(f"no efficient interval for target {target!r}")
        center = np.empty(x.shape[0])
        scale = np.empty(x.shape[0])
        for r, row in enumerate(x):
            res = efficient_ci(row, eff_target)
            center[r] = res.estimate
            scale[r] = math.sqrt(res.variance / n)
        out["eff_center"] = center
        out["eff_scale"] = scale
    return out


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
    truth = float(true_value(model, spec))
    x = generate_batch(model, n, _rep_streams(seed, lo, hi))
    m = x.shape[0]
    nl = len(block_lengths)
    schemes = ("mbb-pct", "mbb-normal", "mbb-sn")
    out = {
        ("sn", "cover"): np.empty(m, dtype=bool),
        ("sn", "width"): np.empty(m),
    }
    for name in schemes:
        out[(name, "cover")] = np.empty((m, nl), dtype=bool)
        out[(name, "width")] = np.empty((m, nl))
    for r, row in enumerate(x):
        vals, fv, ok = batch_prefix_values(spec, row[None, :])
        if not ok[0]:
            raise NumericalError("degenerate estimate path in bootstrap sweep")
        w0 = wn_scalar_batch(vals, fv, n)[0]
        if not w0 > 0.0:
            raise NumericalError("zero self-normalizer in bootstrap sweep")
        center = vals[0, -1]
        half = math.sqrt(sn_critval * w0 / n)
        out[("sn", "cover")][r] = abs(center - truth) <= half
        out[("sn", "width")][r] = 2.0 * half
        boot_seed = stream_index_for(seed, "boot", lo + r)
        for j, block in enumerate(block_lengths):
            cfg = MbbConfig(
                block_length=block,
                replications=boot_reps,
                seed=boot_seed,
                level=level,
            )
            suite = bootstrap_suite(row, spec, cfg, vals[0], fv)
            for name in schemes:
                interval = suite[name]
                out[(name, "cover")][r, j] = interval.contains(truth)
                out[(name, "width")][r, j] = interval.width
    return out


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

_TEST_METHOD_ORDER = ("lobato", "sn", "nw")


def _test_critical_value(method: str, k: int, alpha: float) -> float:
    if method == "nw":
        return chi2_quantile(k, alpha)
    return get_quantile(k, round(alpha, 6))


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
    rows = []
    for k in ks:
        for alpha in alphas:
            for method in _TEST_METHOD_ORDER:
                crit = _test_critical_value(method, k, alpha)
                p = float(np.mean(merged[(method, k)] > crit))
                rows.append(
                    ExperimentRow(
                        model=model,
                        n=n,
                        target=f"noncorr:{k}",
                        method=method,
                        level_or_alpha=alpha,
                        value_pct=100.0 * p,
                        se_pct=_rate_se(p, reps),
                    )
                )
    return rows


def _null_companion(model: str) -> str:
    spec = parse_model(model)
    if spec.kind != "linear" or len(spec.ar) != 1 or spec.ma:
        raise ValidationError(f"no uncorrelated companion for model {model!r}")
    return f"ar1:0:{spec.noise}"


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
    null = _run_chunks(partial(_test_stats_chunk, null_model, n, tuple(ks), seed), reps, workers)
    rows = []
    for k in ks:
        for alpha in alphas:
            for method in _TEST_METHOD_ORDER:
                crit = float(np.quantile(null[(method, k)], 1.0 - alpha))
                p = float(np.mean(alt[(method, k)] > crit))
                rows.append(
                    ExperimentRow(
                        model=model,
                        n=n,
                        target=f"noncorr:{k}",
                        method=method,
                        level_or_alpha=alpha,
                        value_pct=100.0 * p,
                        se_pct=_rate_se(p, reps),
                    )
                )
    return rows


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

    Degenerate replications raise instead of being skipped, so a completed
    run certifies that every replication produced a usable region.
    """
    spec = EstimatorSpec.parse(target)
    merged = _run_chunks(
        partial(_coverage_chunk, model, n, target, tuple(methods), seed), reps, workers
    )
    rows = []
    if spec.kind == "ladar":
        for level in levels:
            crit = get_quantile(spec.dim, round(1.0 - level, 6))
            p = float(np.mean(merged["pivot"] <= crit))
            rows.append(
                ExperimentRow(
                    model=model,
                    n=n,
                    target=spec.canonical(),
                    method="sn",
                    level_or_alpha=level,
                    value_pct=100.0 * p,
                    se_pct=_rate_se(p, reps),
                )
            )
        return rows
    truth = float(true_value(model, spec))
    for level in levels:
        for method in methods:
            if method == "sn":
                crit = get_quantile(1, round(1.0 - level, 6))
                halves = np.sqrt(crit * merged["w"] / n)
                covered = np.abs(merged["center"] - truth) <= halves
            elif method == "eff":
                z = normal_quantile(0.5 + level / 2.0)
                halves = z * merged["eff_scale"]
                covered = np.abs(merged["eff_center"] - truth) <= halves
            else:
                raise ValidationError(f"unknown coverage method {method!r}")
            p = float(np.mean(covered))
            rows.append(
                ExperimentRow(
                    model=model,
                    n=n,
                    target=spec.canonical(),
                    method=method,
                    level_or_alpha=level,
                    value_pct=100.0 * p,
                    se_pct=_rate_se(p, reps),
                    mean_width=float(np.mean(2.0 * halves)),
                )
            )
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
    spec = EstimatorSpec.parse(target)
    crit = get_quantile(1, round(1.0 - level, 6))
    merged = _run_chunks(
        partial(
            _sweep_chunk,
            model,
            n,
            target,
            seed,
            level,
            boot_reps,
            tuple(block_lengths),
            crit,
        ),
        reps,
        workers,
    )
    rows = []
    p = float(np.mean(merged[("sn", "cover")]))
    rows.append(
        ExperimentRow(
            model=model,
            n=n,
            target=spec.canonical(),
            method="sn",
            level_or_alpha=level,
            value_pct=100.0 * p,
            se_pct=_rate_se(p, reps),
            mean_width=float(np.mean(merged[("sn", "width")])),
        )
    )
    for j, block in enumerate(block_lengths):
        for method in ("mbb-pct", "mbb-normal", "mbb-sn"):
            p = float(np.mean(merged[(method, "cover")][:, j]))
            rows.append(
                ExperimentRow(
                    model=model,
                    n=n,
                    target=spec.canonical(),
                    method=method,
                    level_or_alpha=level,
                    value_pct=100.0 * p,
                    se_pct=_rate_se(p, reps),
                    mean_width=float(np.mean(merged[(method, "width")][:, j])),
                    block_length=block,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Named studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyJob:
    name: str
    kind: str  # size | power | coverage | sweep
    full_reps: int
    models: tuple[str, ...] = ()
    sizes: tuple[int, ...] = ()
    ks: tuple[int, ...] = ()
    alphas: tuple[float, ...] = ()
    pairs: tuple[tuple[str, str], ...] = ()  # (model, target) for coverage
    levels: tuple[float, ...] = ()
    methods: tuple[str, ...] = ("sn",)
    boot_reps: int = 0
    block_lengths: tuple[int, ...] = ()


_WHITE_MODELS = ("iidn", "t6", "lognorm", "onedep", "hetero", "nonmds", "garch", "bilinear")
_AR_MA_MODELS = ("m1", "m2", "m3", "m4", "m5", "m6")
_POWER_RHOS = ("0.1", "0.2", "0.3", "0.4", "0.5")
_SWEEP_MODELS = ("ar1:0:normal", "ar1:0.5:normal", "ar1:0.8:normal")
_ALL_BLOCKS = tuple(range(1, 16))


def _coverage_job(name, pairs, full_reps, methods=("sn",)):
    return StudyJob(
        name=name,
        kind="coverage",
        full_reps=full_reps,
        sizes=(150, 600),
        pairs=pairs,
        levels=(0.90, 0.95),
        methods=methods,
    )


def _sweep_job(name, target, full_reps):
    return StudyJob(
        name=name,
        kind="sweep",
        full_reps=full_reps,
        models=_SWEEP_MODELS,
        sizes=(50,),
        pairs=tuple((m, target) for m in _SWEEP_MODELS),
        levels=(0.95,),
        boot_reps=1000,
        block_lengths=_ALL_BLOCKS,
    )


STUDIES = {
    "1a": StudyJob(
        name="1a", kind="size", full_reps=5000, models=_WHITE_MODELS, sizes=(100,),
        ks=(1, 3, 5), alphas=(0.05, 0.10),
    ),
    "1b": StudyJob(
        name="1b", kind="size", full_reps=5000, models=_WHITE_MODELS, sizes=(500,),
        ks=(1, 3, 5), alphas=(0.05, 0.10),
    ),
    "2a": StudyJob(
        name="2a", kind="power", full_reps=5000,
        models=tuple(f"ar1:{r}:garch" for r in _POWER_RHOS), sizes=(100,),
        ks=(1, 3, 5), alphas=(0.05, 0.10),
    ),
    "2b": StudyJob(
        name="2b", kind="power", full_reps=5000,
        models=tuple(f"ar1:{r}:bilinear" for r in _POWER_RHOS), sizes=(100,),
        ks=(1, 3, 5), alphas=(0.05, 0.10),
    ),
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
    if job.kind in ("size", "power"):
        runner = run_size if job.kind == "size" else run_power
        for n in job.sizes:
            for model in job.models:
                rows.extend(runner(model, n, job.ks, job.alphas, count, seed, workers))
        return rows
    if job.kind == "coverage":
        for n in job.sizes:
            for model, target in job.pairs:
                rows.extend(
                    run_coverage(model, n, target, job.levels, count, seed, job.methods, workers)
                )
        return rows
    for n in job.sizes:
        for model, target in job.pairs:
            rows.extend(
                run_block_sweep(
                    model,
                    n,
                    target,
                    job.levels[0],
                    job.block_lengths,
                    job.boot_reps,
                    count,
                    seed,
                    workers,
                )
            )
    return rows
