"""The three benchmark workloads: what each operation is and in which order.

cli_requests
    Each operation is one fresh ``selfnorm`` process (see launcher.py) run
    against a warm critical-value cache, the way a shell user or pipeline
    calls it.  Import and cache-read time set the median; the spectral and
    bootstrap compute sets the slow requests.  The 16 timed requests run in a
    fixed order, cycled; the slowest (specratio at n = 5000) comes first and
    every kind (each statistic, each test, both bootstrap schemes) comes in
    the first eight, so that the mix of a short run hardly depends on where
    the deadline falls.  Series are m1/m2/m3 draws.

    The requests that meet ROADMAP's known defects (LAD by IRLS and
    coordinate descent, which can stop at a non-optimal corner, and the
    offset-sensitive statistics on a copy of m1 shifted by a level offset of
    1e6, as price or sensor data have) are the defect probes: they run once
    each per run, after the timed phase, and are checked and reported apart
    from the timed operations, so a defect shows in every run and the timed
    operations never fail.

mc_coverage
    In-process ``run_coverage`` cells of studies 4a (acf:1, sn and eff), 4b
    (specratio:pi/2) and 5a (median) on m1..m6 at n = 150 and 600, plus
    ``run_size`` cells of study 1b's white-noise models at n = 500 with
    K in {1, 2} (so set-up needs only q <= 2).  Large n, moderate batches:
    batch prefix kernels, dgp with its 1000-step burn-in, the noncorr
    statistics and the per-row efficient_ci / qtilde loops.  No bootstrap,
    no LAD.

mc_bootstrap
    In-process ``run_block_sweep`` cells as in fig1-fig4: mean, median, acf:1
    and specratio:pi/2 on ar1:{0,0.5,0.8}:normal, n = 50, blocks 1..15, 1000
    resamples each.  Small n with a huge batch: block resampling, the
    degenerate-resample redraw path and the small-n kernels; needs only q = 1.

A Monte Carlo round is one cell of each kind the workload runs: seven cells
on mc_coverage, all twelve on mc_bootstrap.  The timed phase runs whole
rounds, so no run stops part-way through one, and the latency of a Monte Carlo
workload is the wall time of a round: the time to one small table of the
study.  Cells are weighted by their replication counts so that no target
takes most of the timed phase (measured on a 2-CPU box).  A cell's
replication count never exceeds the library's 200-replication chunk, so each
cell is one chunk.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

LEVEL_OFFSET = 1e6
SERIES_NS = (600, 5000)

# (subcommand arguments, n, series): the timed requests, slowest first
CLI_REQUESTS = [
    (["ci", "--stat", "specratio:pi/2"], 5000, "m2"),
    (["ci", "--stat", "mean"], 600, "m1"),
    (["test-noncorr", "--k", "2", "--method", "sn"], 600, "m3"),
    (["ci", "--stat", "acf:1"], 5000, "m2"),
    (["ci", "--stat", "mean", "--method", "mbb-sn", "--block", "10", "--seed", "11"], 600, "m2"),
    (["test-noncorr", "--k", "2", "--method", "lobato"], 5000, "m1"),
    (["ci", "--stat", "median"], 600, "m3"),
    (["test-noncorr", "--k", "2", "--method", "nw"], 600, "m1"),
    (["ci", "--stat", "acf:1", "--method", "mbb-pct", "--block", "10", "--seed", "12"], 600, "m3"),
    (["ci", "--stat", "specratio:pi/2"], 600, "m1"),
    (["ci", "--stat", "mean"], 5000, "m3"),
    (["test-noncorr", "--k", "2", "--method", "sn"], 5000, "m2"),
    (["ci", "--stat", "acf:1"], 600, "m1"),
    (["ci", "--stat", "median"], 5000, "m1"),
    (["test-noncorr", "--k", "2", "--method", "lobato"], 600, "m2"),
    (["test-noncorr", "--k", "2", "--method", "nw"], 5000, "m3"),
]

# the defect probes; series "off" is m1 + LEVEL_OFFSET
DEFECT_PROBES = [
    (["ci", "--stat", "ladar:2"], 600, "m2"),
    (["ci", "--stat", "ladar:1"], 600, "m3"),
    (["test-noncorr", "--k", "2", "--method", "sn"], 600, "off"),
    (["ci", "--stat", "acf:1"], 5000, "off"),
    (["ci", "--stat", "specratio:pi/2"], 600, "off"),
]


def cli_series(seed: int) -> dict[tuple[str, int], np.ndarray]:
    """The request series for one workload seed, keyed by (series, n)."""
    from selfnorm.core import RngStream
    from selfnorm.dgp import generate

    base = RngStream(seed).child("bench-series")
    out = {}
    for n in SERIES_NS:
        for model in ("m1", "m2", "m3"):
            out[(model, n)] = generate(model, n, base.child(model, n))
        out[("off", n)] = out[("m1", n)] + LEVEL_OFFSET
    return out


def write_series_files(series: dict, directory: Path) -> dict[tuple[str, int], Path]:
    paths = {}
    for (name, n), values in series.items():
        path = directory / f"series-{name}-{n}.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in values), encoding="utf-8")
        paths[(name, n)] = path
    return paths


def cli_schedule(requests=CLI_REQUESTS) -> list[dict]:
    return [
        {"key": f"{' '.join(args)} n={n} {series}", "args": args, "n": n, "series": series}
        for args, n, series in requests
    ]


# ---------------------------------------------------------------------------
# Monte Carlo cells
# ---------------------------------------------------------------------------

_LEVELS = (0.90, 0.95)
_AR_MA_MODELS = ("m1", "m2", "m3", "m4", "m5", "m6")
_WHITE_MODELS = ("iidn", "t6", "lognorm", "onedep", "hetero", "nonmds", "garch", "bilinear")
_SWEEP_MODELS = ("ar1:0:normal", "ar1:0.5:normal", "ar1:0.8:normal")

# (target, n, methods, reps); each runs once per round, then the size cell
_COVERAGE_SLOTS = (
    ("acf:1", 150, ("sn", "eff"), 170),
    ("acf:1", 600, ("sn", "eff"), 170),
    ("specratio:pi/2", 150, ("sn",), 28),
    ("specratio:pi/2", 600, ("sn",), 28),
    ("median", 150, ("sn",), 50),
    ("median", 600, ("sn",), 50),
)
_SIZE_SLOT = (500, (1, 2), (0.05, 0.10), 160)

# (target, reps) per model of the block sweep: one specratio replication
# costs as much as 15 of the mean
_SWEEP_SLOTS = (
    ("specratio:pi/2", 1),
    ("median", 1),
    ("acf:1", 5),
    ("mean", 15),
)
SWEEP_BLOCKS = tuple(range(1, 16))
SWEEP_BOOT_REPS = 1000
SWEEP_N = 50


def _coverage_cells() -> list[dict]:
    rounds = math.lcm(len(_AR_MA_MODELS), len(_WHITE_MODELS))
    cells = []
    for r in range(rounds):
        model = _AR_MA_MODELS[r % len(_AR_MA_MODELS)]
        for target, n, methods, reps in _COVERAGE_SLOTS:
            cells.append({
                "key": f"coverage {model} {n} {target}",
                "fn": "run_coverage",
                "kwargs": {"model": model, "n": n, "target": target, "levels": _LEVELS,
                           "reps": reps, "methods": methods},
                "reps": reps,
            })
        n, ks, alphas, reps = _SIZE_SLOT
        white = _WHITE_MODELS[r % len(_WHITE_MODELS)]
        cells.append({
            "key": f"size {white} {n}",
            "fn": "run_size",
            "kwargs": {"model": white, "n": n, "ks": ks, "alphas": alphas, "reps": reps},
            "reps": reps,
        })
    return cells


def _sweep_cells() -> list[dict]:
    cells = []
    for model in _SWEEP_MODELS:
        for target, reps in _SWEEP_SLOTS:
            cells.append({
                "key": f"sweep {model} {SWEEP_N} {target}",
                "fn": "run_block_sweep",
                "kwargs": {"model": model, "n": SWEEP_N, "target": target, "level": 0.95,
                           "block_lengths": SWEEP_BLOCKS, "boot_reps": SWEEP_BOOT_REPS,
                           "reps": reps},
                "reps": reps,
            })
    return cells


def expected_rows(cell: dict) -> int:
    kw = cell["kwargs"]
    if cell["fn"] == "run_coverage":
        return len(kw["levels"]) * len(kw["methods"])
    if cell["fn"] == "run_size":
        return len(kw["ks"]) * len(kw["alphas"]) * 3
    return 1 + 3 * len(kw["block_lengths"])


# workload name -> critical-value dimensions set-up builds, operation kind,
# and operations per round: the timed phase runs whole rounds, and a round is
# the unit of latency
WORKLOADS = {
    "cli_requests": {"qs": (1, 2), "kind": "cli", "round": 1},
    "mc_coverage": {"qs": (1, 2), "kind": "mc", "cells": _coverage_cells,
                    "round": len(_COVERAGE_SLOTS) + 1},
    "mc_bootstrap": {"qs": (1,), "kind": "mc", "cells": _sweep_cells,
                     "round": len(_SWEEP_MODELS) * len(_SWEEP_SLOTS)},
}
