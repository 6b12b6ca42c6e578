"""Command-line surface: ci, test-noncorr, critvals, simulate, generate.

Single results are JSON lines on stdout; experiment grids are CSV.  Every
run echoes an exact reproduction command with the resolved seed: the data
commands (generate, simulate) carry it as a '#' header inside their output,
the rest print it to stderr so stdout stays machine-readable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module
from typing import IO, Optional, Sequence

import numpy as np

from .core import (
    NumericalError,
    RngStream,
    TimeSeries,
    ValidationError,
    read_series,
    write_series,
)
from .critvals import (
    DEFAULT_ALPHAS,
    DEFAULT_GRID,
    DEFAULT_SEED,
    check_table_args,
    default_reps,
    get_quantile,
    load_table,
)
from .estimators import EstimatorSpec, prefix_estimates
from .inference import sn_interval, sn_region

# Names the other subcommands need, imported on first use (PEP 562) so that
# `ci --method sn` and `critvals` load only the four modules above.  Handlers
# read them through the module (`_this.name`), never as bare globals, so a
# rebinding of the module attribute (bench/spans.py traces through them) is
# the one that runs.
_LAZY = {
    "bootstrap": ("MbbConfig", "mbb_normal_ci", "mbb_percentile_ci", "mbb_sn_ci"),
    "noncorr": ("check_k", "lobato_test", "qtilde_test", "sn_noncorr_test"),
    "dgp": ("generate",),
    "montecarlo": ("get_study", "resolve_reps", "run_study", "write_csv"),
}
_ORIGIN = {name: module for module, names in _LAZY.items() for name in names}
_this = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_ORIGIN[name]}", __package__), name)
    globals()[name] = value
    return value


_PROG = "selfnorm"

_CI_METHODS = ("sn", "mbb-pct", "mbb-normal", "mbb-sn")
_TEST_METHODS = ("sn", "lobato", "nw")


class _Parser(argparse.ArgumentParser):
    """Argparse that exits 1 on usage errors (validation class, not crash)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_seed(seed: Optional[int]) -> int:
    if seed is not None:
        if seed < 0:
            raise ValidationError("seed must be non-negative")
        return seed
    return int.from_bytes(os.urandom(8), "big")


def _read_input(path: Optional[str]) -> TimeSeries:
    if path is None or path == "-":
        return read_series(sys.stdin)
    try:
        return read_series(path)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _open_output(path: Optional[str]) -> IO[str]:
    if path is None or path == "-":
        return sys.stdout
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _check_level(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise ValidationError("level must be strictly between 0 and 1")
    return level


def _echo(repro: str) -> None:
    print(f"# {repro}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_ci(args) -> int:
    level = _check_level(args.level)
    spec = EstimatorSpec.parse(args.stat)
    data_label = args.data or "-"
    if args.method == "sn":
        for flag, name in ((args.block, "--block"), (args.seed, "--seed")):
            if flag is not None:
                raise ValidationError(f"{name} only applies to the mbb methods")
        ts = _read_input(args.data)
        seq = prefix_estimates(spec, ts)
        crit = get_quantile(spec.dim, round(1.0 - level, 6))
        build = sn_interval if spec.dim == 1 else sn_region
        result = build(seq, crit, level, estimator=spec.canonical())
        _echo(
            f"{_PROG} ci --stat {spec.canonical()} --method sn "
            f"--level {level:g} {data_label}"
        )
        print(result.to_json())
        return 0
    if args.block is None:
        raise ValidationError(f"method {args.method} requires --block")
    seed = _resolve_seed(args.seed)
    ts = _read_input(args.data)
    cfg = _this.MbbConfig(
        block_length=args.block,
        replications=args.reps,
        seed=seed,
        level=level,
    )
    builder = {
        "mbb-pct": _this.mbb_percentile_ci,
        "mbb-normal": _this.mbb_normal_ci,
        "mbb-sn": _this.mbb_sn_ci,
    }[args.method]
    result = builder(ts, spec, cfg)
    _echo(
        f"{_PROG} ci --stat {spec.canonical()} --method {args.method} "
        f"--level {level:g} --block {args.block} --reps {args.reps} "
        f"--seed {seed} {data_label}"
    )
    print(json.dumps(result.to_dict()))
    return 0


def _cmd_test_noncorr(args) -> int:
    alpha = args.alpha
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must be strictly between 0 and 1")
    ts = _read_input(args.data)
    _this.check_k(ts.n, args.k)
    if args.method == "nw":
        result = _this.qtilde_test(ts, args.k, alpha)
    else:
        crit = get_quantile(args.k, round(alpha, 6))
        runner = _this.sn_noncorr_test if args.method == "sn" else _this.lobato_test
        result = runner(ts, args.k, alpha, crit)
    _echo(
        f"{_PROG} test-noncorr --k {args.k} --method {args.method} "
        f"--alpha {alpha:g} {args.data or '-'}"
    )
    print(json.dumps(result.to_dict()))
    return 0


def _cmd_critvals(args) -> int:
    qs = [args.q] if args.q is not None else list(range(1, 7))
    # a usage error prints one line: check every argument before the echo
    for q in qs:
        check_table_args(q, args.grid, args.reps)
    alphas = set(DEFAULT_ALPHAS)
    if args.alpha is not None:
        # tables are keyed by the rounded alpha
        alpha = round(args.alpha, 6)
        if not 0.0 < alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
        alphas.add(alpha)
    repro = f"{_PROG} critvals"
    if args.q is not None:
        repro += f" --q {args.q}"
    if args.alpha is not None:
        repro += f" --alpha {args.alpha:g}"
    repro += f" --grid {args.grid} --seed {args.seed}"
    if args.reps is not None:
        repro += f" --reps {args.reps}"
    _echo(repro)
    for q in qs:
        table = load_table(
            q,
            grid=args.grid,
            reps=args.reps,
            seed=args.seed,
            alphas=sorted(alphas),
            cache_path=args.cache or None,
        )
        payload = {
            "q": q,
            "grid": table.grid,
            "reps": table.reps,
            "seed": table.seed,
            "cache": table.source,
        }
        if args.alpha is not None:
            payload["alpha"] = alpha
            payload["quantile"] = table.quantile(args.alpha)
        else:
            payload["quantiles"] = {f"{a:.6f}": v for a, v in sorted(table.quantiles.items())}
        print(json.dumps(payload))
    return 0


def _cmd_generate(args) -> int:
    if args.n < 2:
        raise ValidationError("need --n >= 2")
    seed = _resolve_seed(args.seed)
    values = _this.generate(args.model, args.n, RngStream(seed))
    repro = f"{_PROG} generate --model {args.model} --n {args.n} --seed {seed}"
    sink = _open_output(args.output)
    try:
        write_series(values, sink, header=repro)
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


def _cmd_simulate(args) -> int:
    job = _this.get_study(args.table)
    seed = _resolve_seed(args.seed)
    count = _this.resolve_reps(job, args.scale, args.reps)
    if args.workers < 1:
        raise ValidationError("--workers must be >= 1")
    rows = _this.run_study(args.table, scale=args.scale, reps=count, seed=seed, workers=args.workers)
    repro = (
        f"{_PROG} simulate --table {job.name} --reps {count} --seed {seed} "
        f"--workers {args.workers}"
    )
    comments = [repro, f"full replication count {job.full_reps}, this run {count}"]
    sink = _open_output(args.output)
    try:
        _this.write_csv(rows, sink, comments)
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog=_PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ci = sub.add_parser("ci", help="confidence interval or region for one series")
    ci.add_argument("data", nargs="?", help="input series file ('-' or omitted: stdin)")
    ci.add_argument("--stat", required=True, help="mean|median|acov:k|acf:k|specmean:x|specratio:x|ladar:p")
    ci.add_argument("--method", choices=_CI_METHODS, default="sn")
    ci.add_argument("--level", type=float, default=0.95)
    ci.add_argument("--block", type=int, default=None, help="block length (mbb methods)")
    ci.add_argument("--reps", type=int, default=1000, help="bootstrap replications (mbb methods)")
    ci.add_argument("--seed", type=int, default=None, help="bootstrap seed (default: random)")
    ci.set_defaults(fn=_cmd_ci)

    tn = sub.add_parser("test-noncorr", help="test the first K autocorrelations against zero")
    tn.add_argument("data", nargs="?", help="input series file ('-' or omitted: stdin)")
    tn.add_argument("--k", type=int, required=True, help="number of leading autocorrelations")
    tn.add_argument("--method", choices=_TEST_METHODS, default="sn")
    tn.add_argument("--alpha", type=float, default=0.05)
    tn.set_defaults(fn=_cmd_test_noncorr)

    cv = sub.add_parser("critvals", help="query the pivot critical-value tables; simulate only keys not shipped")
    cv.add_argument("--q", type=int, default=None, help="dimension (default: 1..6)")
    cv.add_argument("--alpha", type=float, default=None)
    cv.add_argument("--grid", type=int, default=DEFAULT_GRID)
    cv.add_argument("--reps", type=int, default=None, help=f"simulation draws (default {default_reps(1)} for q<=5)")
    cv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cv.add_argument("--cache", default=None, help="cache file (default: env or user cache dir)")
    cv.set_defaults(fn=_cmd_critvals)

    gen = sub.add_parser("generate", help="draw one series from a named model")
    gen.add_argument("--model", required=True, help="iidn|t6|lognorm|onedep|hetero|nonmds|garch|bilinear|m1..m9|ar1:RHO:INNOV")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=None, help="default: random, echoed in the header")
    gen.add_argument("--output", default=None, help="output file (default stdout)")
    gen.set_defaults(fn=_cmd_generate)

    sim = sub.add_parser("simulate", help="run one named Monte Carlo study and emit CSV")
    sim.add_argument("--table", required=True, help="1a|1b|2a|2b|3a|3b|4a|4b|5a|5b|fig1..fig4")
    sim.add_argument("--scale", type=float, default=0.2, help="fraction of the study's full replication count")
    sim.add_argument("--reps", type=int, default=None, help="replication override (wins over --scale)")
    sim.add_argument("--seed", type=int, default=None, help="default: random, echoed in the header")
    sim.add_argument("--workers", type=int, default=1, help="process fan-out for replication chunks")
    sim.add_argument("--output", default=None, help="output file (default stdout)")
    sim.set_defaults(fn=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the package's finiteness and ok checks report every overflow and
        # invalid operation as one error; numpy's warnings would repeat it
        with np.errstate(all="ignore"):
            return args.fn(args)
    except BrokenPipeError:
        return 0
    except ValidationError as exc:
        print(f"{_PROG}: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"{_PROG}: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
