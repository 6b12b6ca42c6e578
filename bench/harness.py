"""Set-up, timed phase, oracles and metrics for one benchmark run.

A run has four phases:

1. Set-up (``setup_s``): imports, input generation, the cold critical-value
   tables the workload reads, built by ``selfnorm critvals --q Q`` processes
   into a fresh cache file, and, for the Monte Carlo workloads, a warm-up
   call per target.
2. The timed phase: a closed loop with one caller that starts the next
   operation when the previous one ends, for ``seconds`` seconds (the round
   of operations running at the deadline finishes and counts; a CLI round is
   one request).  It is never traced.
3. With tracing on, the same operations are replayed in the same order with
   spans recorded; the per-layer metrics come from that replay, and the
   difference of the two walls is the tracing overhead.
4. On ``cli_requests``, the defect probes (workloads.DEFECT_PROBES) run once
   each through ``selfnorm.cli.main`` in this process, traced when phase 3
   is.

Every output of phases 2-4 is then checked by the oracles.  Failures of the
timed operations count in ``failed``; the probes are reported apart, and only
a probe failure that is not a known defect clears ``correct``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import oracles
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_work"
LAUNCHER = BENCH / "launcher.py"
REFERENCE = BENCH / "reference" / "mc_seed1.json"
REFERENCE_SEED = 1
LAYERS = (
    "cli", "core", "dgp", "estimators", "inference", "critvals", "bootstrap",
    "noncorr", "montecarlo",
)
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def source_present() -> bool:
    return (ROOT / "src" / "selfnorm" / "__init__.py").is_file()


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_info() -> dict:
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def run_cli(args: list[str], env: dict, work: Path, spans_path: Path | None = None) -> dict:
    """One ``selfnorm`` process; returns status, wall time, peak RSS, output."""
    argv = [sys.executable, str(LAUNCHER)]
    if spans_path is not None:
        argv += ["--spans", str(spans_path)]
    argv += ["--", *args]
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=str(ROOT))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "start": start,
        "end": end,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
    }


def build_tables(qs, env: dict, work: Path, tracer: spans.Tracer | None) -> dict[int, float]:
    """Warm the run's empty cache with ``selfnorm critvals --q Q``; returns
    the alpha = 0.05 quantile of each table, as the CLI reports it."""
    tables = {}
    for q in qs:
        spans_path = work / "spans.json" if tracer is not None else None
        res = run_cli(["critvals", "--q", str(q)], env, work, spans_path)
        if res["rc"] != 0:
            raise RuntimeError(f"critvals --q {q} failed: {res['stderr'].strip()}")
        if tracer is not None:
            rec = tracer.record("cli.request", res["start"], res["end"])
            tracer.adopt(json.loads(spans_path.read_text()), rec["id"])
        tables[q] = json.loads(res["stdout"])["quantiles"]["0.050000"]
    return tables


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class CliOps:
    """cli_requests: one fresh selfnorm process per request."""

    def __init__(self, seed: int, env: dict, work: Path):
        self.env = env
        self.work = work
        self.series = workloads.cli_series(seed)
        self.paths = workloads.write_series_files(self.series, work)
        self.schedule = workloads.cli_schedule()
        self.probes = workloads.cli_schedule(workloads.DEFECT_PROBES)

    def run(self, i: int, tracer: spans.Tracer | None) -> dict:
        req = self.schedule[i % len(self.schedule)]
        args = req["args"] + [str(self.paths[(req["series"], req["n"])])]
        if tracer is None:
            res = run_cli(args, self.env, self.work)
        else:
            spans_path = self.work / "spans.json"
            spans_path.unlink(missing_ok=True)
            with tracer.span("cli.request") as rec:
                res = run_cli(args, self.env, self.work, spans_path)
            if spans_path.exists():  # absent only if the child was killed
                tracer.adopt(json.loads(spans_path.read_text()), rec["id"])
        return {"req": req, "latency": res["end"] - res["start"], "rc": res["rc"],
                "stdout": res["stdout"], "stderr": res["stderr"], "rss_mb": res["rss_mb"],
                "ops": 1}

    def probe(self, req: dict, tracer: spans.Tracer | None) -> dict:
        """One defect probe, run through ``selfnorm.cli.main`` in this process
        (the probes are checked, not timed, so they skip the interpreter
        start); spans go to ``tracer`` if the bindings are installed."""
        from selfnorm.cli import main as cli_main

        args = req["args"] + [str(self.paths[(req["series"], req["n"])])]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = cli_main(args)
                else:
                    with tracer.span("cli.probe"):
                        rc = cli_main(args)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code if isinstance(exc.code, int) else 1
        return {"req": req, "latency": time.perf_counter() - start, "rc": rc,
                "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, rec: dict, tables: dict) -> list[tuple[str, str]]:
        req = rec["req"]
        x = self.series[(req["series"], req["n"])]
        return oracles.check_cli(req["args"], x, rec["rc"], rec["stdout"], tables)

    @staticmethod
    def known_defect(rec: dict, check: str) -> str | None:
        """Name of the ROADMAP defect a failed probe check is an instance of."""
        args = rec["req"]["args"]
        if check == "ladar-objective":
            return "lad-corner-stall"
        offset_sensitive = (
            "acf:1" in args and "--method" not in args
            or "specratio:pi/2" in args
            or args[0] == "test-noncorr" and args[-1] == "sn"
        )
        numerical_exit = check == "exit" and rec["rc"] == 2
        if rec["req"]["series"] == "off" and offset_sensitive and (
            check in ("centre", "statistic") or numerical_exit
        ):
            return "level-offset-cancellation"
        return None


def cell_seed(seed: int) -> int:
    """The seed a cell runs with; reference/mc_seed1.json was recorded with it."""
    return seed * 4


class McOps:
    """mc_*: one in-process Monte Carlo cell per operation."""

    def __init__(self, name: str, seed: int):
        from selfnorm import montecarlo

        self.montecarlo = montecarlo
        self.seed = seed
        self.schedule = workloads.WORKLOADS[name]["cells"]()
        self.reference = None
        if seed == REFERENCE_SEED and REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text())

    def call(self, cell: dict) -> list[dict]:
        fn = getattr(self.montecarlo, cell["fn"])
        rows = fn(seed=cell_seed(self.seed), **cell["kwargs"])
        return [dataclasses.asdict(r) for r in rows]

    def warm_up(self) -> None:
        """One replication of the first cell of each function and target, so
        first-call costs (lazy imports, allocator growth) fall in set-up."""
        seen = set()
        for cell in self.schedule:
            kind = (cell["fn"], cell["kwargs"].get("target"))
            if kind not in seen:
                seen.add(kind)
                self.call({**cell, "kwargs": {**cell["kwargs"], "reps": 1}})

    def run(self, i: int, tracer: spans.Tracer | None) -> dict:
        cell = self.schedule[i % len(self.schedule)]
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                rows = self.call(cell)
            else:
                with tracer.span("montecarlo.cell"):
                    rows = self.call(cell)
        except Exception:  # a failed cell is counted, not fatal to the run
            rows, error = [], traceback.format_exc(limit=3)
        end = time.perf_counter()
        return {"cell": cell, "latency": end - start, "rows": rows, "error": error,
                "ops": cell["reps"]}

    def check(self, rec: dict, tables: dict) -> list[tuple[str, str]]:
        cell = rec["cell"]
        if rec["error"] is not None:
            return [("exception", rec["error"].strip().splitlines()[-1])]
        ref = None if self.reference is None else self.reference.get(cell["key"])
        return oracles.check_rows(cell, rec["rows"], workloads.expected_rows(cell), ref)


def closed_loop(ops, count: int | None, seconds: float, tracer=None,
                round_len: int = 1) -> tuple[list[dict], float]:
    """Run operations back to back: ``count`` of them, or until ``seconds``
    have passed (the round of ``round_len`` operations running at the
    deadline completes)."""
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        if tracer is not None:
            tracer.op = i
        records.append(ops.run(i, tracer))
        i += 1
        if count is not None and i >= count:
            break
        if count is None and i % round_len == 0 and time.perf_counter() >= deadline:
            break
    return records, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    TAIL_BEYOND samples beyond it, never below the median."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(xs), 50.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(records: list[dict], round_len: int, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics of the timed phase; latency is per round of
    ``round_len`` operations (the records hold whole rounds)."""
    lat = [sum(r["latency"] for r in records[i:i + round_len])
           for i in range(0, len(records), round_len)]
    tail_v, tail_p, tail_n = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(r["ops"] for r in records) / sum(lat), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000.0 * tail_v, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {"latency_tail_percentile": tail_p, "latency_samples": tail_n}
    return metrics, notes


def per_layer(timed: spans.Tracer, setup: spans.Tracer, traced_wall: float, untraced_wall: float,
              probe_wall: float, known_failed: int) -> dict:
    """The per-layer metrics: the spans of the replay and the defect probes,
    set-up's table builds, and how many probes showed a known defect."""
    agg = spans.summarize(timed.spans)
    m: dict[str, tuple[float, str]] = {}

    def take(name: str, field: str, unit: str = "s"):
        m[f"{name}.{field}"] = (float(agg[name][field]) if name in agg else 0.0, unit)

    def count(name: str, key: str, metric: str):
        m[metric] = (float(agg[name]["counts"][key]) if name in agg else 0.0, "count")

    def durations(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in timed.spans if s["name"] == name]

    for name in ("cli.import", "cli.main"):
        d = durations(name)
        m[f"{name}_s"] = (statistics.median(d) if d else 0.0, "s")
    take("core.read_series", "busy_s")
    for name in ("core.rng_child", "core.spd_solve", "dgp.generate_batch"):
        take(name, "calls", unit="count")
        take(name, "busy_s")
    count("dgp.generate_batch", "values", "dgp.generate_batch.values")
    for kind in ("mean", "median", "acf", "specratio"):
        name = f"estimators.batch.{kind}"
        take(name, "calls", unit="count")
        take(name, "busy_s")
        count(name, "cells", f"{name}.cells")
    for kind in ("mean", "median", "acf", "specratio", "ladar"):
        take(f"estimators.prefix.{kind}", "calls", unit="count")
        take(f"estimators.prefix.{kind}", "busy_s")
    count("estimators.prefix.ladar", "fits", "estimators.ladar.fits")
    take("inference.wn", "calls", unit="count")
    take("inference.wn", "busy_s")
    take("inference.region", "busy_s")

    sims = [s for s in setup.spans if s["name"] == "critvals.simulate"]
    for q in (1, 2):
        m[f"critvals.simulate.q{q}_s"] = (
            sum((s["end"] - s["start"] for s in sims if s["counts"]["q"] == q), 0.0), "s")
    m["critvals.simulate.reps"] = (float(sum(s["counts"]["reps"] for s in sims)), "count")
    take("critvals.lookup", "calls", unit="count")
    take("critvals.lookup", "busy_s")
    lookups = [s for s in timed.spans if s["name"] == "critvals.lookup"]
    missed = {s["parent"] for s in timed.spans if s["name"] == "critvals.simulate"}
    hits = sum(1 for s in lookups if s["id"] not in missed)
    m["critvals.cache_hit_ratio"] = (hits / len(lookups) if lookups else 0.0, "ratio")

    take("bootstrap", "calls", unit="count")
    take("bootstrap", "busy_s")
    take("bootstrap", "self_s")
    requested = agg["bootstrap"]["counts"]["requested"] if "bootstrap" in agg else 0
    by_id = {s["id"]: s for s in timed.spans}
    drawn = 0
    for s in timed.spans:
        if s["name"].startswith("estimators.batch.") and by_id.get(s["parent"], {}).get("name") == "bootstrap":
            drawn += s["counts"]["rows"]
    m["bootstrap.resamples_requested"] = (float(requested), "count")
    m["bootstrap.resamples_drawn"] = (float(drawn), "count")
    m["bootstrap.useful_ratio"] = (requested / drawn if drawn else 0.0, "ratio")
    for stat in ("sn_stat", "lobato_stat", "qtilde", "efficient_ci"):
        take(f"noncorr.{stat}", "calls", unit="count")
        take(f"noncorr.{stat}", "busy_s")
    take("montecarlo.cell", "calls", unit="count")
    take("montecarlo.cell", "busy_s")
    take("montecarlo.cell", "self_s")

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, a in agg.items():
        layer_self[spans.layer_of(name)] += a["self_s"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.self_sum_s"] = (sum(layer_self.values()), "s")
    m["trace.timed_wall_s"] = (traced_wall + probe_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["defects.known_failed"] = (float(known_failed), "count")
    return m


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, t_start: float,
                 cache_from: Path | None = None) -> dict:
    """Set up, time, optionally trace, and check one workload.

    ``cache_from`` seeds the run's cache from an existing file instead of an
    empty one; only the harness self-test uses it, to stay at toy size.
    """
    spec = workloads.WORKLOADS[name]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=str(WORK_ROOT)))
    try:
        cache = work / "critvals.json"
        if cache_from is not None:
            shutil.copyfile(cache_from, cache)
        # in-process Monte Carlo cells read the cache path from the environment
        os.environ.update(SELFNORM_CRITVAL_CACHE=str(cache), TMPDIR=str(work))
        env = dict(os.environ)
        setup_tracer = spans.Tracer() if trace else None
        tables = build_tables(spec["qs"], env, work, setup_tracer)
        if spec["kind"] == "cli":
            ops = CliOps(seed, env, work)
        else:
            ops = McOps(name, seed)
            ops.warm_up()
        setup_s = time.perf_counter() - t_start

        records, wall = closed_loop(ops, None, seconds, round_len=spec["round"])
        if spec["kind"] == "cli":
            peak = max(r["rss_mb"] for r in records)
        else:
            import resource

            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = list(records)
        result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "timed_wall_s": wall, "ops_completed": len(records),
                  "op_latencies": [[_label(r), r["latency"]] for r in records]}
        tracer = spans.Tracer() if trace else None
        if trace:
            saved = spans.install(tracer) if spec["kind"] == "mc" else []
            try:
                replay, traced_wall = closed_loop(ops, len(records), seconds, tracer)
            finally:
                spans.uninstall(saved)
            checked += replay

        probes = []
        if spec["kind"] == "cli":
            saved = spans.install(tracer) if trace else []
            try:
                for req in ops.probes:
                    if trace:
                        tracer.op = len(checked) + len(probes)
                    probes.append(ops.probe(req, tracer))
            finally:
                spans.uninstall(saved)
            for rec in probes:
                rec["failures"] = [
                    {"check": check, "message": message, "known_defect": ops.known_defect(rec, check)}
                    for check, message in ops.check(rec, tables)]
        result["probes"] = [{"what": _label(r), "latency": r["latency"], "failures": r["failures"]}
                            for r in probes]
        known_failed = sum(1 for r in probes if r["failures"])

        if trace:
            probe_wall = sum(r["latency"] for r in probes)
            result["metrics"] = per_layer(tracer, setup_tracer, traced_wall, wall, probe_wall,
                                          known_failed)
            result["nesting_errors"] = (spans.nesting_errors(tracer.spans)
                                        + spans.nesting_errors(setup_tracer.spans))
            result["spans"] = tracer.spans
            result["setup_spans"] = setup_tracer.spans
        else:
            metrics, notes = end_to_end(records, spec["round"], setup_s, peak)
            result["metrics"] = metrics
            result.update(notes)

        failures = []
        for i, rec in enumerate(checked):
            for check, message in ops.check(rec, tables):
                failures.append({"op": i, "what": _label(rec), "check": check, "message": message})
        if spec["kind"] == "mc":
            failures += _repeat_mismatches(checked)
        failed_ops = {f["op"] for f in failures}
        result["attempted"] = sum(r["ops"] for r in checked)
        result["failed"] = sum(checked[i]["ops"] for i in failed_ops)
        result["failures"] = failures
        probes_known = all(f["known_defect"] for r in probes for f in r["failures"])
        result["correct"] = not failures and probes_known and not result.get("nesting_errors")
        result["machine"] = machine_info()
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _label(rec: dict) -> str:
    return rec["req"]["key"] if "req" in rec else rec["cell"]["key"]


def _repeat_mismatches(records: list[dict]) -> list[dict]:
    """Cells repeated with the same seed must give identical rows."""
    first: dict[str, list] = {}
    out = []
    for i, r in enumerate(records):
        if r["error"] is not None:
            continue
        key = r["cell"]["key"]
        if key not in first:
            first[key] = r["rows"]
        elif not _same_rows(first[key], r["rows"]):
            out.append({"op": i, "what": key, "check": "repeat",
                        "message": "same cell and seed gave different rows"})
    return out


def _same_rows(a: list[dict], b: list[dict]) -> bool:
    def norm(rows):
        return [{k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in row.items()}
                for row in rows]

    return norm(a) == norm(b)
