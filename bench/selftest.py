"""Self-test of the benchmark harness at toy size (about a minute).

    python3 bench/selftest.py

Checks that
  * every workload prints every metric BENCHMARK.json names, with its unit,
    traced and untraced, and reports no unexpected failure, and the defect
    probes of cli_requests run;
  * each oracle accepts a right answer and catches an injected wrong one;
  * spans nest: every span lies inside its parent and keeps its op, child
    process spans hang under their request, and on the Monte Carlo workloads
    the layer self times add up to the traced wall;
  * without src/ the benchmark exits non-zero and prints no result.

To stay at toy size the runs start from a critical-value cache simulated
with 2000 draws and filed under the default key, so set-up is fast; the
harness, not the tables, is under test.  Exits 1 if any check fails.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run  # noqa: F401  (pins BLAS threads and puts src/ on sys.path)

import harness
import oracles
import spans
import workloads

SEED = 2  # not the reference seed: toy tables would move the coverages
TOY_SECONDS = 2.0
FAILED: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILED.append(what)


def toy_cache(path: Path) -> None:
    from selfnorm.critvals import DEFAULT_GRID, DEFAULT_SEED, default_reps, simulate_uq

    tables = {}
    for q in (1, 2):
        table = simulate_uq(q, reps=2000)
        reps = default_reps(q)
        tables[f"q={q}|grid={DEFAULT_GRID}|reps={reps}|seed={DEFAULT_SEED}"] = {
            "q": q, "grid": DEFAULT_GRID, "reps": reps, "seed": DEFAULT_SEED,
            "quantiles": {f"{a:.6f}": v for a, v in table.quantiles.items()},
        }
    path.write_text(json.dumps({"version": 1, "tables": tables}))


def check_runs(cache: Path) -> None:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = harness.run_workload(name, SEED, TOY_SECONDS, trace, time.perf_counter(),
                                          cache_from=cache)
            line = json.loads(run._final_line(result))
            tag = f"{name} trace {int(trace)}"
            check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            check(line["correct"] and line["attempted"] >= 1, f"{tag}: correct, ops attempted")
            printed = line["metrics"]
            missing = [m["name"] for m in listed
                       if m["name"] not in printed or printed[m["name"]]["unit"] != m["unit"]
                       or not math.isfinite(printed[m["name"]]["value"])]
            check(not missing and len(printed) == len(listed),
                  f"{tag}: every listed metric printed with its unit {missing or ''}")
            if name == "cli_requests":
                probes = result["probes"]
                check(len(probes) == len(workloads.DEFECT_PROBES)
                      and all(f["known_defect"] for r in probes for f in r["failures"]),
                      f"{tag}: every defect probe ran, failing only as a known defect")
            if not trace:
                continue
            check(result["spans"] and not result["nesting_errors"],
                  f"{tag}: spans nest {result['nesting_errors'][:3] or ''}")
            by_id = {s["id"]: s for s in result["spans"]}
            if name == "cli_requests":
                imports = [s for s in result["spans"] if s["name"] == "cli.import"]
                check(imports and all(by_id[s["parent"]]["name"] == "cli.request" for s in imports),
                      f"{tag}: child-process spans hang under their request")
            else:
                wall = printed["trace.timed_wall_s"]["value"]
                total = printed["trace.self_sum_s"]["value"]
                check(abs(total - wall) <= 0.1 * wall,
                      f"{tag}: layer self times {total:.3f} s within 10% of wall {wall:.3f} s")


def check_oracles() -> None:
    from selfnorm.core import RngStream
    from selfnorm.dgp import generate
    from selfnorm.estimators import EstimatorSpec, prefix_estimates
    from selfnorm.inference import sn_interval, sn_region
    from selfnorm.noncorr import lobato_test, sn_noncorr_test

    x = generate("m1", 600, RngStream(5))
    tables = {1: 45.0, 2: 100.0}

    def ci(stat):
        spec = EstimatorSpec.parse(stat)
        build = sn_interval if spec.dim == 1 else sn_region
        out = json.loads(build(prefix_estimates(spec, x), tables[spec.dim], 0.95).to_json())
        return ["ci", "--stat", stat], out

    def verdict(args, out):
        return {c for c, _ in oracles.check_cli(args, x, 0, json.dumps(out), tables)}

    for stat, field, wrong in (
        ("mean", "estimate", lambda v: v + 1e-9),
        ("median", "estimate", lambda v: math.nextafter(v, math.inf)),
        ("acf:1", "estimate", lambda v: v * (1 + 1e-7)),
        ("specratio:pi/2", "estimate", lambda v: v * (1 + 1e-7)),
        ("mean", "critval", lambda v: v * 1.01),
        ("acf:1", "U", lambda v: -10.0),
        ("ladar:2", "center", lambda v: [v[0] + 0.05, v[1]]),
    ):
        args, out = ci(stat)
        right = verdict(args, out)
        out[field] = wrong(out[field])
        if stat == "ladar:2":
            out["estimate"] = out["center"]
        caught = verdict(args, out)
        check(not right and caught, f"oracle catches a wrong {stat} {field}: {sorted(caught)}")
    for method, runner in (("sn", sn_noncorr_test), ("lobato", lobato_test)):
        args = ["test-noncorr", "--k", "2", "--method", method]
        out = runner(x, 2, 0.05, tables[2]).to_dict()
        right = verdict(args, out)
        out["statistic"] *= 1 + 1e-5
        out["reject"] = out["statistic"] > out["critical_value"]
        check(not right and verdict(args, out) == {"statistic"},
              f"oracle catches a wrong {method} statistic")
    check({c for c, _ in oracles.check_cli(["ci", "--stat", "mean"], x, 2, "", tables)} == {"exit"},
          "oracle counts a non-zero exit as a failure")

    cell = workloads.WORKLOADS["mc_coverage"]["cells"]()[0]
    rows = [{"model": "m1", "n": 150, "target": "acf:1", "method": m, "level_or_alpha": lv,
             "value_pct": 90.0, "se_pct": 1.0, "mean_width": 0.3, "block_length": None}
            for lv in (0.9, 0.95) for m in ("sn", "eff")]
    ref = [[r["method"], r["level_or_alpha"], None, 90.0] for r in rows]
    check(not oracles.check_rows(cell, rows, 4, ref), "mc oracle accepts rows matching the reference")
    moved = [dict(rows[0], value_pct=99.0)] + rows[1:]
    check({c for c, _ in oracles.check_rows(cell, moved, 4, ref)} == {"reference"},
          "mc oracle catches a percentage 3 standard errors off the reference")
    check({c for c, _ in oracles.check_rows(cell, rows[:3], 4, None)} == {"rows"},
          "mc oracle catches a missing row")
    nan = [dict(rows[0], mean_width=float("nan"))] + rows[1:]
    check({c for c, _ in oracles.check_rows(cell, nan, 4, None)} == {"finite"},
          "mc oracle catches a non-finite row")


def check_span_analysis() -> None:
    tracer = spans.Tracer()
    with tracer.span("montecarlo.cell"):
        with tracer.span("estimators.batch.mean"):
            time.sleep(0.01)
        with tracer.span("estimators.batch.mean"):
            time.sleep(0.01)
    agg = spans.summarize(tracer.spans)
    cell, batch = agg["montecarlo.cell"], agg["estimators.batch.mean"]
    check(batch["calls"] == 2 and abs(cell["self_s"] + batch["busy_s"] - cell["busy_s"]) < 1e-9,
          "self time is duration minus children")
    tracer.spans[1]["end"] = tracer.spans[0]["end"] + 1.0
    check(bool(spans.nesting_errors(tracer.spans)), "a child outside its parent is reported")


def check_without_source() -> None:
    harness.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=str(harness.WORK_ROOT)))
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(harness.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "mc_bootstrap", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=str(bare), capture_output=True, text=True, timeout=180,
            env=dict(os.environ, PYTHONPATH=""),
        )
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              f"without src/ the run exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_span_analysis()
    check_oracles()
    check_without_source()
    harness.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=str(harness.WORK_ROOT)) as tmp:
        cache = Path(tmp) / "toy-critvals.json"
        toy_cache(cache)
        check_runs(cache)
    print("selftest", "FAILED: " + "; ".join(FAILED) if FAILED else "ok")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
