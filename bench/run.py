"""selfnorm benchmark: one workload per run, or all of them.

    python3 bench/run.py --workload cli_requests --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all

Runs from the repository root against the uninstalled package under src/.
Prints a readable summary, then, as the last line of stdout, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A record of the run (the
machine, every failure and, when traced, every span) is written under
.bench_work/results/.  See bench/README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one BLAS/OpenMP thread per process, pinned before numpy is first imported;
# child processes inherit the pins
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(harness.ROOT / "src"))

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)


def _print_summary(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}: "
          f"{result['ops_completed']} operations in {result['timed_wall_s']:.2f} s")
    for name, (value, unit) in result["metrics"].items():
        extra = ""
        if name == "latency_tail_ms":
            extra = (f"  (p{result['latency_tail_percentile']:.1f} of "
                     f"{result['latency_samples']} samples)")
        print(f"  {name:<40} {value:>14.6g} {unit}{extra}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':<40} {frac:>14.6g} ratio  ({result['failed']} of {result['attempted']})")
    for f in result["failures"]:
        print(f"  failure op {f['op']} {f['what']}: {f['check']}: {f['message']}")
    for probe in result["probes"]:
        print(f"  probe {probe['what']} ({probe['latency']:.2f} s): "
              + ("passes" if not probe["failures"] else ""))
        for f in probe["failures"]:
            tag = f"known defect {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
            print(f"    failure [{tag}] {f['check']}: {f['message']}")
    for err in result.get("nesting_errors", []):
        print(f"  span error: {err}")
    print("# machine " + json.dumps(result["machine"], sort_keys=True))


def _write_record(result: dict) -> None:
    out = harness.WORK_ROOT / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(result), encoding="utf-8")


def _final_line(result: dict) -> str:
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=str(harness.ROOT))
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, body in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = body
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=harness.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not harness.source_present():
        print(f"bench: no selfnorm package under {harness.ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), T_START)
    _print_summary(result)
    _write_record(result)
    print(_final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
