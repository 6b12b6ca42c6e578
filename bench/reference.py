"""Record the Monte Carlo rows the oracles compare against for seed 1.

    python3 bench/reference.py

Runs every distinct cell of mc_coverage and mc_bootstrap once with workload
seed 1, against freshly simulated critical-value tables, and writes each
row's (method, level or alpha, block length, percentage) to
bench/reference/mc_seed1.json, one cell per line.  Rerun it only when a
change is meant to alter Monte Carlo results; the checked-in file is the
record of the commit that defined the benchmark.
"""

import json
import os
import shutil
import sys
import tempfile

import run  # noqa: F401  (pins BLAS threads and puts src/ on sys.path)

import harness
import oracles


def main() -> int:
    harness.WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=str(harness.WORK_ROOT))
    try:
        os.environ["SELFNORM_CRITVAL_CACHE"] = os.path.join(work, "critvals.json")
        harness.build_tables((1, 2), dict(os.environ), harness.Path(work), None)
        out = {}
        for name in ("mc_coverage", "mc_bootstrap"):
            ops = harness.McOps(name, harness.REFERENCE_SEED)
            for cell in ops.schedule:
                if cell["key"] not in out:
                    out[cell["key"]] = [
                        [row[k] for k in oracles.REFERENCE_FIELDS] for row in ops.call(cell)
                    ]
        harness.REFERENCE.parent.mkdir(exist_ok=True)
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(out.items())]
        harness.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {len(out)} cells to {harness.REFERENCE}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
