"""Seeded outputs do not depend on the CPU kernel OpenBLAS picks at run time.

An OpenBLAS built with DYNAMIC_ARCH chooses its kernels for the CPU it runs
on, and ``OPENBLAS_CORETYPE`` forces one.  Kernels for different CPUs sum in
different orders, so any seeded output that goes through BLAS can change in
its last bits from one machine to the next.  One script hashes the series,
normalizers, statistics, U_q draws, pivots and the population values of every
study under four core types; every hash must be the same under all four.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selfnorm

CORETYPES = (None, "Haswell", "Sandybridge", "Prescott")

SCRIPT = r"""
import hashlib

import numpy as np

from selfnorm.core import EstimateSequence, RngStream
from selfnorm.critvals import u_stat_from_increments
from selfnorm.dgp import generate_batch, true_value
from selfnorm.estimators import EstimatorSpec, prefix_estimates
from selfnorm.inference import sn_pivot, wn_batch
from selfnorm.montecarlo import STUDIES
from selfnorm.noncorr import lobato_stat_batch, sn_noncorr_stat_batch


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


root = RngStream(1)
models = [f"m{i}" for i in range(1, 10)]
models += [f"ar1:{rho}:{innov}" for rho in ("0.5", "0.8") for innov in ("normal", "garch", "bilinear")]
for name in models:
    for b in (1, 50):
        x = generate_batch(name, 600, [root.child("rep", i) for i in range(b)])
        print("generate", name, b, digest(x))

rng = np.random.default_rng(1)
for q in (1, 2, 3):
    z = rng.standard_normal((50, 600, q))
    means = np.cumsum(z, axis=1) / np.arange(1, 601)[:, None]
    print("wn_batch", q, digest(*wn_batch(means, 1, 600, theta0=0.1)))

x = rng.standard_normal((50, 600))
x[:, 1:] += 0.3 * x[:, :-1]
for k in (1, 2, 5):
    print("sn_noncorr", k, digest(*sn_noncorr_stat_batch(x, k)))
    print("lobato", k, digest(*lobato_stat_batch(x, k)))

for q in (1, 3, 6):
    print("u_stat", q, digest(*u_stat_from_increments(rng.standard_normal((64, q, 1000)))))

# the truths that decide every coverage indicator of the studies
pairs = {(kw["model"], kw["target"]) for job in STUDIES.values() for _, kw in job.cells
         if "target" in kw}
for model, target in sorted(pairs):
    print("true_value", model, target, digest(np.asarray(true_value(model, target), dtype=float)))

for target in ("mean", "median", "acov:1", "acf:1", "specmean:pi/2", "specratio:pi/2"):
    seq = prefix_estimates(EstimatorSpec.parse(target), x[0])
    print("sn_pivot", target, digest(np.float64(sn_pivot(seq, 0.1))))
for q in (2, 5):
    z = rng.standard_normal((600, q))
    seq = EstimateSequence(np.cumsum(z, axis=0) / np.arange(1, 601)[:, None], 1, 600)
    print("sn_pivot", q, digest(np.float64(sn_pivot(seq, np.full(q, 0.1)))))
"""


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", "")


def _hashes(coretype):
    env = dict(os.environ)
    src = str(Path(selfnorm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    return dict(line.rsplit(" ", 1) for line in out.splitlines())


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the forced core types are x86 kernels")
@pytest.mark.skipif(not _dynamic_openblas(),
                    reason="numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH, "
                           "so OPENBLAS_CORETYPE selects nothing")
def test_one_hash_per_output_under_four_core_types():
    runs = {coretype: _hashes(coretype) for coretype in CORETYPES}
    base = runs[None]
    assert len(base) == 98
    differ = sorted(item for item in base
                    if len({run[item] for run in runs.values()}) > 1)
    assert not differ, f"outputs that depend on the BLAS kernel: {differ}"
