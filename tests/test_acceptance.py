"""Acceptance gate: one test per criterion, each printing a PASS line.

Numbered 1..11.  Monte Carlo tolerances are three binomial standard errors
at the stated replication count unless the criterion fixes its own margin.
Budgets are asserted with a monotonic clock.
"""

import os
import time

import numpy as np
import pytest
from scipy import stats

from selfnorm.core import RngStream
from selfnorm.critvals import simulate_draws, simulate_uq
from selfnorm.dgp import generate_batch
from selfnorm.estimators import EstimatorSpec, batch_prefix_values, prefix_estimates
from selfnorm.inference import sn_pivot, wn_batch, wn_matrix
from selfnorm.montecarlo import (
    run_block_sweep,
    run_coverage,
    run_power,
    run_size,
)
from selfnorm.noncorr import lobato_stat, sn_noncorr_stat


def _passed(num, detail):
    print(f"ACCEPTANCE {num}: PASS - {detail}")


class TestAcceptance:
    def test_01_pivot_hand_value(self):
        seq = prefix_estimates(EstimatorSpec.parse("mean"), np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        w = wn_matrix(seq)[0, 0]
        assert w == pytest.approx(1.04, abs=1e-12)
        piv = sn_pivot(seq, 0.0)
        assert piv == pytest.approx(1125.0 / 26.0, abs=1e-10)
        _passed(1, f"pivot {piv!r} matches 1125/26 with W {float(w)!r}")

    def test_02_spectral_mean_identity(self):
        rng = np.random.default_rng(48271)
        worst = 0.0
        for n, rows in ((57, 50), (200, 50)):
            x = rng.standard_normal((rows, n)) * 3.0 + 1.5
            sm_spec, ac_spec = EstimatorSpec.parse("specmean:pi"), EstimatorSpec.parse("acov:0")
            sm, _ = batch_prefix_values(sm_spec, x)
            ac, _ = batch_prefix_values(ac_spec, x)
            half = ac[:, sm_spec.first_valid() - ac_spec.first_valid():] / 2.0
            worst = max(worst, float(np.max(np.abs(sm - half))))
            ratio, ok = batch_prefix_values(
                EstimatorSpec.parse("specratio:pi"), x)
            assert np.all(ok)
            worst = max(worst, float(np.max(np.abs(ratio - 1.0))))
        assert worst < 1e-10
        _passed(2, f"identity holds on 100 series, max deviation {worst:.2e}")

    def test_03_pivot_distribution_matches_limit(self):
        t0 = time.monotonic()
        base = RngStream(31415)
        x = generate_batch("iidn", 500, [base.child("rep", i) for i in range(5000)])
        spec = EstimatorSpec.parse("mean")
        values, _ = batch_prefix_values(spec, x)
        _, piv, ok, _ = wn_batch(values, spec.first_valid(), 500, 0.0)
        assert bool(np.all(ok))
        ref = simulate_draws(1, 1000, 50000, 99991)
        ks = stats.ks_2samp(piv, ref).statistic
        elapsed = time.monotonic() - t0
        assert ks < 0.05
        assert elapsed < 120
        _passed(3, f"KS distance {ks:.4f} < 0.05 in {elapsed:.0f}s")

    def test_04_critical_value_stability(self):
        t0 = time.monotonic()
        qa = simulate_uq(1, grid=1000, reps=200000, seed=1111).quantile(0.05)
        qb = simulate_uq(1, grid=1000, reps=200000, seed=2222).quantile(0.05)
        qc = simulate_uq(1, grid=4000, reps=200000, seed=1111).quantile(0.05)
        seed_gap = abs(qa - qb) / qa
        grid_gap = abs(qa - qc) / qa
        elapsed = time.monotonic() - t0
        assert seed_gap < 0.02
        assert grid_gap < 0.02
        assert elapsed < 300
        _passed(4, f"q05 {qa:.2f}/{qb:.2f}/{qc:.2f}, seed gap "
                   f"{100 * seed_gap:.2f}%, grid gap {100 * grid_gap:.2f}% "
                   f"in {elapsed:.0f}s")

    def test_05_null_rejection_rates(self):
        t0 = time.monotonic()
        rows = run_size("iidn", 500, ks=(1,), alphas=(0.05,), reps=2000,
                        seed=1)
        rate = {r.method: r.value_pct for r in rows}
        elapsed = time.monotonic() - t0
        assert rate["sn"] == pytest.approx(5.7, abs=1.6)
        assert rate["lobato"] == pytest.approx(5.6, abs=1.6)
        assert elapsed < 600
        _passed(5, f"sn {rate['sn']:.2f} vs 5.7, lobato {rate['lobato']:.2f} "
                   f"vs 5.6 in {elapsed:.0f}s")

    def test_06_size_adjusted_power(self):
        t0 = time.monotonic()
        rows = run_power("ar1:0.5:garch", 100, ks=(1,), alphas=(0.05,),
                         reps=2000, seed=5)
        rate = {r.method: r.value_pct for r in rows}
        elapsed = time.monotonic() - t0
        assert rate["sn"] == pytest.approx(75.7, abs=4.0)
        assert elapsed < 600
        _passed(6, f"sn power {rate['sn']:.2f} vs 75.7 in {elapsed:.0f}s")

    def test_07_autocorrelation_coverage(self):
        t0 = time.monotonic()
        rows = run_coverage("m1", 600, "acf:1", levels=(0.90, 0.95),
                            reps=1000, seed=11)
        cov = {r.level_or_alpha: r for r in rows}
        elapsed = time.monotonic() - t0
        assert cov[0.9].value_pct == pytest.approx(89.7, abs=2.5)
        assert cov[0.95].value_pct == pytest.approx(94.9, abs=2.5)
        # a degenerate region raises inside the runner, so completion plus
        # positive mean widths certify that no replication came up empty
        assert cov[0.9].mean_width > 0 and cov[0.95].mean_width > 0
        assert elapsed < 600
        _passed(7, f"coverage {cov[0.9].value_pct:.2f}/"
                   f"{cov[0.95].value_pct:.2f} vs 89.7/94.9, no empty "
                   f"intervals, in {elapsed:.0f}s")

    def test_08_median_coverage(self):
        t0 = time.monotonic()
        rows = run_coverage("m1", 600, "median", levels=(0.95,), reps=1000,
                            seed=11)
        elapsed = time.monotonic() - t0
        assert rows[0].value_pct == pytest.approx(94.2, abs=2.5)
        assert elapsed < 300
        _passed(8, f"coverage {rows[0].value_pct:.2f} vs 94.2 in "
                   f"{elapsed:.0f}s")

    def test_09_efficient_interval_undercovers(self):
        rows = run_coverage("m1", 600, "acov:1", levels=(0.95,), reps=1000,
                            seed=5, methods=("sn", "eff"))
        cov = {r.method: r.value_pct for r in rows}
        gap = cov["sn"] - cov["eff"]
        assert gap >= 5.0
        _passed(9, f"sn {cov['sn']:.2f} above eff {cov['eff']:.2f} by "
                   f"{gap:.2f} pp")

    def test_10_block_sweep_width_ordering(self):
        t0 = time.monotonic()
        blocks = tuple(range(1, 16))
        jobs = (("mean", 2000), ("acf:1", 2000), ("specratio:pi/2", 500))
        details = []
        # sweep rows do not depend on the worker count (TestWorkerInvariance)
        workers = min(2, os.cpu_count() or 1)
        for target, reps in jobs:
            rows = run_block_sweep("ar1:0.5:normal", 50, target, 0.95,
                                   blocks, boot_reps=1000, reps=reps, seed=1,
                                   workers=workers)
            sn_width = rows[0].mean_width
            by = {(r.method, r.block_length): r for r in rows[1:]}
            for l in blocks:
                assert by[("mbb-sn", l)].mean_width >= sn_width
                assert by[("mbb-pct", l)].mean_width < sn_width
                assert by[("mbb-normal", l)].mean_width < sn_width
            if target == "acf:1":
                wins = sum(
                    by[("mbb-pct", l)].value_pct <= by[("mbb-normal", l)].value_pct
                    for l in blocks)
                assert wins > len(blocks) // 2
                details.append(f"{target}: pct<=normal coverage at {wins}/15")
            ratio = min(by[("mbb-sn", l)].mean_width for l in blocks) / sn_width
            details.append(f"{target}: min mbb-sn/sn width ratio {ratio:.3f}")
        elapsed = time.monotonic() - t0
        assert elapsed < 1800
        _passed(10, "; ".join(details) + f"; {elapsed:.0f}s")

    def test_11_property_spot_checks(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(7)
        x = rng.standard_normal(80)
        moved = -2.5 * x + 4.0

        # test statistics ignore affine maps of the data
        assert sn_noncorr_stat(moved, 2) == pytest.approx(
            sn_noncorr_stat(x, 2), rel=1e-9)
        assert lobato_stat(moved, 2) == pytest.approx(lobato_stat(x, 2),
                                                      rel=1e-9)

        # prefix estimators move with the data as their targets do
        for tgt, out in (("mean", lambda v: -2.5 * v + 4.0),
                         ("acov:1", lambda v: 6.25 * v),
                         ("acf:1", lambda v: v)):
            spec = EstimatorSpec.parse(tgt)
            a, _ = batch_prefix_values(spec, x[None, :])
            b, _ = batch_prefix_values(spec, moved[None, :])
            assert np.allclose(b, out(a), rtol=1e-9, atol=1e-12)

        # least-absolute-deviation fit agrees with a brute-force grid
        from selfnorm.estimators import prefix_lad_ar
        y = rng.standard_normal(12)
        fit = prefix_lad_ar(y, 1).final[0]
        grid = np.arange(-1.5, 1.5, 1e-4)
        loss = np.abs(y[1:, None] - y[:-1, None] * grid[None, :]).sum(axis=0)
        assert abs(fit - grid[int(np.argmin(loss))]) < 2e-4

        # block resampling preserves length and draws only observed values
        from selfnorm.bootstrap import mbb_resample
        star = mbb_resample(x, 7, RngStream(3))
        assert star.shape == x.shape
        assert set(np.round(star, 12)) <= set(np.round(x, 12))

        # replication chunking makes worker count irrelevant
        a_rows = run_size("iidn", 60, ks=(1,), alphas=(0.05,), reps=250,
                          seed=9, workers=1)
        b_rows = run_size("iidn", 60, ks=(1,), alphas=(0.05,), reps=250,
                          seed=9, workers=2)
        assert [(r.method, r.value_pct) for r in a_rows] == \
               [(r.method, r.value_pct) for r in b_rows]

        elapsed = time.monotonic() - t0
        assert elapsed < 120
        _passed(11, f"invariance, equivariance, grid oracle, resample "
                    f"invariants, worker determinism in {elapsed:.0f}s")
