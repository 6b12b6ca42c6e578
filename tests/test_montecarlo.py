"""Experiment harness: worker invariance, CSV schema, study registry."""

import concurrent.futures
import ctypes
import io
import math
import platform

import pytest

from selfnorm import montecarlo
from selfnorm.core import ValidationError
from selfnorm.montecarlo import (
    CSV_COLUMNS,
    MIN_REPS,
    STUDIES,
    ExperimentRow,
    _rate_row,
    _rate_se,
    get_study,
    resolve_reps,
    run_coverage,
    run_block_sweep,
    run_power,
    run_size,
    run_study,
    write_csv,
)


def _row_key(row):
    # NaN != NaN, so a missing width is keyed as None
    width = None if math.isnan(row.mean_width) else row.mean_width
    return (row.model, row.n, row.target, row.method, row.level_or_alpha,
            row.value_pct, row.se_pct, width, row.block_length)


class TestCsv:
    def test_header_comments_and_schema(self):
        rows = [
            ExperimentRow("m1", 600, "acf:1", "sn", 0.95, 94.9, 0.7,
                          mean_width=0.12),
            ExperimentRow("m1", 600, "acf:1", "sn", 0.9, 89.7, 1.0,
                          mean_width=float("nan"), block_length=None),
        ]
        buf = io.StringIO()
        write_csv(rows, buf, comments=["how this was produced"])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# how this was produced"
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert lines[2].split(",")[:4] == ["m1", "600", "acf:1", "sn"]
        # missing width and block length serialize as empty fields
        assert lines[3].endswith(",,")

    def test_rate_se_hand_value(self):
        assert _rate_se(0.5, 100) == pytest.approx(5.0)
        assert _rate_se(0.0, 50) == 0.0

    def test_rate_row_hand_values(self):
        row = _rate_row("iidn", 40, "mean", "mbb", 0.9, [True, False, True, True],
                        widths=[1.0, 2.0, 3.0, 6.0], block=3)
        assert row == ExperimentRow("iidn", 40, "mean", "mbb", 0.9, 75.0,
                                    _rate_se(0.75, 4), 3.0, 3)

    def test_rate_row_without_widths(self):
        row = _rate_row("iidn", 40, "noncorr:1", "sn", 0.05, [False] * 19 + [True])
        assert (row.value_pct, row.se_pct) == (5.0, _rate_se(0.05, 20))
        assert math.isnan(row.mean_width)
        assert row.block_length is None


class TestWorkerInvariance:
    def test_coverage_rows_identical_across_worker_counts(self):
        kwargs = dict(model="iidn", n=60, target="mean", levels=(0.9,),
                      reps=450, seed=77)
        serial = run_coverage(**kwargs, workers=1)
        parallel = run_coverage(**kwargs, workers=2)
        assert [_row_key(r) for r in serial] == [_row_key(r) for r in parallel]

    def test_size_rows_identical_across_worker_counts(self):
        kwargs = dict(model="iidn", n=80, ks=(1,), alphas=(0.05,),
                      reps=250, seed=78)
        serial = run_size(**kwargs, workers=1)
        parallel = run_size(**kwargs, workers=3)
        assert [_row_key(r) for r in serial] == [_row_key(r) for r in parallel]

    def test_power_rows_identical_across_worker_counts(self):
        kwargs = dict(model="ar1:0.3:garch", n=80, ks=(1,), alphas=(0.05,),
                      reps=250, seed=79)
        serial = run_power(**kwargs, workers=1)
        montecarlo._NULL_STATS.clear()  # so the null pass runs in the pool too
        parallel = run_power(**kwargs, workers=2)
        assert [_row_key(r) for r in serial] == [_row_key(r) for r in parallel]

    def test_sweep_rows_identical_across_worker_counts(self):
        # 210 replications make two chunks, so the second worker gets one
        kwargs = dict(model="ar1:0.5:normal", n=50, target="mean", level=0.95,
                      block_lengths=(2, 5), boot_reps=100, reps=210, seed=80)
        serial = run_block_sweep(**kwargs, workers=1)
        parallel = run_block_sweep(**kwargs, workers=2)
        assert len(serial) == 7  # the sn row, then 3 schemes x 2 blocks
        assert [_row_key(r) for r in serial] == [_row_key(r) for r in parallel]


class TestChunkEngine:
    def test_single_chunk_runs_without_a_pool(self, monkeypatch):
        kwargs = dict(model="m1", n=150, target="mean", levels=(0.9,), reps=50, seed=1)
        serial = run_coverage(**kwargs, workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started for a single chunk")

        # _run_chunks imports the pool class from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        parallel = run_coverage(**kwargs, workers=2)
        assert [_row_key(r) for r in parallel] == [_row_key(r) for r in serial]

    def test_power_alternatives_share_one_null_pass(self, monkeypatch):
        calls = []
        real_chunk = montecarlo._test_stats_chunk

        def counting_chunk(model, *args):
            calls.append(model)
            return real_chunk(model, *args)

        monkeypatch.setattr(montecarlo, "_test_stats_chunk", counting_chunk)
        monkeypatch.setattr(montecarlo, "_NULL_STATS", {})
        kwargs = dict(n=60, ks=(1, 2), alphas=(0.05,), reps=100, seed=81)
        models = ("ar1:0.2:garch", "ar1:0.4:garch")
        cached = [run_power(m, **kwargs) for m in models]
        assert calls.count("ar1:0:garch") == 1
        (null,) = montecarlo._NULL_STATS.values()
        assert not any(vals.flags.writeable for vals in null.values())
        fresh = []
        for m in models:
            montecarlo._NULL_STATS.clear()
            fresh.append(run_power(m, **kwargs))
        assert calls.count("ar1:0:garch") == 3
        assert ([[_row_key(r) for r in rows] for rows in cached]
                == [[_row_key(r) for r in rows] for rows in fresh])


class _FakeLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


class TestKeepHeap:
    def test_sets_both_thresholds_once(self, monkeypatch):
        lib = _FakeLibc()
        monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
        monkeypatch.setattr(montecarlo, "_heap_kept", False)
        montecarlo._keep_heap()
        assert lib.calls == [(-3, 32 << 20), (-1, 64 << 20)]
        montecarlo._keep_heap()
        assert len(lib.calls) == 2

    @pytest.mark.parametrize("libc", ["unloadable", "without-mallopt"])
    def test_silent_no_op_without_mallopt(self, monkeypatch, libc):
        kwargs = dict(model="m1", n=150, target="acf:1", levels=(0.9,), reps=50, seed=2)
        expected = [_row_key(r) for r in run_coverage(**kwargs)]

        def cdll(name):
            if libc == "unloadable":
                raise OSError(f"{name}: cannot open shared object file")
            return object()  # a library with no mallopt symbol

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        monkeypatch.setattr(montecarlo, "_heap_kept", False)
        assert [_row_key(r) for r in run_coverage(**kwargs)] == expected
        assert montecarlo._heap_kept

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the malloc thresholds are set on glibc only")
    def test_warm_sweep_does_not_fault_pages_back_in(self):
        import resource

        kwargs = dict(model="ar1:0.5:normal", n=50, target="acf:1", level=0.95,
                      block_lengths=(1, 5, 10), boot_reps=1000, reps=2, seed=3)
        run_block_sweep(**kwargs)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_block_sweep(**kwargs)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 500  # about 5000 with glibc's dynamic thresholds


class TestRunners:
    def test_size_row_layout(self):
        rows = run_size("iidn", 80, ks=(1, 2), alphas=(0.05, 0.10),
                        reps=100, seed=3)
        assert len(rows) == 12  # 2 lags x 2 levels x 3 methods
        assert {r.method for r in rows} == {"lobato", "sn", "nw"}
        assert all(r.target.startswith("noncorr:") for r in rows)
        assert all(0.0 <= r.value_pct <= 100.0 for r in rows)

    def test_power_of_null_model_is_its_size(self):
        # with the alternative equal to its own null companion, the
        # size-adjusted rejection rate sits at the nominal level
        rows = run_power("ar1:0:garch", 60, ks=(1,), alphas=(0.05,),
                         reps=200, seed=4)
        for row in rows:
            assert row.value_pct == pytest.approx(5.0, abs=2.0)

    def test_coverage_covers_truth_most_of_the_time(self):
        rows = run_coverage("m1", 150, "acf:1", levels=(0.9, 0.95),
                            reps=200, seed=5)
        by_level = {r.level_or_alpha: r for r in rows}
        assert by_level[0.9].value_pct > 70.0
        assert by_level[0.95].value_pct > by_level[0.9].value_pct - 5.0
        assert all(r.mean_width > 0 for r in rows)

    def test_coverage_lad_branch(self):
        rows = run_coverage("m1", 80, "ladar:1", levels=(0.9,), reps=60, seed=6)
        assert len(rows) == 1
        assert math.isnan(rows[0].mean_width)
        assert rows[0].value_pct > 50.0


class TestStudyRegistry:
    def test_all_studies_well_formed(self):
        for name, job in STUDIES.items():
            assert job.name == name
            assert job.kind in ("size", "power", "coverage", "sweep")
            assert job.full_reps >= 500
            if job.kind in ("size", "power"):
                assert job.models and job.ks and job.alphas
            elif job.kind == "coverage":
                assert job.pairs and job.levels
            else:
                assert job.block_lengths and job.boot_reps > 0

    def test_expected_names_present(self):
        expect = {"1a", "1b", "2a", "2b", "3a", "3b", "4a", "4b", "5a", "5b",
                  "fig1", "fig2", "fig3", "fig4"}
        assert expect == set(STUDIES)

    def test_get_study_rejects_unknown(self):
        with pytest.raises(ValidationError) as err:
            get_study("nosuch")
        assert "1a" in str(err.value)

    def test_resolve_reps(self):
        job = get_study("5a")
        assert resolve_reps(job, 0.2, None) == max(MIN_REPS, round(job.full_reps * 0.2))
        assert resolve_reps(job, 1e-9, None) == MIN_REPS
        assert resolve_reps(job, 0.2, 123) == 123

    def test_run_study_smoke(self):
        rows = run_study("5a", reps=MIN_REPS, seed=11)
        # six models, two sizes, two levels
        assert len(rows) == 24
        assert {r.target for r in rows} == {"median"}
        assert all(r.method == "sn" for r in rows)
