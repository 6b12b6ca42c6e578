"""Experiment harness: worker invariance, CSV schema, study registry."""

import io
import math

import pytest

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
