"""End-to-end CLI checks through ``python -m selfnorm``.

Each command runs in a child process of the interpreter that runs the suite,
importing the same ``selfnorm`` package as the tests, so no install is needed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selfnorm
from selfnorm import cli

_CONST = "\n".join(["5.0"] * 60) + "\n"


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run_cli(args, stdin=None, module=True):
    # the child imports the package under test, not an installed copy
    src = str(Path(selfnorm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    prefix = ["-m", "selfnorm"] if module else []
    return subprocess.run([sys.executable, *prefix, *args],
                          input=stdin, capture_output=True, text=True,
                          env=env)


@pytest.fixture(scope="module")
def m1_series():
    r = run_cli(["generate", "--model", "m1", "--n", "80", "--seed", "7"])
    assert r.returncode == 0
    return r.stdout


class TestGenerate:
    def test_header_and_determinism(self, m1_series):
        lines = m1_series.splitlines()
        assert lines[0] == "# selfnorm generate --model m1 --n 80 --seed 7"
        assert len(lines) == 81
        float(lines[1])  # body parses as numbers
        again = run_cli(["generate", "--model", "m1", "--n", "80", "--seed", "7"])
        assert again.stdout == m1_series
        other = run_cli(["generate", "--model", "m1", "--n", "80", "--seed", "8"])
        assert other.stdout != m1_series

    def test_output_file(self, tmp_path, m1_series):
        out = tmp_path / "series.txt"
        r = run_cli(["generate", "--model", "m1", "--n", "80", "--seed", "7",
                     "--output", str(out)])
        assert r.returncode == 0
        assert out.read_text() == m1_series

    def test_bad_model(self):
        r = run_cli(["generate", "--model", "nosuch", "--n", "50"])
        assert r.returncode == 1
        assert "nosuch" in r.stderr


class TestCi:
    def test_pipe_and_contract(self, m1_series):
        r = run_cli(["ci", "--stat", "mean", "--method", "sn"],
                    stdin=m1_series)
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert set(out) == {"estimator", "estimate", "N", "level", "critval",
                            "L", "U"}
        assert out["L"] <= out["estimate"] <= out["U"]
        assert out["N"] == 80
        assert r.stderr.startswith("# selfnorm ci --stat mean --method sn")

    def test_file_argument_matches_stdin(self, tmp_path, m1_series):
        p = tmp_path / "x.txt"
        p.write_text(m1_series)
        from_file = run_cli(["ci", "--stat", "acf:1", "--method", "sn",
                             str(p)])
        piped = run_cli(["ci", "--stat", "acf:1", "--method", "sn", "-"],
                        stdin=m1_series)
        assert from_file.stdout == piped.stdout

    def test_mbb_requires_block(self, m1_series):
        r = run_cli(["ci", "--stat", "mean", "--method", "mbb-pct"],
                    stdin=m1_series)
        assert r.returncode == 1
        assert "requires --block" in r.stderr

    def test_bootstrap_flags_rejected_for_sn(self, m1_series):
        r = run_cli(["ci", "--stat", "mean", "--method", "sn", "--seed", "3"],
                    stdin=m1_series)
        assert r.returncode == 1
        assert "only applies to the mbb methods" in r.stderr
        r = run_cli(["ci", "--stat", "mean", "--method", "sn", "--block", "4"],
                    stdin=m1_series)
        assert r.returncode == 1
        assert "only applies to the mbb methods" in r.stderr

    def test_constant_series_outcomes(self):
        r = run_cli(["ci", "--stat", "mean", "--method", "sn"], stdin=_CONST)
        assert r.returncode == 2
        assert "not positive" in r.stderr

        r = run_cli(["ci", "--stat", "mean", "--method", "mbb-pct",
                     "--block", "4", "--seed", "1"], stdin=_CONST)
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["L"] == out["U"] == 5.0

        r = run_cli(["ci", "--stat", "mean", "--method", "mbb-sn",
                     "--block", "4", "--seed", "1", "--reps", "100"],
                    stdin=_CONST)
        assert r.returncode == 2
        assert "stayed degenerate" in r.stderr

    def test_mbb_contract(self, m1_series):
        r = run_cli(["ci", "--stat", "mean", "--method", "mbb-sn",
                     "--block", "5", "--seed", "1", "--reps", "200"],
                    stdin=m1_series)
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert set(out) == {"scheme", "estimator", "estimate", "N", "level",
                            "block_length", "replications", "L", "U",
                            "critval"}
        assert out["scheme"] == "mbb-sn"
        assert out["replications"] == 200

    @pytest.mark.parametrize("stat,dim", [("ladar:1", 1), ("ladar:2", 2)])
    def test_mbb_sn_without_batch_kernel(self, m1_series, stat, dim):
        r = run_cli(["ci", "--stat", stat, "--method", "mbb-sn",
                     "--block", "5", "--seed", "1", "--reps", "20"],
                    stdin=m1_series)
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout, parse_constant=_reject_constant)
        assert out["estimator"] == stat
        if dim == 1:
            assert out["L"] <= out["estimate"] <= out["U"]
        else:
            assert out["estimate"] == out["center"]
            assert len(out["estimate"]) == dim

    @pytest.mark.parametrize("method", ["mbb-pct", "mbb-normal"])
    def test_scalar_schemes_without_batch_kernel(self, m1_series, method):
        r = run_cli(["ci", "--stat", "ladar:1", "--method", method,
                     "--block", "5", "--seed", "1", "--reps", "20"],
                    stdin=m1_series)
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout, parse_constant=_reject_constant)
        assert out["estimator"] == "ladar:1"
        assert out["L"] <= out["U"]

    def test_scalar_schemes_reject_vector_estimators(self, m1_series):
        r = run_cli(["ci", "--stat", "ladar:2", "--method", "mbb-pct",
                     "--block", "5", "--seed", "1", "--reps", "20"],
                    stdin=m1_series)
        assert r.returncode == 1
        assert r.stderr.splitlines() == [
            "selfnorm: percentile scheme handles scalar estimators only"]

    def test_alpha_rounding_to_zero_is_a_usage_error(self, m1_series):
        r = run_cli(["ci", "--stat", "mean", "--level", "0.9999999"],
                    stdin=m1_series)
        assert r.returncode == 1
        assert r.stderr.splitlines() == [
            "selfnorm: alpha must be in (0, 1), got 0.0"]


class TestNoncorr:
    def test_contract(self, m1_series):
        r = run_cli(["test-noncorr", "--k", "2", "--method", "sn"],
                    stdin=m1_series)
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert set(out) == {"method", "k", "statistic", "critical_value",
                            "alpha", "reject"}
        assert out["reject"] == (out["statistic"] > out["critical_value"])

    def test_alpha_changes_critical_value(self, m1_series):
        a5 = json.loads(run_cli(["test-noncorr", "--k", "1", "--method", "nw",
                                 "--alpha", "0.05"], stdin=m1_series).stdout)
        a10 = json.loads(run_cli(["test-noncorr", "--k", "1", "--method", "nw",
                                  "--alpha", "0.10"], stdin=m1_series).stdout)
        assert a5["critical_value"] > a10["critical_value"]
        assert a5["statistic"] == a10["statistic"]

    @pytest.mark.parametrize("k,message", [
        ("0", "k must be >= 1"),
        ("100", "series has 80 observations, need at least 121"),
    ])
    def test_k_checked_before_critical_value(self, tmp_path, monkeypatch,
                                             capsys, m1_series, k, message):
        def refuse(*args, **kwargs):
            raise AssertionError("critical value looked up before k was checked")

        monkeypatch.setattr(cli, "get_quantile", refuse)
        path = tmp_path / "x.txt"
        path.write_text(m1_series)
        assert cli.main(["test-noncorr", "--k", k, str(path)]) == 1
        assert capsys.readouterr().err == f"selfnorm: {message}\n"


class TestCritvals:
    def test_metadata_contract(self):
        r = run_cli(["critvals", "--q", "1", "--alpha", "0.05",
                     "--grid", "200", "--reps", "4000", "--seed", "9"])
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert set(out) == {"q", "grid", "reps", "seed", "cache", "alpha",
                            "quantile"}
        assert out["cache"] == os.environ["SELFNORM_CRITVAL_CACHE"]
        assert out["quantile"] == pytest.approx(45.4, rel=0.1)

    def test_alpha_rounding_to_zero_is_a_usage_error(self):
        r = run_cli(["critvals", "--q", "1", "--alpha", "1e-7"])
        assert r.returncode == 1
        assert r.stderr.splitlines() == [
            "selfnorm: alpha must be in (0, 1), got 0.0"]

    @pytest.mark.parametrize("args,message", [
        (["--q", "0"], "dimension q must be >= 1"),
        (["--q", "1", "--grid", "1"], "grid 1 too coarse for dimension 1"),
    ])
    def test_table_arguments_are_checked_before_the_echo(self, args, message):
        r = run_cli(["critvals", *args])
        assert r.returncode == 1
        assert r.stderr.splitlines() == [f"selfnorm: {message}"]


_SCIPY_FREE = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import selfnorm
print(scipy_modules())
import selfnorm.cli
print(scipy_modules())
for args in (["ci", "--stat", "mean"], ["ci", "--stat", "specratio:pi/2"],
             ["test-noncorr", "--k", "2", "--method", "sn"],
             ["test-noncorr", "--k", "2", "--method", "lobato"]):
    assert selfnorm.cli.main([*args, sys.argv[1]]) == 0
    print(scipy_modules(), file=sys.stderr)
"""


class TestStartup:
    def test_serving_path_does_not_import_scipy(self, tmp_path, m1_series):
        # warm the tables the requests read, then run them in a fresh interpreter
        from selfnorm.critvals import get_quantile

        get_quantile(1, 0.05)
        get_quantile(2, 0.05)
        path = tmp_path / "x.txt"
        path.write_text(m1_series)
        r = run_cli(["-c", _SCIPY_FREE, str(path)], module=False)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[:2] == ["[]", "[]"]
        assert [line for line in r.stderr.splitlines()
                if not line.startswith("# selfnorm")] == ["[]"] * 4


class TestSimulate:
    def test_unknown_study(self):
        r = run_cli(["simulate", "--table", "nosuch"])
        assert r.returncode == 1
        assert "unknown study 'nosuch'" in r.stderr
        assert "fig4" in r.stderr

    def test_csv_shape_and_worker_invariance(self):
        base = ["simulate", "--table", "5a", "--reps", "50", "--seed", "2"]
        one = run_cli([*base, "--workers", "1"])
        two = run_cli([*base, "--workers", "2"])
        assert one.returncode == two.returncode == 0
        lines = one.stdout.splitlines()
        assert lines[0] == ("# selfnorm simulate --table 5a --reps 50"
                            " --seed 2 --workers 1")
        assert lines[1] == "# full replication count 10000, this run 50"
        assert lines[2] == ("model,n,target,method,level_or_alpha,"
                            "value_pct,se_pct,mean_width,block_length")
        # identical data rows regardless of process fan-out
        assert lines[1:] == two.stdout.splitlines()[1:]
        rerun = run_cli([*base, "--workers", "1"])
        assert rerun.stdout == one.stdout
