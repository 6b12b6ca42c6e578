"""End-to-end CLI checks through ``python -m selfnorm``.

Each command runs in a child process of the interpreter that runs the suite,
importing the same ``selfnorm`` package as the tests, so no install is needed.
"""

import importlib.resources
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selfnorm
from selfnorm import cli, noncorr

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
        for flag, value in (("--seed", "3"), ("--block", "4"), ("--reps", "5")):
            r = run_cli(["ci", "--stat", "mean", "--method", "sn", flag, value],
                        stdin=m1_series)
            assert r.returncode == 1
            assert r.stderr.splitlines() == [
                f"selfnorm: {flag} only applies to the mbb methods"]

    def test_level_out_of_range(self, m1_series):
        r = run_cli(["ci", "--stat", "mean", "--level", "1.5"], stdin=m1_series)
        assert r.returncode == 1
        assert r.stderr.splitlines() == ["selfnorm: level must be in (0, 1), got 1.5"]

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
        assert r.stderr.splitlines() == [
            "selfnorm: numerical failure: 100 of 100 bootstrap resamples dropped: "
            "0 undefined after 5 redraws, 100 with a singular W*"]

    def test_undefined_resamples_named_as_such(self):
        # most block-1 resamples of a series of zeros after 1, -1 begin with a
        # constant stretch, so their acf:1 stays undefined after the redraws
        sparse = "1\n-1\n" + "0\n" * 30
        r = run_cli(["ci", "--stat", "acf:1", "--method", "mbb-pct",
                     "--block", "1", "--seed", "1", "--reps", "50"], stdin=sparse)
        assert r.returncode == 2
        assert r.stderr.splitlines() == [
            "selfnorm: numerical failure: 14 of 50 bootstrap resamples dropped: "
            "14 undefined after 5 redraws, 0 with a singular W*"]

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
            "selfnorm: level 0.9999999 rounds to 1 at six decimals"]


    def test_echo_reproduces_the_request(self, tmp_path, m1_series):
        path = tmp_path / "x.txt"
        path.write_text(m1_series)
        r = run_cli(["ci", "--stat", "mean", "--method", "mbb-sn", "--block", "5", "--reps", "50",
                     "--seed", "1", "--level", "0.9999999", str(path)])
        assert r.returncode == 0, r.stderr
        assert "--level 0.9999999 " in r.stderr
        assert _rerun_echo(r) == r.stdout

    def test_level_rounding_to_zero_names_the_level(self, m1_series):
        r = run_cli(["ci", "--stat", "mean", "--level", "1e-300"], stdin=m1_series)
        assert r.returncode == 1
        assert r.stderr.splitlines() == [
            "selfnorm: level 1e-300 rounds to 0 at six decimals"]

    def test_series_checked_before_critical_value(self, tmp_path, monkeypatch, capsys):
        # one prefix of ladar:590 cannot give W; the lookup would reject q = 590
        def refuse(*args, **kwargs):
            raise AssertionError("critical value looked up before the series was checked")

        monkeypatch.setattr(cli, "get_quantile", refuse)
        path = tmp_path / "x.txt"
        path.write_text("".join(f"{v!r}\n" for v in np.sin(np.arange(600.0)).tolist()))
        assert cli.main(["ci", "--stat", "ladar:590", str(path)]) == 1
        assert capsys.readouterr().err == (
            "selfnorm: series has 600 observations, need at least 601\n")


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

    @pytest.mark.parametrize("method", ["sn", "lobato"])
    def test_alpha_rounding_to_zero_names_the_alpha(self, tmp_path, method):
        # checked before the series is read: the file does not exist
        r = run_cli(["test-noncorr", "--k", "1", "--method", method, "--alpha", "1e-7",
                     str(tmp_path / "missing.txt")])
        assert r.returncode == 1
        assert r.stderr.splitlines() == ["selfnorm: alpha 1e-07 rounds to 0 at six decimals"]

    @pytest.mark.parametrize("method", ["sn", "lobato", "nw"])
    def test_alpha_out_of_range(self, tmp_path, method):
        # the wording critvals uses; checked before the series is read
        r = run_cli(["test-noncorr", "--k", "1", "--method", method, "--alpha", "1.5",
                     str(tmp_path / "missing.txt")])
        assert r.returncode == 1
        assert r.stderr.splitlines() == ["selfnorm: alpha must be in (0, 1), got 1.5"]

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_nw_at_extreme_scales(self, tmp_path, m1_series, scale):
        x = np.loadtxt(m1_series.splitlines())
        path = tmp_path / "x.txt"
        path.write_text("\n".join(repr(v) for v in (scale * x).tolist()) + "\n")
        r = run_cli(["test-noncorr", "--k", "2", "--method", "nw", str(path)])
        assert r.returncode == 0, r.stderr
        base = run_cli(["test-noncorr", "--k", "2", "--method", "nw"], stdin=m1_series)
        assert json.loads(r.stdout)["statistic"] == pytest.approx(
            json.loads(base.stdout)["statistic"], rel=1e-13)

    def test_nw_answers_at_any_alpha(self, tmp_path, m1_series):
        # nw reads no table, so its alpha is not rounded
        path = tmp_path / "x.txt"
        path.write_text(m1_series)
        r = run_cli(["test-noncorr", "--k", "1", "--method", "nw", "--alpha", "1e-7", str(path)])
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["alpha"] == 1e-7
        assert "--alpha 1e-07 " in r.stderr
        assert _rerun_echo(r) == r.stdout

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


# overflowing sums and products on the way to the package's own check must
# not print numpy warnings ahead of its one line
_HUGE = "".join(f"{v:g}\n" for v in np.where(
    np.random.default_rng(0).random(60) < 0.5, -1e308, 1e308))
# alternating signs keep every prefix mean and median finite while the
# median's t-weighted deviations and the resampled trajectories overflow
_ALTERNATING = "1e+308\n-1e+308\n" * 30
# the mean's W is in range once scaled, but its interval is not
_WIDE = "1.7e308\n0\n0\n0\n-1.7e308\n"
# every lag sum of a constant series is zero, so the sn normalizer is too
_CONSTANT = "1\n" * 60


_M1 = np.loadtxt(Path(__file__).resolve().parent / "data" / "golden" / "series_m1.txt")
# each statistic's degree in the data's scale
_DEGREE = {"mean": 1, "median": 1, "acov:1": 2, "acf:1": 0, "specmean:pi/2": 2,
           "specratio:pi/2": 0, "ladar:1": 0}


def _ci_scaled(tmp_path, capsys, scale, *args):
    """The ci JSON for the m1 golden series times scale, run in-process."""
    path = tmp_path / "x.txt"
    path.write_text("".join(f"{v!r}\n" for v in (scale * _M1).tolist()))
    code = cli.main(["ci", *args, str(path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    return json.loads(out)


class TestExtremeScales:
    """W grows as the square of the estimates' scale and may leave the double
    range where the pivot does not; the interval follows the data's scale."""

    @pytest.mark.parametrize("stat", list(_DEGREE))
    @pytest.mark.parametrize("p", [400, -400])
    def test_power_of_two_scale_is_exact(self, tmp_path, capsys, stat, p):
        base = _ci_scaled(tmp_path, capsys, 1.0, "--stat", stat)
        out = _ci_scaled(tmp_path, capsys, 2.0 ** p, "--stat", stat)
        factor = 2.0 ** (p * _DEGREE[stat])
        assert out["critval"] == base["critval"]
        for key in ("estimate", "L", "U"):
            assert out[key] == base[key] * factor, key

    @pytest.mark.parametrize("stat", list(_DEGREE))
    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_decimal_scale_within_1e_14(self, tmp_path, capsys, stat, scale):
        base = _ci_scaled(tmp_path, capsys, 1.0, "--stat", stat)
        out = _ci_scaled(tmp_path, capsys, scale, "--stat", stat)
        for key in ("L", "U"):
            assert out[key] == pytest.approx(base[key] * scale ** _DEGREE[stat], rel=1e-14)

    def test_mbb_sn_power_of_two_scale_is_exact(self, tmp_path, capsys):
        args = ("--stat", "acov:1", "--method", "mbb-sn", "--block", "5", "--reps", "200",
                "--seed", "1")
        base = _ci_scaled(tmp_path, capsys, 1.0, *args)
        out = _ci_scaled(tmp_path, capsys, 2.0 ** 400, *args)
        assert out["critval"] == base["critval"]
        for key in ("estimate", "L", "U"):
            assert out[key] == base[key] * 2.0 ** 800, key

    def test_noncorr_sn_answers_on_the_largest_doubles(self):
        # the lag products of +-1e308 overflow unless the rows are scaled first
        r = run_cli(["test-noncorr", "--k", "2", "--method", "sn"], stdin=_HUGE)
        assert r.returncode == 0, r.stderr
        unit = noncorr.sn_noncorr_stat(np.ldexp(np.loadtxt(_HUGE.splitlines()), -1024), 2)
        assert json.loads(r.stdout)["statistic"] == unit

    def test_mean_answers_where_w_squares_past_the_range(self):
        # dev_t is 1e308 at odd t and 0 at even t, so W = 1e616 / 120
        r = run_cli(["ci", "--stat", "mean"], stdin=_ALTERNATING)
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout)
        assert out["estimate"] == 0.0
        assert out["U"] == -out["L"] == pytest.approx(1e308 * (out["critval"] / 7200) ** 0.5,
                                                      rel=1e-14)


class TestNumericalFailure:
    @pytest.mark.parametrize("args,series", [
        *(pytest.param(["ci", "--stat", s], _HUGE, id=f"ci-{s}")
          for s in ("mean", "median", "acov:1", "acf:1", "specmean:pi/2",
                    "specratio:pi/2", "ladar:1")),
        pytest.param(["test-noncorr", "--k", "2", "--method", "sn"], _CONSTANT,
                     id="test-noncorr-sn"),
        *(pytest.param(["test-noncorr", "--k", "2", "--method", m], _HUGE, id=f"test-noncorr-{m}")
          for m in ("lobato", "nw")),
        pytest.param(["ci", "--stat", "median"], _ALTERNATING, id="ci-median-alternating"),
        pytest.param(["ci", "--stat", "mean"], _WIDE, id="ci-mean-bounds-overflow"),
        *(pytest.param(["ci", "--stat", s, "--method", m, "--block", "5", "--reps", "200",
                        "--seed", "1"], _ALTERNATING, id=f"ci-{s}-{m}-alternating")
          for s in ("mean", "median") for m in ("mbb-pct", "mbb-normal")),
    ])
    def test_one_line_on_stderr(self, args, series):
        r = run_cli(args, stdin=series)
        assert r.returncode == 2
        lines = r.stderr.splitlines()
        assert len(lines) == 1, r.stderr
        assert lines[0].startswith("selfnorm: numerical failure:")


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

    def test_shipped_table_reports_the_shipped_file(self, tmp_path, monkeypatch):
        cache = tmp_path / "fresh" / "cache.json"
        monkeypatch.setenv("SELFNORM_CRITVAL_CACHE", str(cache))
        r = run_cli(["critvals", "--q", "2"])
        assert r.returncode == 0, r.stderr
        shipped = importlib.resources.files("selfnorm") / "critvals_default.json"
        assert json.loads(r.stdout)["cache"] == str(shipped)
        assert not cache.exists()

    def test_alpha_rounding_to_zero_is_a_usage_error(self):
        r = run_cli(["critvals", "--q", "1", "--alpha", "1e-7"])
        assert r.returncode == 1
        assert r.stderr.splitlines() == [
            "selfnorm: alpha 1e-07 rounds to 0 at six decimals"]

    def test_alpha_out_of_range(self):
        r = run_cli(["critvals", "--q", "1", "--alpha", "1.5"])
        assert r.returncode == 1
        assert r.stderr.splitlines() == ["selfnorm: alpha must be in (0, 1), got 1.5"]

    _TOY = ["critvals", "--q", "1", "--alpha", "0.2", "--grid", "150", "--reps", "1000"]

    def test_directory_as_cache_still_answers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SELFNORM_CRITVAL_CACHE", str(tmp_path))
        r = run_cli(self._TOY)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["quantile"] > 0
        note = r.stderr.splitlines()[1:]
        assert len(note) == 1 and note[0].startswith("selfnorm: critical values not cached:")

    def test_refused_store_still_answers(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        monkeypatch.setattr(os, "replace", refuse)
        assert cli.main([*self._TOY, "--cache", str(tmp_path / "cache.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cache"] is None and out["quantile"] > 0

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


_LOADED = """
import sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("selfnorm."))

"""

_MODULES_AFTER_MAIN = _LOADED + """
from selfnorm.cli import main

assert main(sys.argv[1:]) == 0
print(*loaded())
"""

_RANDOM_AFTER_MAIN = """
import sys
from selfnorm.cli import main

assert main(sys.argv[1:]) == 0
print([m for m in ("numpy.random", "_hashlib") if m in sys.modules])
"""

_EXPORTS_RESOLVE = """
import selfnorm

names = {}
exec("from selfnorm import " + ", ".join(selfnorm.__all__), names)
for name in selfnorm.__all__:
    assert names[name] is getattr(selfnorm, name), name
print(loaded())
print(selfnorm.montecarlo.run_study.__module__)
"""


def _rerun_echo(r):
    """stdout of the command that a run echoed on stderr."""
    (echo,) = [line for line in r.stderr.splitlines() if line.startswith("# selfnorm ")]
    again = run_cli(echo.split()[2:])
    assert again.returncode == 0, again.stderr
    return again.stdout


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

    @pytest.mark.parametrize("args,loaded", [
        (["ci", "--stat", "mean", "SERIES"], ()),
        (["critvals", "--q", "1"], ()),
        (["test-noncorr", "--k", "2", "--method", "sn", "SERIES"], ("noncorr",)),
    ], ids=["ci", "critvals", "test-noncorr"])
    def test_subcommand_loads_only_the_modules_it_runs(self, tmp_path, m1_series,
                                                       args, loaded):
        path = tmp_path / "x.txt"
        path.write_text(m1_series)
        argv = [str(path) if a == "SERIES" else a for a in args]
        r = run_cli(["-c", _MODULES_AFTER_MAIN, *argv], module=False)
        assert r.returncode == 0, r.stderr
        serving = ("cli", "core", "critvals", "estimators", "inference")
        assert r.stdout.splitlines()[-1].split() == sorted(
            f"selfnorm.{m}" for m in (*serving, *loaded))

    @pytest.mark.parametrize("args", [
        ["ci", "--stat", "mean", "SERIES"],
        ["ci", "--stat", "specratio:pi/2", "--method", "sn", "SERIES"],
        ["test-noncorr", "--k", "2", "--method", "sn", "SERIES"],
        ["test-noncorr", "--k", "2", "--method", "lobato", "SERIES"],
        ["test-noncorr", "--k", "2", "--method", "nw", "SERIES"],
        ["critvals", "--q", "2"],
    ], ids=["ci-mean", "ci-specratio", "noncorr-sn", "noncorr-lobato", "noncorr-nw",
            "critvals"])
    def test_plain_request_loads_no_numpy_random_or_openssl(self, tmp_path, m1_series,
                                                            args):
        # numpy.random costs about 13 ms and 6 MB, half of it OpenSSL's
        # _hashlib through secrets; only bootstrap, generate and simulate need it
        path = tmp_path / "x.txt"
        path.write_text(m1_series)
        argv = [str(path) if a == "SERIES" else a for a in args]
        r = run_cli(["-c", _RANDOM_AFTER_MAIN, *argv], module=False)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "[]"

    def test_bare_import_loads_no_submodule(self):
        r = run_cli(["-c", _LOADED + "import selfnorm\nprint(loaded())"],
                    module=False)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[]\n"

    def test_every_export_resolves_on_first_use(self):
        r = run_cli(["-c", _LOADED + _EXPORTS_RESOLVE], module=False)
        assert r.returncode == 0, r.stderr
        modules = ("bootstrap", "core", "critvals", "dgp", "estimators",
                   "inference", "montecarlo", "noncorr")
        assert r.stdout.splitlines() == [
            str([f"selfnorm.{m}" for m in modules]), "selfnorm.montecarlo"]

    def test_handlers_call_the_module_binding(self, tmp_path, monkeypatch,
                                              capsys, m1_series):
        calls = []
        real = cli.lobato_test

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(cli, "lobato_test", counted)
        path = tmp_path / "x.txt"
        path.write_text(m1_series)
        assert cli.main(["test-noncorr", "--k", "2", "--method", "lobato", str(path)]) == 0
        assert calls == [2]
        assert json.loads(capsys.readouterr().out)["method"] == "lobato"


_WITHOUT_SCIPY = """
import sys

sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from selfnorm.cli import main

sys.exit(main(sys.argv[1:]))
"""

_MBB_FLAGS = ["--block", "5", "--reps", "100", "--seed", "1"]


class TestWithoutScipy:
    """Every subcommand runs with scipy unimportable and prints what it
    prints with scipy present."""

    @pytest.mark.parametrize("args", [
        *(pytest.param(["generate", "--model", m, "--n", "80", "--seed", "3"], id=f"generate-{m}")
          for m in ("m1", "m5", "m9", "ar1:0.5:garch")),
        *(pytest.param(["ci", "--stat", "mean", "--method", m, *(_MBB_FLAGS if m != "sn" else []),
                        "SERIES"], id=f"ci-{m}")
          for m in ("sn", "mbb-pct", "mbb-normal", "mbb-sn")),
        *(pytest.param(["test-noncorr", "--k", "2", "--method", m, "SERIES"], id=f"test-noncorr-{m}")
          for m in ("sn", "lobato", "nw")),
        pytest.param(["critvals", "--q", "1", "--alpha", "0.2", "--grid", "150", "--reps", "1000",
                      "--cache", "CACHE"], id="critvals"),
        *(pytest.param(["simulate", "--table", t, "--reps", "2", "--seed", "1"], id=f"simulate-{t}")
          for t in ("1b", "4a", "fig1")),
    ])
    def test_same_stdout_without_scipy(self, tmp_path, m1_series, args):
        path = tmp_path / "x.txt"
        path.write_text(m1_series)
        places = {"SERIES": str(path), "CACHE": str(tmp_path / "critvals.json")}
        argv = [places.get(a, a) for a in args]
        # the blocked run goes first, so critvals simulates its table without scipy
        blocked = run_cli(["-c", _WITHOUT_SCIPY, *argv], module=False)
        assert blocked.returncode == 0, blocked.stderr
        free = run_cli(argv)
        assert free.returncode == 0, free.stderr
        assert blocked.stdout == free.stdout


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
