"""Recorded stdout of fixed CLI requests (tests/golden.py) must hold: text and
integers exactly, every other number within 1e-12 relative."""

import shutil

import pytest

import golden


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name", list(golden.requests()))
def test_output_matches_the_record(name, work):
    worst, problems = golden.check(name, work)
    assert not problems, problems
    assert worst <= golden.RTOL


def test_update_rewrites_only_the_named_files(tmp_path, monkeypatch, capsys):
    original, record = golden.RECORD, tmp_path / "golden"
    shutil.copytree(original, record)
    (record / "generate.json").unlink()
    (record / "ci_sn.json").unlink()
    monkeypatch.setattr(golden, "RECORD", record)
    assert golden.main(["--update", "generate.json"]) == 0
    assert capsys.readouterr().out == "generate.json: largest relative change 0\n  new file\n"
    assert (record / "generate.json").read_bytes() == (original / "generate.json").read_bytes()
    assert not (record / "ci_sn.json").exists()


def test_update_names_an_unknown_file(capsys):
    assert golden.main(["--update", "generate.json", "nope.json"]) == 1
    assert capsys.readouterr().err == "unknown golden file: nope.json\n"
