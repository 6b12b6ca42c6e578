"""Recorded stdout of fixed CLI requests (tests/golden.py) must hold: text and
integers exactly, every other number within 1e-12 relative."""

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
