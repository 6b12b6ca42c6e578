"""Shared fixtures.

The critical-value cache is redirected to a session-scoped temporary file so
tests never read or write the user's real cache, and so every test (and every
CLI subprocess, which inherits the environment) shares one simulation of each
quantile table the package does not ship.
"""

import os

import numpy as np
import pytest

from selfnorm.core import RngStream


@pytest.fixture(scope="session", autouse=True)
def critval_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("critvals") / "cache.json"
    old = os.environ.get("SELFNORM_CRITVAL_CACHE")
    os.environ["SELFNORM_CRITVAL_CACHE"] = str(path)
    yield path
    if old is None:
        os.environ.pop("SELFNORM_CRITVAL_CACHE", None)
    else:
        os.environ["SELFNORM_CRITVAL_CACHE"] = old


@pytest.fixture(scope="session")
def u1_q05(critval_cache):
    """Default-table 5% critical value for the scalar pivot."""
    from selfnorm.critvals import get_quantile

    return get_quantile(1, 0.05)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


@pytest.fixture
def stream():
    return RngStream(20260817)
