"""The traced benchmark run (bench/spans.py) patches named attributes of the
selfnorm modules and reads the bootstrap config from a fixed argument; a
refactor that drops either breaks the benchmark, so it fails here first."""

import importlib
import importlib.util
import inspect
from pathlib import Path


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves():
    missing = [
        f"{modname}.{attr}"
        for modname, attr, *_ in _load_spans().BINDINGS
        if not hasattr(importlib.import_module(modname), attr)
    ]
    assert missing == []


def test_bootstrap_config_is_the_third_argument():
    from selfnorm import bootstrap

    for name in ("mbb_percentile_ci", "mbb_normal_ci", "mbb_sn_ci", "bootstrap_suite"):
        params = list(inspect.signature(getattr(bootstrap, name)).parameters)
        assert params[2] == "cfg", name
