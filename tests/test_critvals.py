"""Simulated critical-value tables: determinism, caching, invariances."""

import importlib.resources
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selfnorm
from selfnorm import critvals
from selfnorm.critvals import (
    DEFAULT_ALPHAS,
    DEFAULT_GRID,
    DEFAULT_SEED,
    CritvalTable,
    default_reps,
    get_quantile,
    load_table,
    simulate_uq,
    table_to_json,
    u_stat_from_increments,
)

SHIPPED = importlib.resources.files("selfnorm") / "critvals_default.json"
TOY_KEYS = {f"q={q}|grid=150|reps=3000|seed=9" for q in (1, 2)}


def _default_key(q):
    return f"q={q}|grid={DEFAULT_GRID}|reps={default_reps(q)}|seed={DEFAULT_SEED}"


def _shipped():
    return json.loads(SHIPPED.read_text(encoding="utf-8"))["tables"]


class TestUStatistic:
    def test_scale_invariance(self, rng):
        z = rng.standard_normal((64, 2, 50))
        base, ok0 = u_stat_from_increments(z)
        scaled, ok1 = u_stat_from_increments(3.7 * z)
        assert ok0.all() and ok1.all()
        np.testing.assert_allclose(scaled, base, rtol=1e-9)

    def test_endpoint_normalization(self, rng):
        # the walk endpoint must be standard normal for any grid, so the
        # numerator of the scalar statistic averages to 1
        z = rng.standard_normal((100_000, 1, 64))
        endpoint = z.sum(axis=2)[:, 0] / np.sqrt(64)
        assert np.mean(endpoint**2) == pytest.approx(1.0, abs=0.01)

    def test_statistics_are_positive(self, rng):
        u, ok = u_stat_from_increments(rng.standard_normal((32, 1, 40)))
        assert ok.all()
        assert (u > 0).all()


class TestSimulation:
    def test_deterministic_per_arguments(self):
        a = simulate_uq(1, grid=200, reps=4000, seed=42)
        b = simulate_uq(1, grid=200, reps=4000, seed=42)
        assert a.quantiles == b.quantiles

    def test_seed_changes_table(self):
        a = simulate_uq(1, grid=200, reps=4000, seed=42)
        b = simulate_uq(1, grid=200, reps=4000, seed=43)
        assert a.quantiles != b.quantiles

    def test_quantiles_increase_with_dimension(self):
        qs = [simulate_uq(q, grid=200, reps=20_000, seed=5).quantile(0.05)
              for q in (1, 2, 3)]
        assert qs[0] < qs[1] < qs[2]

    def test_quantiles_decrease_in_alpha(self):
        table = simulate_uq(1, grid=200, reps=20_000, seed=5)
        values = [table.quantile(a) for a in (0.01, 0.025, 0.05, 0.10)]
        assert values == sorted(values, reverse=True)

    def test_sample_kept_on_request(self):
        table = simulate_uq(1, grid=100, reps=2000, seed=1, keep_sample=True)
        assert table.sample is not None and table.sample.shape == (2000,)
        assert simulate_uq(1, grid=100, reps=2000, seed=1).sample is None

    def test_default_reps_by_dimension(self):
        assert default_reps(1) == 200_000
        assert default_reps(5) == 200_000
        assert default_reps(6) == 50_000

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate_uq(0)
        with pytest.raises(ValueError):
            simulate_uq(3, grid=4)


class TestCache:
    def test_quantile_served_from_cache_file(self, critval_cache):
        v1 = get_quantile(1, 0.05, grid=150, reps=3000, seed=9)
        data = json.loads(critval_cache.read_text())
        assert any('"q": 1' in json.dumps(entry) or entry.get("q") == 1
                   for entry in data.values())
        v2 = get_quantile(1, 0.05, grid=150, reps=3000, seed=9)
        assert v1 == v2

    def test_corrupt_cache_file_is_rebuilt(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{bad")
        v = get_quantile(1, 0.05, grid=150, reps=3000, seed=9, cache_path=path)
        assert v == get_quantile(1, 0.05, grid=150, reps=3000, seed=9)
        tables = json.loads(path.read_text())["tables"]
        assert list(tables) == ["q=1|grid=150|reps=3000|seed=9"]

    def test_missing_alpha_triggers_resimulation(self):
        v = get_quantile(1, 0.2, grid=150, reps=3000, seed=9)
        assert v > 0

    def test_alpha_keys_round_to_six_places(self):
        table = CritvalTable(1, 10, 10, 0, {0.05: 7.0})
        assert table.quantile(0.05000000001) == 7.0
        with pytest.raises(KeyError):
            table.quantile(0.051)

    def test_load_table_has_default_alphas(self):
        table = load_table(1, grid=150, reps=3000, seed=9)
        for alpha in DEFAULT_ALPHAS:
            assert table.quantile(alpha) > 0


class TestPublishedValues:
    def test_scalar_critical_values_match_published_table(self, critval_cache):
        # the scalar statistic's 10% and 5% points are widely reproduced
        # at 28.3 and 45.4; the default table must land within half a unit
        table = load_table(1)
        assert table.quantile(0.10) == pytest.approx(28.31, abs=0.5)
        assert table.quantile(0.05) == pytest.approx(45.40, abs=0.5)
        assert table.grid == DEFAULT_GRID
        assert table.seed == DEFAULT_SEED


class TestShippedTables:
    def test_q1_entry_is_the_simulated_bytes(self):
        shipped = json.dumps(_shipped()[_default_key(1)], sort_keys=True)
        assert table_to_json(simulate_uq(1)) == shipped

    def test_holds_exactly_the_default_tables(self):
        tables = _shipped()
        assert set(tables) == {_default_key(q) for q in range(1, 7)}
        for q in range(1, 7):
            entry = tables[_default_key(q)]
            assert (entry["q"], entry["grid"], entry["reps"], entry["seed"]) == (
                q, DEFAULT_GRID, default_reps(q), DEFAULT_SEED)
            assert set(entry["quantiles"]) == {f"{a:.6f}" for a in DEFAULT_ALPHAS}

    def test_default_lookups_simulate_nothing(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("simulated a shipped table")

        monkeypatch.setattr(critvals, "simulate_uq", fail)
        cache = tmp_path / "cache.json"
        tables = _shipped()
        for q in range(1, 7):
            expected = tables[_default_key(q)]["quantiles"]["0.050000"]
            assert get_quantile(q, 0.05, cache_path=cache) == expected
        assert not cache.exists()

    def test_user_cache_is_served_first(self, tmp_path):
        toy = simulate_uq(1, grid=150, reps=3000, seed=9)
        entry = {"q": 1, "grid": DEFAULT_GRID, "reps": default_reps(1), "seed": DEFAULT_SEED,
                 "quantiles": {f"{a:.6f}": v for a, v in toy.quantiles.items()}}
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"version": 1, "tables": {_default_key(1): entry}}))
        shipped = _shipped()[_default_key(1)]["quantiles"]["0.050000"]
        value = get_quantile(1, 0.05, cache_path=cache)
        assert value == toy.quantile(0.05)
        assert value != shipped

    def test_new_alpha_stores_the_union_in_the_user_cache(self, tmp_path, monkeypatch):
        calls = []
        real = critvals.simulate_uq

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(critvals, "simulate_uq", counted)
        before = SHIPPED.read_bytes()
        cache = tmp_path / "cache.json"
        value = get_quantile(1, 0.2, cache_path=cache)
        assert len(calls) == 1
        stored = json.loads(cache.read_text())["tables"][_default_key(1)]["quantiles"]
        shipped = _shipped()[_default_key(1)]["quantiles"]
        assert set(stored) == set(shipped) | {"0.200000"}
        assert {k: stored[k] for k in shipped} == shipped
        assert stored["0.200000"] == value
        assert SHIPPED.read_bytes() == before
        assert get_quantile(1, 0.2, cache_path=cache) == value
        assert len(calls) == 1


class TestConcurrentWriters:
    @pytest.mark.parametrize("locking", [True, False])
    def test_store_keeps_a_table_stored_meanwhile(self, tmp_path, monkeypatch, locking):
        if not locking:  # platforms without fcntl still merge on store
            monkeypatch.setattr(critvals, "fcntl", None)
        cache = tmp_path / "cache.json"
        real = critvals.simulate_uq

        def writer_a_simulates(*args, **kwargs):
            # writer A has read the empty cache; writer B stores its table now
            monkeypatch.setattr(critvals, "simulate_uq", real)
            load_table(2, grid=150, reps=3000, seed=9, cache_path=cache)
            return real(*args, **kwargs)

        monkeypatch.setattr(critvals, "simulate_uq", writer_a_simulates)
        load_table(1, grid=150, reps=3000, seed=9, cache_path=cache)
        assert set(json.loads(cache.read_text())["tables"]) == TOY_KEYS

    def test_two_processes_on_one_cache(self, tmp_path):
        cache = tmp_path / "cache.json"
        src = str(Path(selfnorm.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "selfnorm", "critvals", "--q", str(q), "--grid", "150",
                 "--reps", "3000", "--seed", "9", "--cache", str(cache)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
            for q in (1, 2)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
        assert set(json.loads(cache.read_text())["tables"]) == TOY_KEYS
