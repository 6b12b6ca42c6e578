"""Simulated critical-value tables: determinism, caching, invariances."""

import importlib.resources
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selfnorm
from selfnorm import core, critvals
from selfnorm.critvals import (
    DEFAULT_ALPHAS,
    DEFAULT_GRID,
    DEFAULT_SEED,
    CritvalTable,
    default_reps,
    get_quantile,
    load_table,
    simulate_draws,
    simulate_uq,
    table_alpha,
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

    @pytest.mark.parametrize("q", [1, 3, 6])
    def test_is_the_sn_pivot_of_the_running_means(self, rng, q):
        # u_stat_from_increments forms U_q as the self-normalized pivot of the
        # mean (theta0 = 0); the reference forms the limit statistic itself on
        # the discretized Brownian motion: B(1)' V^{-1} B(1), V the left
        # Riemann sum of the bridge outer product
        grid = 1000
        z = rng.standard_normal((40, q, grid))
        u, ok = u_stat_from_increments(z)
        walk = np.cumsum(z, axis=2) / np.sqrt(grid)
        endpoint = walk[:, :, -1]
        bridge = walk - endpoint[:, :, None] * (np.arange(1, grid + 1) / grid)
        v = np.einsum("mqg,mpg->mqp", bridge, bridge) / grid
        ref = np.einsum("mq,mq->m", endpoint, np.linalg.solve(v, endpoint[:, :, None])[..., 0])
        assert ok.all()
        np.testing.assert_allclose(u, ref, rtol=1e-12)


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

    def test_table_holds_the_quantiles_of_the_draws(self):
        draws = simulate_draws(1, 100, 2000, 1)
        assert draws.shape == (2000,) and (draws > 0).all()
        table = simulate_uq(1, grid=100, reps=2000, seed=1)
        assert table.quantiles == {
            a: float(np.quantile(draws, 1.0 - a)) for a in DEFAULT_ALPHAS}

    def test_sub_blocks_equal_one_block(self, monkeypatch):
        stream = selfnorm.RngStream(5).child("uq", 3, 100, 0)
        blocked = critvals._simulate_chunk(stream, 1024, 3, 100)  # the default blocks of 218 rows
        monkeypatch.setattr(core, "BLOCK_VALUES", 1024 * 300)
        whole = critvals._simulate_chunk(stream, 1024, 3, 100)
        assert [a.tobytes() for a in blocked] == [a.tobytes() for a in whole]
        monkeypatch.setattr(core, "MIN_BLOCK_ROWS", {})
        for values in (1, 600, 50_000):  # sub-blocks of 1, 2 and 166 rows
            monkeypatch.setattr(core, "BLOCK_VALUES", values)
            parts = critvals._simulate_chunk(stream, 1024, 3, 100)
            assert [a.tobytes() for a in parts] == [a.tobytes() for a in whole]

    @pytest.mark.parametrize("q", [1, 3])
    def test_one_row_blocks_keep_the_draws(self, monkeypatch, q):
        # 1100 draws span two chunks; 1-row blocks split every chunk fully
        default = simulate_draws(q, 100, 1100, 12)
        monkeypatch.setattr(core, "BLOCK_VALUES", 0)
        monkeypatch.setattr(core, "MIN_BLOCK_ROWS", {})
        assert simulate_draws(q, 100, 1100, 12).tobytes() == default.tobytes()

    def test_chunk_peak_is_bounded_in_bytes(self):
        # one (1024, 20, 1000) draw held 164 MB of normals, 476 MB traced
        import tracemalloc

        tracemalloc.start()
        try:
            u, ok = critvals._simulate_chunk(selfnorm.RngStream(5), 1024, 20, DEFAULT_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert u.shape == (1024,) and ok.all()
        assert peak < 48 << 20  # a few 8 MB arrays per sub-block

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
        v1 = load_table(1, 150, 3000, 9).quantile(0.05)
        data = json.loads(critval_cache.read_text())
        assert any('"q": 1' in json.dumps(entry) or entry.get("q") == 1
                   for entry in data.values())
        v2 = load_table(1, 150, 3000, 9).quantile(0.05)
        assert v1 == v2

    def test_corrupt_cache_file_is_rebuilt(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{bad")
        v = load_table(1, 150, 3000, 9, cache_path=path).quantile(0.05)
        assert v == load_table(1, 150, 3000, 9).quantile(0.05)
        tables = json.loads(path.read_text())["tables"]
        assert list(tables) == ["q=1|grid=150|reps=3000|seed=9"]

    def test_stored_file_mode_follows_the_umask(self, tmp_path):
        path = tmp_path / "cache.json"
        old = os.umask(0o022)
        try:
            critvals._store_cache(path, {"version": 1, "tables": {}})
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o644

    def test_unopenable_cache_file_is_empty(self, tmp_path, monkeypatch):
        # patched, not chmod 000: a root process opens a mode-000 file
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 1, "tables": {"k": {}}}))

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "open", refuse)
        assert critvals._load_cache(path) == {"version": 1, "tables": {}}

    def test_missing_alpha_triggers_resimulation(self):
        v = load_table(1, 150, 3000, 9, alphas=[0.2]).quantile(0.2)
        assert v > 0

    def test_alpha_keys_round_to_six_places(self):
        table = CritvalTable(1, 10, 10, 0, {0.05: 7.0})
        assert table.quantile(0.05000000001) == 7.0
        with pytest.raises(KeyError):
            table.quantile(0.051)
        assert table_alpha(1.0 - 0.9) == 0.1
        with pytest.raises(ValueError, match=r"^alpha 0.9999996 rounds to 1 at six decimals$"):
            table_alpha(0.9999996)

    def test_alphas_sharing_a_key_file_one_quantile(self, tmp_path):
        # 0.0500004 rounds to 0.05: its quantile is the one at 0.05, and the
        # table holds that key once
        path = tmp_path / "cache.json"
        load_table(1, grid=150, reps=1000, seed=9, alphas=[0.05, 0.0500004], cache_path=path)
        reread = load_table(1, grid=150, reps=1000, seed=9, alphas=[0.05], cache_path=path)
        alone = simulate_uq(1, grid=150, reps=1000, seed=9, alphas=[0.05])
        assert reread.quantile(0.05) == alone.quantile(0.05)
        both = simulate_uq(1, grid=150, reps=1000, seed=9, alphas=[0.05, 0.0500004])
        assert both.quantiles == alone.quantiles

    def test_load_table_has_default_alphas(self):
        table = load_table(1, grid=150, reps=3000, seed=9)
        for alpha in DEFAULT_ALPHAS:
            assert table.quantile(alpha) > 0


class TestUnwritableCache:
    """A store that fails leaves one note on stderr; the simulated table is
    still the answer, and its source is None."""

    def _check(self, path, capsys):
        table = load_table(1, grid=150, reps=3000, seed=9, alphas=[0.2], cache_path=path)
        assert table.source is None
        assert table.quantiles == simulate_uq(1, grid=150, reps=3000, seed=9,
                                              alphas=[0.2]).quantiles
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("selfnorm: critical values not cached:")

    def test_directory_as_cache_path(self, tmp_path, capsys):
        self._check(tmp_path, capsys)
        assert list(tmp_path.iterdir()) == []  # no temporary file left behind
        # nor a sidecar lock in its parent
        assert not tmp_path.with_name(tmp_path.name + ".lock").exists()

    def test_replace_refused(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        monkeypatch.setattr(os, "replace", refuse)
        self._check(tmp_path / "cache.json", capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json.lock"]


class TestPublishedValues:
    def test_scalar_critical_values_match_published_table(self, critval_cache):
        # the scalar statistic's 10% and 5% points are widely reproduced
        # at 28.3 and 45.4; the default table must land within half a unit
        table = load_table(1)
        assert table.quantile(0.10) == pytest.approx(28.31, abs=0.5)
        assert table.quantile(0.05) == pytest.approx(45.40, abs=0.5)
        assert table.grid == DEFAULT_GRID
        assert table.seed == DEFAULT_SEED


def _exact_q1_tail(u):
    """P(U_1 > u) = P(Z^2 - u omega^2 > 0) by Gil-Pelaez inversion of
    phi(t) = (1 - 2it)^{-1/2} (w / sinh w)^{1/2}, w = sqrt(2iut)."""
    from scipy.integrate import quad

    def integrand(t):
        w = np.sqrt(2j * u * t)  # first quadrant
        # log(sinh w / w), continuous along the path
        log_shc = w - math.log(2.0) + np.log(-np.expm1(-2.0 * w)) - np.log(w)
        return np.exp(-0.5 * np.log(1.0 - 2j * t) - 0.5 * log_shc).imag / t

    return 0.5 + quad(integrand, 0.0, np.inf, limit=200, epsabs=1e-12)[0] / math.pi


class TestExactQ1Law:
    EXACT = {0.10: 28.3309, 0.05: 45.5261, 0.025: 66.5861, 0.01: 100.3456}

    @pytest.mark.parametrize("alpha", sorted(EXACT))
    def test_shipped_q1_quantile_within_three_standard_errors(self, alpha):
        from scipy.optimize import brentq

        exact = brentq(lambda u: _exact_q1_tail(u) - alpha, 5.0, 500.0, xtol=1e-9)
        assert exact == pytest.approx(self.EXACT[alpha], abs=1e-4)
        table = _shipped()[_default_key(1)]
        step = 1e-3 * exact
        density = (_exact_q1_tail(exact - step) - _exact_q1_tail(exact + step)) / (2.0 * step)
        # standard error of the empirical (1 - alpha) quantile of reps draws
        se = math.sqrt(alpha * (1.0 - alpha) / table["reps"]) / density
        assert abs(table["quantiles"][f"{alpha:.6f}"] - exact) <= 3.0 * se


def _kl_uq(q, reps, terms, seed):
    """reps draws of U_q = Z' V^{-1} Z with V = sum_k xi_k xi_k' / (k pi)^2,
    the Karhunen-Loeve form of the bridge integral: the first terms terms,
    plus the tail's expectation I_q sum_{k > terms} (k pi)^{-2}; xi_k and Z
    are iid N(0, I_q)."""
    gen = np.random.default_rng(seed)
    weights = 1.0 / (np.arange(1, terms + 1) * math.pi) ** 2
    tail = (1.0 / 6.0 - weights.sum()) * np.eye(q)  # sum_k (k pi)^{-2} = 1/6
    out = []
    for lo in range(0, reps, 5000):
        size = min(5000, reps - lo)
        xi = gen.standard_normal((size, terms, q))
        z = gen.standard_normal((size, q, 1))
        v = np.matmul(xi.transpose(0, 2, 1) * weights, xi) + tail
        out.append((z.transpose(0, 2, 1) @ np.linalg.solve(v, z))[:, 0, 0])
    return np.concatenate(out)


class TestKarhunenLoeveTables:
    """Grid-free check of the shipped q = 2..6 tables.

    The Karhunen-Loeve form of the bridge integral simulates the U_q limit
    with no random-walk discretization: 40 000 draws of 200 terms each.
    Cutting the series there moved its quantiles by at most 1.5e-3 relative
    against 1999 terms on 10 000 coupled draws (q = 2 and 6), a fifth of a
    standard error.  The tables simulate the statistic on a grid of g = 1000
    walk steps, whose bridge integral is exactly sum_{k<g} mu_k xi_k xi_k'
    with mu_k = 1 / (4 g^2 sin^2(k pi / 2g)), the eigenvalues of the
    discrete bridge covariance over g.  On 20 000 coupled draws per q that
    grid-1000 bias moved no quantile by more than 5.4e-4 relative and no
    single draw by more than 1.9e-3, so 2e-3 of the quantile is allowed for
    it.  Each shipped quantile must lie within 3 combined standard errors
    of the two samples, with the density at the quantile estimated from the
    Karhunen-Loeve sample, plus that allowance.
    """

    REPS, TERMS, GRID_BIAS = 40_000, 200, 2e-3

    @pytest.mark.parametrize("q", range(2, 7))
    def test_shipped_quantiles_match_the_karhunen_loeve_limit(self, q):
        u = _kl_uq(q, self.REPS, self.TERMS, seed=q)
        entry = _shipped()[_default_key(q)]
        for alpha in DEFAULT_ALPHAS:
            limit = np.quantile(u, 1.0 - alpha)
            h = alpha / 4.0
            density = 2.0 * h / np.diff(np.quantile(u, [1.0 - alpha - h, 1.0 - alpha + h]))[0]
            se = math.sqrt(alpha * (1.0 - alpha) * (1.0 / self.REPS + 1.0 / entry["reps"])) / density
            shipped = entry["quantiles"][f"{alpha:.6f}"]
            assert abs(shipped - limit) <= 3.0 * se + self.GRID_BIAS * limit, (alpha, shipped, limit, se)


class TestShippedTables:
    def test_q1_entry_is_the_simulated_bytes(self):
        shipped = json.dumps(_shipped()[_default_key(1)], sort_keys=True)
        assert json.dumps(simulate_uq(1).to_dict(), sort_keys=True) == shipped

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
        monkeypatch.setenv("SELFNORM_CRITVAL_CACHE", str(cache))
        tables = _shipped()
        for q in range(1, 7):
            expected = tables[_default_key(q)]["quantiles"]["0.050000"]
            assert get_quantile(q, 0.05) == expected
        assert not cache.exists()

    def test_user_cache_is_served_first(self, tmp_path):
        toy = simulate_uq(1, grid=150, reps=3000, seed=9)
        entry = {"q": 1, "grid": DEFAULT_GRID, "reps": default_reps(1), "seed": DEFAULT_SEED,
                 "quantiles": {f"{a:.6f}": v for a, v in toy.quantiles.items()}}
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"version": 1, "tables": {_default_key(1): entry}}))
        shipped = _shipped()[_default_key(1)]["quantiles"]["0.050000"]
        value = load_table(1, cache_path=cache).quantile(0.05)
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
        value = load_table(1, alphas=[0.2], cache_path=cache).quantile(0.2)
        assert len(calls) == 1
        stored = json.loads(cache.read_text())["tables"][_default_key(1)]["quantiles"]
        shipped = _shipped()[_default_key(1)]["quantiles"]
        assert set(stored) == set(shipped) | {"0.200000"}
        assert {k: stored[k] for k in shipped} == shipped
        assert stored["0.200000"] == value
        assert SHIPPED.read_bytes() == before
        assert load_table(1, alphas=[0.2], cache_path=cache).quantile(0.2) == value
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
