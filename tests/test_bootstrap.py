"""Moving-block bootstrap: block assembly, scheme contracts, determinism."""

import ctypes
import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from selfnorm.core import (
    BlockTooLongError,
    RngStream,
    TooManyDegenerateResamplesError,
    ValidationError,
    stream_index_for,
)
from selfnorm.critvals import get_quantile
from selfnorm.dgp import generate_batch, true_value
from selfnorm.estimators import EstimatorSpec, prefix_estimates
from selfnorm.inference import wn_matrix
from selfnorm import bootstrap, core, estimators
from selfnorm.montecarlo import run_block_sweep
from selfnorm.bootstrap import (
    MbbConfig,
    assemble_blocks,
    bootstrap_suite,
    mbb_normal_ci,
    mbb_percentile_ci,
    mbb_resample,
    mbb_sn_ci,
    suite_intervals,
)

_MEAN = EstimatorSpec.parse("mean")
# resamples and block-sweep rows recorded from the index-array gather and the
# per-block scheme statistics, before the window gather replaced them
_PINS = json.loads((Path(__file__).parent / "data" / "block_sweep_pins.json").read_text())
_SCHEMES = {"mbb-pct": mbb_percentile_ci, "mbb-normal": mbb_normal_ci, "mbb-sn": mbb_sn_ci}


class TestBlockAssembly:
    def test_hand_construction(self):
        x = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        out = assemble_blocks(x, starts=np.array([0, 3, 1]), block_length=2)
        np.testing.assert_array_equal(out, [10.0, 20.0, 40.0, 50.0, 20.0])

    def test_truncates_to_original_length(self):
        x = np.arange(5.0)
        out = assemble_blocks(x, starts=np.array([0, 0]), block_length=3)
        assert out.shape == (5,)

    def test_too_few_blocks_rejected(self):
        with pytest.raises(ValidationError):
            assemble_blocks(np.arange(6.0), starts=np.array([0]), block_length=2)
        with pytest.raises(ValidationError):
            assemble_blocks(np.arange(7.0), starts=np.zeros((2, 3), dtype=int), block_length=2)


def _index_gather(values, starts, block_length):
    """Blocks gathered through an explicit index array starts + arange(l)."""
    idx = starts[..., :, None] + np.arange(block_length)
    return values[idx.reshape(*starts.shape[:-1], -1)[..., : values.shape[0]]]


class TestWindowGather:
    @pytest.mark.parametrize("n", [5, 12, 50])
    def test_equals_the_index_gather_for_every_block_length(self, n):
        gen = np.random.default_rng(n)
        x = gen.standard_normal(n)
        for block in range(1, n + 1):
            starts = gen.integers(0, n - block + 1, size=(3, 4, math.ceil(n / block)))
            got = assemble_blocks(x, starts, block)
            assert got.shape == (3, 4, n)
            assert got.tobytes() == _index_gather(x, starts, block).tobytes()

    def test_resamples_match_the_recorded_arrays(self):
        x = RngStream(5).generator().standard_normal(12)
        for key, expect in _PINS["resample"].items():
            seed, block = (int(v) for v in key.split(","))
            assert mbb_resample(x, block, RngStream(seed)).tolist() == expect


class TestResample:
    def test_full_length_block_copies_the_series(self, rng):
        x = rng.standard_normal(25)
        out = mbb_resample(x, 25, RngStream(4))
        np.testing.assert_array_equal(out, x)

    def test_block_longer_than_series_rejected(self, rng):
        with pytest.raises(BlockTooLongError):
            mbb_resample(rng.standard_normal(10), 11, RngStream(0))

    @given(st.integers(1, 12), st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_length_and_multiset_invariants(self, block, seed):
        x = np.random.default_rng(2).standard_normal(12)
        out = mbb_resample(x, block, RngStream(seed))
        assert out.shape == x.shape
        assert set(out.tolist()) <= set(x.tolist())

    def test_unit_block_matches_iid_bootstrap_distribution(self):
        # with block length 1 the scheme is iid resampling, so resampled
        # means must match a hand-rolled iid bootstrap distributionally
        x = RngStream(6).generator().standard_normal(50)
        gen = RngStream(60).generator()
        mbb_means = [mbb_resample(x, 1, RngStream(i)).mean() for i in range(2000)]
        iid_means = x[gen.integers(0, 50, size=(2000, 50))].mean(axis=1)
        stat = ks_2samp(mbb_means, iid_means).statistic
        assert stat < 0.05


class TestSchemes:
    def test_percentile_constant_series_zero_width(self):
        cfg = MbbConfig(block_length=3, replications=200, seed=1)
        res = mbb_percentile_ci(np.full(30, 7.0), _MEAN, cfg)
        assert res.region.lower == res.region.upper == 7.0

    def test_normal_constant_series_zero_width(self):
        cfg = MbbConfig(block_length=3, replications=200, seed=1)
        res = mbb_normal_ci(np.full(30, 7.0), _MEAN, cfg)
        assert res.region.lower == res.region.upper == 7.0

    def test_sn_constant_series_degenerate(self):
        cfg = MbbConfig(block_length=3, replications=200, seed=1)
        with pytest.raises(TooManyDegenerateResamplesError):
            mbb_sn_ci(np.full(30, 7.0), _MEAN, cfg)

    def test_normal_variance_close_to_truth_on_iid_data(self):
        x = RngStream(14).generator().standard_normal(50)
        cfg = MbbConfig(block_length=1, replications=2000, seed=3)
        res = mbb_normal_ci(x, _MEAN, cfg)
        assert res.sigma2 == pytest.approx(1.0, rel=0.15)

    def test_normal_and_percentile_widths_agree_for_the_mean(self):
        x = RngStream(15).generator().standard_normal(50)
        cfg = MbbConfig(block_length=1, replications=2000, seed=3)
        w_norm = mbb_normal_ci(x, _MEAN, cfg)
        w_pct = mbb_percentile_ci(x, _MEAN, cfg)
        ratio = (w_norm.region.upper - w_norm.region.lower) / (
            w_pct.region.upper - w_pct.region.lower)
        assert ratio == pytest.approx(1.0, abs=0.1)

    def test_sn_pivot_quantile_approaches_simulated_table(self, critval_cache):
        x = RngStream(16).generator().standard_normal(200)
        cfg = MbbConfig(block_length=10, replications=2000, seed=5)
        res = mbb_sn_ci(x, _MEAN, cfg)
        expect = get_quantile(1, 0.05)
        assert res.ustar == pytest.approx(expect, rel=0.10)

    def test_results_deterministic_in_seed(self):
        x = RngStream(17).generator().standard_normal(60)
        cfg = MbbConfig(block_length=5, replications=400, seed=9)
        first = mbb_percentile_ci(x, _MEAN, cfg)
        second = mbb_percentile_ci(x, _MEAN, cfg)
        assert (first.region.lower, first.region.upper) == (
            second.region.lower, second.region.upper)
        other = mbb_percentile_ci(
            x, _MEAN, MbbConfig(block_length=5, replications=400, seed=10))
        assert (other.region.lower, other.region.upper) != (
            first.region.lower, first.region.upper)

    def test_estimate_inside_every_scheme_interval(self):
        x = RngStream(18).generator().standard_normal(80)
        cfg = MbbConfig(block_length=4, replications=500, seed=2)
        for builder in (mbb_percentile_ci, mbb_normal_ci, mbb_sn_ci):
            res = builder(x, _MEAN, cfg)
            assert res.region.lower <= res.estimate <= res.region.upper

    def test_to_dict_contract(self):
        x = RngStream(19).generator().standard_normal(60)
        cfg = MbbConfig(block_length=5, replications=300, seed=1)
        d = mbb_normal_ci(x, _MEAN, cfg).to_dict()
        for key in ("estimate", "L", "U", "N", "scheme", "block_length"):
            assert key in d

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            MbbConfig(block_length=0)
        with pytest.raises(ValidationError):
            MbbConfig(block_length=2, replications=1)
        with pytest.raises(ValidationError, match=r"^level must be in \(0, 1\), got 1.5$"):
            MbbConfig(block_length=2, level=1.5)
        with pytest.raises(ValidationError):
            MbbConfig(block_length=2, seed=-3)


def _patch_lad_fit(monkeypatch, replace):
    """Route the LAD path solver through replace(path, real, *args), path
    counting the coefficient paths begun so far (0: the original series);
    returns the list of paths begun."""
    real = estimators._lad_path
    paths = []

    def fit(x, p):
        paths.append(len(paths))
        return replace(paths[-1], real, x, p)

    monkeypatch.setattr(estimators, "_lad_path", fit)
    return paths


class TestPerResamplePath:
    def test_programming_errors_propagate(self, monkeypatch):
        # only numerical failures count as degenerate resamples
        def broken(path, real, *args):
            if path > 0:
                raise TypeError("injected")
            return real(*args)

        _patch_lad_fit(monkeypatch, broken)
        x = RngStream(21).generator().standard_normal(40)
        cfg = MbbConfig(block_length=4, replications=10, seed=1)
        with pytest.raises(TypeError):
            mbb_sn_ci(x, EstimatorSpec.parse("ladar:1"), cfg)


class TestSingularResamplePivots:
    """A ladar resample whose W* is not positive definite is dropped, like
    any other estimator's, and counts toward MAX_BAD_FRAC; it is not redrawn."""

    CFG = MbbConfig(block_length=4, replications=50, seed=1)

    def _run(self, monkeypatch, singular):
        def fit(path, real, x, p):
            # a constant coefficient path has W* = 0
            return np.zeros_like(real(x, p)) if path in singular else real(x, p)

        paths = _patch_lad_fit(monkeypatch, fit)
        x = RngStream(22).generator().standard_normal(60)
        try:
            return mbb_sn_ci(x, EstimatorSpec.parse("ladar:1"), self.CFG)
        finally:
            assert len(paths) == 1 + self.CFG.replications  # nothing redrawn

    def test_dropped_not_redrawn(self, monkeypatch):
        assert self._run(monkeypatch, {2, 5}).ustar > 0.0

    def test_count_toward_max_bad_frac(self, monkeypatch):
        assert 3 > bootstrap.MAX_BAD_FRAC * self.CFG.replications
        with pytest.raises(TooManyDegenerateResamplesError):
            self._run(monkeypatch, {2, 5, 7})


class TestSuite:
    def test_suite_matches_individual_schemes(self):
        x = RngStream(20).generator().standard_normal(60)
        cfg = MbbConfig(block_length=5, replications=400, seed=1234, level=0.9)
        seq = prefix_estimates(_MEAN, x)
        est, w = float(seq.final[0]), wn_matrix(seq)[0, 0]
        root, pivots = bootstrap_suite(x, _MEAN, cfg, est)
        suite = suite_intervals([root], [pivots], est, w, 0, x.size, cfg.level)
        builders = {
            "mbb-pct": mbb_percentile_ci,
            "mbb-normal": mbb_normal_ci,
            "mbb-sn": mbb_sn_ci,
        }
        for name, builder in builders.items():
            expect = builder(x, _MEAN, cfg).region
            lower, upper = suite[name]
            assert lower[0] == pytest.approx(expect.lower, abs=1e-12)
            assert upper[0] == pytest.approx(expect.upper, abs=1e-12)
        assert np.quantile(pivots, cfg.level) > 0


class TestRaggedReplication:
    """Resamples marked not ok in only some block lengths leave the block
    lengths of one sweep replication with different kept counts; every
    scheme's interval, the redraws and drops behind it, and the MAX_BAD_FRAC
    verdict match the single-series schemes block by block."""

    MODEL, N, SEED, REPS, LEVEL = "ar1:0.5:normal", 50, 5, 200, 0.9
    BLOCKS = tuple(range(1, 9))

    def _series(self):
        rep = RngStream(self.SEED).child("rep", 0)
        return generate_batch(self.MODEL, self.N, [rep])[0]

    def _mark(self, monkeypatch, x, rates):
        """Mark a resample not ok (values NaN) when its first value is in the
        top rates[block] share of x; returns {block: rows per evaluation}."""
        real_draw, real_values = bootstrap._draw, bootstrap.batch_prefix_values
        block, calls = [None], {}

        def draw(series, block_length, rows, gen):
            block[0] = block_length
            return real_draw(series, block_length, rows, gen)

        def values(spec, resamples):
            vals, ok = real_values(spec, resamples)
            calls.setdefault(block[0], []).append(resamples.shape[0])
            rate = rates.get(block[0])
            if rate is not None:
                bad = resamples[:, 0] > np.quantile(x, 1.0 - rate)
                vals[bad] = np.nan
                ok = ok & ~bad
            return vals, ok

        monkeypatch.setattr(bootstrap, "_draw", draw)
        monkeypatch.setattr(bootstrap, "batch_prefix_values", values)
        return calls

    def _cfg(self, block):
        boot_seed = stream_index_for(self.SEED, "boot", 0)
        return MbbConfig(block, self.REPS, boot_seed, self.LEVEL)

    def test_sweep_matches_single_series_schemes(self, monkeypatch):
        x = self._series()
        calls = self._mark(monkeypatch, x, {3: 0.5, 6: 0.55})
        rows = run_block_sweep(self.MODEL, self.N, "mean", self.LEVEL, self.BLOCKS, self.REPS, 1, self.SEED)
        sweep_calls = dict(calls)
        redrawn = {b for b, c in sweep_calls.items() if len(c) > 1}
        assert redrawn == {3, 6}
        truth = float(true_value(self.MODEL, _MEAN))
        by_key = {(r.method, r.block_length): r for r in rows}
        for name, builder in _SCHEMES.items():
            calls.clear()
            for block in self.BLOCKS:
                region = builder(x, _MEAN, self._cfg(block)).region
                row = by_key[(name, block)]
                assert row.mean_width == region.width
                assert row.value_pct == 100.0 * region.contains(truth)
            assert calls == sweep_calls

    def test_dropped_resamples_leave_ragged_sets(self, monkeypatch):
        x = self._series()
        self._mark(monkeypatch, x, {3: 0.5, 6: 0.55})
        seq = prefix_estimates(_MEAN, x)
        est, w = float(seq.final[0]), wn_matrix(seq)[0, 0]
        sets = [bootstrap_suite(x, _MEAN, self._cfg(b), est) for b in self.BLOCKS]
        kept = {b: root.size for b, (root, _) in zip(self.BLOCKS, sets)}
        assert {b for b in self.BLOCKS if kept[b] < self.REPS} == {3, 6}
        bounds = suite_intervals(*zip(*sets), est, w, 0, self.N, self.LEVEL)
        for name, builder in _SCHEMES.items():
            for j, block in enumerate(self.BLOCKS):
                region = builder(x, _MEAN, self._cfg(block)).region
                assert (bounds[name][0][j], bounds[name][1][j]) == (region.lower, region.upper)

    def test_too_many_drops_in_one_block_length_raise_everywhere(self, monkeypatch):
        x = self._series()
        self._mark(monkeypatch, x, {4: 0.8})
        with pytest.raises(TooManyDegenerateResamplesError):
            run_block_sweep(self.MODEL, self.N, "mean", self.LEVEL, self.BLOCKS, self.REPS, 1, self.SEED)
        for builder in _SCHEMES.values():
            with pytest.raises(TooManyDegenerateResamplesError):
                builder(x, _MEAN, self._cfg(4))
            builder(x, _MEAN, self._cfg(5))


class TestRowBlocks:
    """The engine's row blocks change no bit: 200 resamples run in blocks of
    one row (7 for the median) give exactly the outputs of the default run,
    which is one block.  The blocks are forced through core's constants."""

    REPS = 200
    STATS = ("mean", "median", "acov:1", "acf:1", "specmean:pi/2", "specratio:pi/2")
    # an integer series on which some acf:1 resamples stay undefined after
    # their redraws and some have a singular W*, fewer than MAX_BAD_FRAC in all
    TIES = np.array([-1.0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0])
    TIES_CFG = MbbConfig(block_length=2, replications=200, seed=10)

    @staticmethod
    def _both(monkeypatch, run):
        """run() with the default blocks, then in blocks of one row (7 for
        the median)."""
        default = run()
        monkeypatch.setattr(core, "BLOCK_VALUES", 0)
        monkeypatch.setattr(core, "MIN_BLOCK_ROWS", {"median": 7})
        return default, run()

    def _series(self, n=80):
        return generate_batch("ar1:0.5:normal", n, [RngStream(31)])[0]

    @pytest.mark.parametrize("stat", STATS)
    @pytest.mark.parametrize("scheme", sorted(_SCHEMES))
    def test_schemes(self, monkeypatch, stat, scheme):
        x, spec = self._series(), EstimatorSpec.parse(stat)
        cfg = MbbConfig(block_length=4, replications=self.REPS, seed=3)
        assert core.BLOCK_VALUES // x.size >= self.REPS  # one default block
        default, blocked = self._both(monkeypatch, lambda: _SCHEMES[scheme](x, spec, cfg).to_dict())
        assert blocked == default

    def test_suite(self, monkeypatch):
        x = self._series()
        cfg = MbbConfig(block_length=4, replications=self.REPS, seed=3)
        est = float(prefix_estimates(_MEAN, x).final[0])
        default, blocked = self._both(monkeypatch, lambda: bootstrap_suite(x, _MEAN, cfg, est))
        for a, b in zip(default, blocked):
            assert a.tobytes() == b.tobytes()

    def test_ladar_sn(self, monkeypatch):
        x, spec = self._series(40), EstimatorSpec.parse("ladar:1")
        cfg = MbbConfig(block_length=4, replications=self.REPS, seed=3)
        default, blocked = self._both(monkeypatch, lambda: mbb_sn_ci(x, spec, cfg).to_dict())
        assert blocked == default

    def test_redrawn_and_singular_resamples(self, monkeypatch):
        spec, x = EstimatorSpec.parse("acf:1"), self.TIES
        est = float(prefix_estimates(spec, x).final[0])

        def run():
            root, pivots = bootstrap_suite(x, spec, self.TIES_CFG, est)
            scheme = {name: build(x, spec, self.TIES_CFG).to_dict() for name, build in _SCHEMES.items()}
            return root.tobytes(), pivots.tobytes(), root.size, pivots.size, scheme

        default, blocked = self._both(monkeypatch, run)
        assert blocked == default
        kept, pivoted = default[2:4]
        assert pivoted < kept < self.REPS  # some dropped undefined, some singular
        assert self.REPS - pivoted <= bootstrap.MAX_BAD_FRAC * self.REPS


class TestMemory:
    """Peak memory of a bootstrap interval does not grow with the number of
    resamples: row blocks hold a bounded number of prefix values."""

    @pytest.mark.parametrize("stat,build", [("acf:1", mbb_percentile_ci), ("mean", mbb_sn_ci)])
    def test_peak_is_flat_in_replications(self, stat, build):
        x = RngStream(32).generator().standard_normal(3000)
        spec = EstimatorSpec.parse(stat)
        peaks = []
        for reps in (300, 2400):
            tracemalloc.start()
            try:
                build(x, spec, MbbConfig(block_length=10, replications=reps, seed=1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_engine_keeps_freed_blocks_in_the_heap(self, monkeypatch):
        # without the fixed malloc thresholds each block faults its freed
        # temporaries back in, which made blocked requests slower
        calls = []
        monkeypatch.setattr(core, "_heap_kept", False)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=lambda *a: calls.append(a)))
        mbb_percentile_ci(np.arange(30.0), _MEAN, MbbConfig(block_length=3, replications=20, seed=1))
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
