"""Span recording for traced benchmark runs, done entirely from outside src/.

A span is one call into a selfnorm module's public function.  Calls are
intercepted at the module attribute the *calling* module looks the function
up through, so ``selfnorm.montecarlo.batch_prefix_values`` and
``selfnorm.bootstrap.batch_prefix_values`` are wrapped separately and the
library itself is never edited.  Spans are kept in memory and written out by
the harness when the run ends.

Times come from ``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC;
that clock is shared by every process on the machine, so spans written by a
child ``selfnorm`` process nest inside the parent's request span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans {id, name, start, end, parent, op, counts}.

    ``op`` is the operation the span belongs to (a CLI request or a Monte
    Carlo cell); the harness sets it before each operation.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[dict] = []

    def _open(self, name: str, start: float) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op,
            "counts": {},
        }
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str, start: float | None = None):
        rec = self._open(name, time.perf_counter() if start is None else start)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> dict:
        """Add a finished span, e.g. a child process timed from outside."""
        rec = self._open(name, start)
        rec["end"] = end
        return rec

    def wrap(self, fn, name, count=None):
        """Return fn wrapped in a span.

        ``name`` is a string or a function of the call's arguments giving
        one; ``count(result, *args, **kwargs)`` returns counters to attach.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec["counts"].update(count(result, *args, **kwargs))
            return result

        return traced

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Graft spans recorded by a child process under span ``parent``."""
        offset = len(self.spans)
        for s in spans:
            rec = dict(s)
            rec["id"] = s["id"] + offset
            rec["parent"] = parent if s["parent"] is None else s["parent"] + offset
            rec["op"] = self.op
            self.spans.append(rec)


# ---------------------------------------------------------------------------
# Where each layer is intercepted
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _batch_name(spec, x, *a, **k):
    return f"estimators.batch.{spec.kind}"


def _batch_counts(result, spec, x, *a, **k):
    rows, n = x.shape
    return {"cells": rows * n, "rows": rows}


def _prefix_name(spec, ts, *a, **k):
    return f"estimators.prefix.{spec.kind}"


def _prefix_counts(result, spec, ts, *a, **k):
    return {"fits": result.estimates.shape[0]} if spec.kind == "ladar" else {}


def _ladar_counts(result, *a, **k):
    return {"fits": result.estimates.shape[0]}


def _values(result, *a, **k):
    return {"values": int(result.size)}


def _requested(result, *args, **kwargs):
    return {"requested": _arg(args, kwargs, 2, "cfg").replications}


def _simulated(result, *args, **kwargs):
    return {"q": result.q, "reps": result.reps}


# (module whose namespace is patched, attribute, span name, counter)
BINDINGS = [
    ("selfnorm.cli", "read_series", "core.read_series", None),
    ("selfnorm.inference", "quadform_spd", "core.spd_solve", None),
    ("selfnorm.inference", "solve_spd", "core.spd_solve", None),
    ("selfnorm.noncorr", "quadform_spd", "core.spd_solve", None),
    ("selfnorm.noncorr", "quadform_batch", "core.spd_solve", None),
    ("selfnorm.critvals", "quadform_batch", "core.spd_solve", None),
    ("selfnorm.montecarlo", "generate_batch", "dgp.generate_batch", _values),
    ("selfnorm.montecarlo", "batch_prefix_values", _batch_name, _batch_counts),
    ("selfnorm.bootstrap", "batch_prefix_values", _batch_name, _batch_counts),
    ("selfnorm.cli", "prefix_estimates", _prefix_name, _prefix_counts),
    ("selfnorm.bootstrap", "prefix_estimates", _prefix_name, _prefix_counts),
    ("selfnorm.montecarlo", "prefix_lad_ar", "estimators.prefix.ladar", _ladar_counts),
    ("selfnorm.montecarlo", "wn_scalar_batch", "inference.wn", None),
    ("selfnorm.bootstrap", "wn_scalar_batch", "inference.wn", None),
    ("selfnorm.cli", "sn_interval", "inference.region", None),
    ("selfnorm.cli", "sn_region", "inference.region", None),
    ("selfnorm.bootstrap", "sn_interval", "inference.region", None),
    ("selfnorm.bootstrap", "sn_region", "inference.region", None),
    ("selfnorm.bootstrap", "sn_pivot", "inference.region", None),
    ("selfnorm.montecarlo", "sn_pivot", "inference.region", None),
    ("selfnorm.cli", "get_quantile", "critvals.lookup", None),
    ("selfnorm.cli", "load_table", "critvals.lookup", None),
    ("selfnorm.montecarlo", "get_quantile", "critvals.lookup", None),
    ("selfnorm.critvals", "simulate_uq", "critvals.simulate", _simulated),
    ("selfnorm.cli", "mbb_percentile_ci", "bootstrap", _requested),
    ("selfnorm.cli", "mbb_normal_ci", "bootstrap", _requested),
    ("selfnorm.cli", "mbb_sn_ci", "bootstrap", _requested),
    ("selfnorm.montecarlo", "bootstrap_suite", "bootstrap", _requested),
    ("selfnorm.cli", "sn_noncorr_test", "noncorr.sn_stat", None),
    ("selfnorm.cli", "lobato_test", "noncorr.lobato_stat", None),
    ("selfnorm.cli", "qtilde_test", "noncorr.qtilde", None),
    ("selfnorm.montecarlo", "sn_noncorr_stat_batch", "noncorr.sn_stat", None),
    ("selfnorm.montecarlo", "lobato_stat_batch", "noncorr.lobato_stat", None),
    ("selfnorm.montecarlo", "qtilde_stat", "noncorr.qtilde", None),
    ("selfnorm.montecarlo", "efficient_ci", "noncorr.efficient_ci", None),
]


def install(tracer: Tracer) -> list[tuple]:
    """Patch every binding; returns what ``uninstall`` needs to undo it."""
    saved = []
    for modname, attr, name, count in BINDINGS:
        mod = importlib.import_module(modname)
        original = getattr(mod, attr)
        saved.append((mod, attr, original))
        setattr(mod, attr, tracer.wrap(original, name, count))
    # montecarlo derives one RngStream child per replication; give its binding
    # of the class a traced child() so only those derivations are counted
    mc = importlib.import_module("selfnorm.montecarlo")
    base = mc.RngStream
    traced_stream = type(
        "TracedRngStream", (base,), {"child": tracer.wrap(base.child, "core.rng_child")}
    )
    saved.append((mc, "RngStream", base))
    mc.RngStream = traced_stream
    return saved


def uninstall(saved: list[tuple]) -> None:
    for mod, attr, original in reversed(saved):
        setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def nesting_errors(spans: list[dict]) -> list[str]:
    """Every span closed, inside its parent's interval, and in its op."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            errors.append(f"span {s['id']} ({s['name']}) has no valid end")
            continue
        if s["parent"] is None:
            continue
        p = by_id.get(s["parent"])
        if p is None:
            errors.append(f"span {s['id']} ({s['name']}) has a missing parent")
        elif not (p["start"] <= s["start"] and s["end"] <= p["end"]):
            errors.append(f"span {s['id']} ({s['name']}) lies outside parent {p['name']}")
        elif p["op"] != s["op"]:
            errors.append(f"span {s['id']} ({s['name']}) changes op inside {p['name']}")
    return errors


def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, busy (inclusive) and self seconds, summed counts.

    Busy time skips spans nested inside a span of the same name, so a layer's
    time is not counted twice; self time is a span's duration minus the
    durations of its direct children (children of one span never overlap,
    since every call here is synchronous).
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": defaultdict(float)}
    )
    for s in spans:
        dur = s["end"] - s["start"]
        agg = out[s["name"]]
        agg["calls"] += 1
        agg["self_s"] += dur - child_time[s["id"]]
        for k, v in s["counts"].items():
            agg["counts"][k] += v
        p = s["parent"]
        while p is not None and by_id[p]["name"] != s["name"]:
            p = by_id[p]["parent"]
        if p is None:
            agg["busy_s"] += dur
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
