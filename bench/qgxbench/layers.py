"""Per-layer tracing from outside the program.

`Tracer.installed()` swaps public qgx functions for timing wrappers for
the length of a `with` block. A function imported into several modules
is swapped in every module that holds it (`qgx.grouping.hungarian` and
`qgx.symmetric.hungarian` both become the `assignment.hungarian` span),
including module-level tables that hold it, such as the per-family
metric table of `qgx.suites`. A function that no longer exists is
reported as missing instead of failing the run.

Spans stay in memory as (name, parent index, start ns, end ns, extra)
tuples; `summarize` folds one traced round into per-name statistics and
`layer_metrics` turns those into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field

from .workloads import ALL_FAMILIES, SUITES

_now = time.perf_counter_ns


# extra data kept per span, computed outside the span's own time

def _matrix_size(args, result):
    return {"n": len(args[0])}


def _normalized(args, result):
    # (x, y, ...) -> y*; the second parent is moved when y* differs from y
    return {"moved": int(result != args[1]), "same": int(args[0] == args[1])}


def _cells(args, result):
    return {"cells": len(args[0]) * len(args[1])}


def _aligned(args, result):
    return {"cells": len(args[0]) * len(args[1]), "same": int(args[0] == args[1])}


def _normalized_pair(args, result):
    # normalizers returning (y*, distance)
    return _normalized(args, result[0])


# (home module, attribute, span name, extra)
TARGETS = (
    ("qgx.ga", "mutate", "ga.mutate", None),
    ("qgx.assignment", "hungarian", "assignment.hungarian", _matrix_size),
    ("qgx.grouping", "li_normalize", "grouping.li_normalize", _normalized),
    ("qgx.grouping", "li_distance", "grouping.li_distance", None),
    ("qgx.circular", "normalize", "circular.normalize", _normalized),
    ("qgx.circular", "quotient_distance", "circular.quotient_distance", None),
    ("qgx.crossovers", "cycle_crossover", "crossovers.cycle_crossover", None),
    ("qgx.crossovers", "mask_crossover", "crossovers.mask_crossover", None),
    ("qgx.sequences", "edit_distance", "sequences.edit_distance", _cells),
    ("qgx.sequences", "optimal_align", "sequences.optimal_align", _aligned),
    ("qgx.sequences", "tail_padded_crossover", "sequences.tail_padded_crossover", None),
    ("qgx.graphs", "quotient_distance_exact", "graphs.quotient_distance_exact", None),
    ("qgx.symmetric", "normalize_discrete", "symmetric.normalize_discrete", _normalized_pair),
    ("qgx.symmetric", "normalize_real", "symmetric.normalize_real", _normalized_pair),
    ("qgx.quotient", "orbit", "quotient.orbit", None),
    ("qgx.suites", "metric_suite", "suites.metric", None),
    ("qgx.suites", "group_suite", "suites.group", None),
    ("qgx.suites", "quotient_suite", "suites.quotient", None),
    ("qgx.suites", "segment_suite", "suites.segment", None),
)

# factories whose returned callable is traced: (home module, attribute, span name)
FACTORIES = (
    ("qgx.ga", "crossover_operator", "ga.crossover"),
    ("qgx.graphs", "make_quotient_hamming", "graphs.quotient_hamming"),
)

@dataclass
class SpanStats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def us_per_call(self) -> float:
        return self.busy_ns / self.calls / 1e3 if self.calls else 0.0

    def per_call(self, key: str) -> float:
        """Mean of an extra per call: a share for 0/1 flags."""
        return self.extra.get(key, 0) / self.calls if self.calls else 0.0


class Tracer:
    def __init__(self, targets=TARGETS, factories=FACTORIES):
        self.targets = targets
        self.factories = factories
        self.spans: list = []
        self.missing: set[str] = set()
        self._stack: list[int] = []

    # -- recording

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: int, end: int, info) -> None:
        self._stack.pop()
        self.spans[sid] = (name, parent, start, end, info)

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        start = _now()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, _now(), None)

    def wrap(self, name: str, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                info = extra(args, result) if extra is not None and result is not None else None
                self._close(sid, parent, name, start, end, info)

        return traced

    def take_spans(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    # -- installation

    def _factory(self, name: str, fn):
        @functools.wraps(fn)
        def make(*args, **kwargs):
            return self.wrap(name, fn(*args, **kwargs))

        return make

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        swaps = []
        try:
            for module_name, attr, name, extra in self.targets:
                original = self._lookup(module_name, attr, name)
                if original is not None:
                    swaps += _replace_everywhere(original, self.wrap(name, original, extra))
            for module_name, attr, name in self.factories:
                original = self._lookup(module_name, attr, name)
                if original is not None:
                    swaps += _replace_everywhere(original, self._factory(name, original))
            yield self
        finally:
            for module, attr, old in reversed(swaps):
                setattr(module, attr, old)

    def _lookup(self, module_name: str, attr: str, name: str):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.add(name)
            return None
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.add(name)
            return None
        return original


def _holds(value, fn) -> bool:
    return value is fn or (isinstance(value, tuple) and any(v is fn for v in value))


def _swap(value, fn, wrapped):
    if value is fn:
        return wrapped
    if isinstance(value, tuple) and any(v is fn for v in value):
        return tuple(wrapped if v is fn else v for v in value)
    return value


def _replace_everywhere(fn, wrapped) -> list:
    """Point every qgx module global (and module-level dict entry) that
    holds `fn` at `wrapped`; returns the (module, attr, old) swaps."""
    swaps = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "qgx" or module_name.startswith("qgx.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                new = wrapped
            elif isinstance(value, dict) and any(_holds(v, fn) for v in value.values()):
                new = {k: _swap(v, fn, wrapped) for k, v in value.items()}
            else:
                continue
            swaps.append((module, attr, value))
            setattr(module, attr, new)
    return swaps


def summarize(spans) -> dict[str, SpanStats]:
    """Calls, busy (inclusive) time, self time and extras per span name."""
    child_ns = [0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, SpanStats] = {}
    for i, (name, _, start, end, extra) in enumerate(spans):
        st = stats.setdefault(name, SpanStats())
        st.calls += 1
        st.busy_ns += end - start
        st.self_ns += end - start - child_ns[i]
        for key, value in (extra or {}).items():
            st.extra[key] = st.extra.get(key, 0) + value
    return stats


# Per-layer metrics: (name, unit, better, deterministic, value from round stats).
# Deterministic metrics are counts that repeat exactly for a fixed seed and
# are taken from the first traced round; the others are timings, reported
# as the median over the traced rounds.

def _calls(span):
    return lambda st: st.get(span, SpanStats()).calls


def _busy_s(span):
    return lambda st: st.get(span, SpanStats()).busy_ns / 1e9


def _self_s(span):
    return lambda st: st.get(span, SpanStats()).self_ns / 1e9


def _us(span):
    return lambda st: st.get(span, SpanStats()).us_per_call


def _per_call(span, key):
    return lambda st: st.get(span, SpanStats()).per_call(key)


def _total(span, key):
    return lambda st: st.get(span, SpanStats()).extra.get(key, 0)


def _layer(span, *parts):
    """Metrics `span.<part>` for the listed parts."""
    makers = {
        "calls": ("count", "lower", True, _calls),
        "busy_s": ("s", "lower", False, _busy_s),
        "us_per_call": ("us", "lower", False, _us),
    }
    out = []
    for part in parts:
        unit, better, det, make = makers[part]
        out.append((f"{span}.{part}", unit, better, det, make(span)))
    return out


LAYER_METRICS = (
    [("ga.run_ga.self_s", "s", "lower", False, _self_s("ga.run_ga"))]
    + _layer("ga.crossover", "calls", "busy_s")
    + _layer("ga.mutate", "calls", "busy_s")
    + _layer("problems.fitness", "calls", "busy_s", "us_per_call")
    + _layer("assignment.hungarian", "calls", "us_per_call")
    + [("assignment.hungarian.mean_n", "count", "lower", True, _per_call("assignment.hungarian", "n"))]
    + _layer("grouping.li_normalize", "calls", "us_per_call")
    + [
        ("grouping.li_normalize.moved_share", "ratio", "higher", True, _per_call("grouping.li_normalize", "moved")),
        ("grouping.li_normalize.same_parent_share", "ratio", "lower", True, _per_call("grouping.li_normalize", "same")),
    ]
    + _layer("grouping.li_distance", "calls", "us_per_call")
    + _layer("circular.normalize", "calls", "us_per_call")
    + [
        ("circular.normalize.moved_share", "ratio", "higher", True, _per_call("circular.normalize", "moved")),
        ("circular.normalize.same_parent_share", "ratio", "lower", True, _per_call("circular.normalize", "same")),
    ]
    + _layer("circular.quotient_distance", "calls", "us_per_call")
    + _layer("crossovers.cycle_crossover", "calls", "us_per_call")
    + _layer("crossovers.mask_crossover", "calls", "us_per_call")
    + _layer("sequences.edit_distance", "calls", "us_per_call")
    + [("sequences.edit_distance.cells", "count", "lower", True, _total("sequences.edit_distance", "cells"))]
    + _layer("sequences.optimal_align", "calls", "us_per_call")
    + [
        ("sequences.optimal_align.cells", "count", "lower", True, _total("sequences.optimal_align", "cells")),
        ("sequences.optimal_align.same_parent_share", "ratio", "lower", True, _per_call("sequences.optimal_align", "same")),
    ]
    + _layer("sequences.tail_padded_crossover", "us_per_call")
    + _layer("graphs.quotient_distance_exact", "calls", "us_per_call")
    + _layer("graphs.quotient_hamming", "calls", "us_per_call")
    + _layer("symmetric.normalize_discrete", "calls", "us_per_call")
    + _layer("symmetric.normalize_real", "calls", "us_per_call")
    + _layer("quotient.orbit", "calls", "busy_s")
    + [m for suite in SUITES for m in _layer(f"suites.{suite}", "busy_s")]
    + [m for family in ALL_FAMILIES for m in _layer(f"suites.{family}", "busy_s")]
)

# reported by the runner, outside any single round's spans
RUN_METRICS = (
    ("setup.import_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.missing", "count", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return list(RUN_METRICS[:2]) + [m[:3] for m in LAYER_METRICS] + list(RUN_METRICS[2:])


def layer_metrics(round_stats: list[dict[str, SpanStats]]) -> dict[str, float]:
    """Counts from the first traced round, timings as medians over all."""
    out = {}
    for name, _, _, deterministic, value in LAYER_METRICS:
        if deterministic:
            out[name] = value(round_stats[0])
        else:
            out[name] = statistics.median(value(st) for st in round_stats)
    return out
