"""Outside-in tracer for quivercount.

The tracer wraps named library functions from the outside, in every module
namespace of the package that binds them, so no program file changes.  Each
call records a span ``[name, start, end, parent]`` in memory; generator
functions get a span over their whole iteration.  Observers attached to some
hooks update exact counters from the call's arguments or result; their time
is recorded as a ``trace.observe`` span so it is charged to no layer.

A hook whose target no longer exists is reported in ``missing`` and every
metric derived from it is left out; the traced run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

PACKAGE = "quivercount"
MODULES = ("cli", "counting", "series", "quiver", "qpoly", "oracle", "verify",
           "numtheory")


def _bump(counters: dict, key: str, amount: int) -> None:
    counters[key] = counters.get(key, 0) + amount


def _raise_to(counters: dict, key: str, value: int) -> None:
    counters[key] = max(counters.get(key, 0), value)


def _gcd_sizes(counters, args, result):
    polys = args[:2]
    _raise_to(counters, "qpoly.poly_gcd.max_degree", max(p.degree for p in polys))
    _raise_to(counters, "qpoly.poly_gcd.max_bits", max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length())
         for p in polys for c in p.coeffs), default=0))


def _series_terms(counters, args, result):
    _bump(counters, "series.terms", len(result.support()))


def _table_entries(counters, args, result):
    _bump(counters, "counting.table_entries", len(result.entries))


def _points(counters, args, result):
    _bump(counters, "oracle.points", int(args[0].shape[0]))


def _ranked(counters, args, result):
    _bump(counters, "oracle.ranked", int(args[0].shape[0]))


def _candidates(counters, args, result):
    _bump(counters, "oracle.candidates", len(result))


def _verification(counters, args, result):
    _bump(counters, "verify.checked", result.n_checked)
    _bump(counters, "verify.skipped", result.n_skipped)


# (module, attribute, observer); "Class.method" wraps a method on the class.
HOOKS = (
    ("cli", "main", None),
    ("counting", "semistable_series", None),
    ("counting", "semistable_ratio", None),
    ("counting", "absolutely_stable_table", _table_entries),
    ("counting", "residual_q1_expansion", None),
    ("counting", "residual_series_recursive", None),
    ("counting", "positivity_report", None),
    ("counting", "stable_end_degree_poly", None),
    ("series", "twisted_inverse", _series_terms),
    ("series", "plethystic_log", _series_terms),
    ("series", "ordinary_log", _series_terms),
    ("series", "adams", _series_terms),
    ("quiver", "qbinom_vec", None),
    ("qpoly", "QPoly.shifted", None),
    ("qpoly", "RationalFunction.taylor_at_one", None),
    ("qpoly", "poly_gcd", _gcd_sizes),
    ("oracle", "enumerate_points", None),
    ("oracle", "count_semistable_ratio", None),
    ("oracle", "count_absolutely_stable", None),
    ("oracle", "count_stable_with_end_dim", None),
    ("oracle", "_candidate_constraints", _candidates),
    ("oracle", "_no_invariant_mask", _points),
    ("oracle", "_batch_rank", _ranked),
    ("verify", "run_verification", _verification),
)

# Counters that need no wrapper: lru_cache statistics read at the end.
CACHES = (("quiver", "qbinom", "quiver.qbinom"),)

# Each exact counter and the hook it comes from; merged by sum, or by max
# for the ``max_`` ones.
COUNTERS = {
    "qpoly.poly_gcd.max_degree": "qpoly.poly_gcd",
    "qpoly.poly_gcd.max_bits": "qpoly.poly_gcd",
    "series.terms": "series.twisted_inverse",
    "counting.table_entries": "counting.absolutely_stable_table",
    "oracle.points": "oracle._no_invariant_mask",
    "oracle.ranked": "oracle._batch_rank",
    "oracle.candidates": "oracle._candidate_constraints",
    "verify.checked": "verify.run_verification",
    "verify.skipped": "verify.run_verification",
    "quiver.qbinom.hits": "quiver.qbinom.cache_info",
    "quiver.qbinom.misses": "quiver.qbinom.cache_info",
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Spans and counters of one process; install once, read with record()."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._modules: dict[str, object] = {}

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for name in MODULES:
            self._modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
        namespaces = [importlib.import_module(PACKAGE), *self._modules.values()]
        for module, attr, observe in HOOKS:
            owner = self._modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if not callable(original):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(span_name(module, attr), original, observe)
            if path:
                setattr(owner, leaf, wrapper)
                continue
            for ns in namespaces:
                for key in [k for k, v in vars(ns).items() if v is original]:
                    setattr(ns, key, wrapper)

    def _open(self, name: str, push: bool) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        if push:
            self.stack.append(idx)
        return idx

    def _close(self, idx: int, pop: bool) -> None:
        if pop:
            self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _observe(self, observe, args, result) -> None:
        idx = self._open("trace.observe", push=False)
        observe(self.counters, args, result)
        self._close(idx, pop=False)

    def _wrap(self, name: str, fn, observe):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                # Not pushed: the consumer runs between items, so spans it
                # opens belong to the consumer's own parent.
                idx = self._open(name, push=False)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(idx, pop=False)
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, push=True)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, pop=True)
            if observe is not None:
                self._observe(observe, args, result)
            return result
        return wrapper

    # -- reading ------------------------------------------------------------

    def record(self) -> dict:
        """Spans, counters (with cache statistics) and missing hooks."""
        counters, missing = dict(self.counters), list(self.missing)
        for module, attr, prefix in CACHES:
            info = getattr(getattr(self._modules[module], attr, None), "cache_info", None)
            if info is None:
                missing.append(f"{module}.{attr}.cache_info")
                continue
            stats = info()
            counters[f"{prefix}.hits"] = stats.hits
            counters[f"{prefix}.misses"] = stats.misses
        return {"spans": self.spans, "counters": counters, "missing": missing}


# -- turning spans into metrics ---------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_stats(spans: list[list]) -> dict[str, float]:
    """Per span name: ``.s`` (outermost calls), ``.self_s`` and ``.calls``."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    stats: dict[str, float] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        if name == "trace.observe":
            continue
        duration = end - start
        nested = False
        while parent >= 0 and not nested:
            nested = spans[parent][0] == name
            parent = spans[parent][3]
        if not nested:
            stats[f"{name}.s"] = stats.get(f"{name}.s", 0.0) + duration
        own = duration - _covered(children.get(idx, []), start, end)
        stats[f"{name}.self_s"] = stats.get(f"{name}.self_s", 0.0) + own
        stats[f"{name}.calls"] = stats.get(f"{name}.calls", 0) + 1
    return stats


def hooked_stats(missing: list[str]) -> list[str]:
    """Every span statistic the hooks can produce, leaving out missing ones."""
    names = []
    for module, attr, _ in HOOKS:
        if f"{module}.{attr}" in missing:
            continue
        base = span_name(module, attr)
        names += [f"{base}.s", f"{base}.self_s", f"{base}.calls"]
    return names
