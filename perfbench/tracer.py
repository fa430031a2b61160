"""Spans and counters around the public functions of each package layer.

The tracer measures the package from outside: ``install`` replaces each
target function, in every ``spectrapairs`` module that binds it, with a
wrapper that records a span ``(span_id, name, start, end, parent_id)`` and
updates the layer's counters.  Names bound at import time (``spectral``
imports ``root_sum_is_zero``, the CLI imports most of the API) are
replaced where callers look them up, so recursive and internal calls are
seen too.  ``uninstall`` restores the originals; the package source is
never changed.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from timing import busy_by_name

LAYERS = ("exact", "spectral", "arrows", "measures", "representation", "cli")

# (module, function, span name).  A span's layer is its name up to the
# first dot.  Missing functions are skipped, so a later refactor of the
# package leaves the tracer working with fewer spans.
TARGETS = (
    ("exact", "root_sum_is_zero", "exact.zero_test"),
    ("exact", "cyclotomic_polynomial", "exact.phi"),
    ("spectral", "certify_spectral_pair", "spectral.certify"),
    ("spectral", "search_spectrum", "spectral.search"),
    ("spectral", "decide_line_set", "spectral.decide"),
    ("spectral", "construct_line_spectrum", "spectral.construct"),
    ("arrows", "new_session", "arrows.new_session"),
    ("arrows", "close", "arrows.close"),
    ("measures", "ifs_transform", "measures.ifs_transform"),
    ("measures", "atomic_transform", "measures.atomic_transform"),
    ("measures", "gram_matrix", "measures.gram"),
    ("measures", "completeness_defect", "measures.completeness"),
    ("measures", "frame_bounds", "measures.frame_bounds"),
    ("representation", "multiplication_representation", "representation.multiplication"),
    ("representation", "evaluate_group_element", "representation.evaluate"),
    ("representation", "correlation", "representation.correlation"),
    ("representation", "measure_from_representation", "representation.measure"),
    ("representation", "is_wandering", "representation.wandering"),
    ("representation", "permutation_representation", "representation.permutation"),
)

# Private helper counted (not spanned) for the number of certified columns.
COLUMN_TEST = ("spectral", "_column_sum_is_zero")


def _count_zero_test(tracer, args, result):
    c = tracer.counters
    c["exact.zero_test.vanished"] += bool(result)
    order = getattr(args[0], "order", 0)
    if order > c["exact.zero_test.max_order"]:
        c["exact.zero_test.max_order"] = order
    if tracer.open_names["spectral.search"]:
        c["spectral.search.zero_tests"] += 1


def _count_certify(tracer, args, result):
    tracer.counters["spectral.certify.inexact"] += not getattr(result, "exact", True)


def _count_search(tracer, args, result):
    tracer.counters["spectral.search.hits"] += result is not None


def _count_close(tracer, args, result):
    c = tracer.counters
    c["arrows.facts"] += len(result.facts)
    c["arrows.trace_entries"] += len(result.trace)
    c["arrows.rounds"] += result.rounds_used


def _count_ifs(tracer, args, result):
    c = tracer.counters
    c["measures.ifs_transform.depth"] += result.depth
    c["measures.ifs_transform.exact_zeros"] += result.value == 0


def _count_gram(tracer, args, result):
    lam = list(args[1])
    pairs = [(i, j) for i in range(len(lam)) for j in range(i + 1, len(lam))]
    c = tracer.counters
    c["measures.gram.entries"] += len(pairs)
    c["measures.gram.distinct_diffs"] += len({lam[j] - lam[i] for i, j in pairs})


COUNTERS = {
    "exact.zero_test": _count_zero_test,
    "spectral.certify": _count_certify,
    "spectral.search": _count_search,
    "arrows.close": _count_close,
    "measures.ifs_transform": _count_ifs,
    "measures.gram": _count_gram,
}


class Tracer:
    """Records spans in memory while ``active``; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.open_names: Counter = Counter()
        # Self time merged in from traced child processes, by span name.
        self.extra_busy: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name):
        count = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            tracer.open_names[name] += 1
            tracer.calls[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "arrows.close" and hasattr(exc, "trace"):
                    tracer.counters["arrows.inconsistent"] += 1
                    tracer.counters["arrows.trace_entries"] += len(exc.trace)
                raise
            finally:
                end = time.perf_counter()
                tracer.open_names[name] -= 1
                tracer._stack.pop()
                tracer.spans.append((sid, name, start, end, parent))
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    def _count_columns(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active and tracer.open_names["spectral.certify"]:
                tracer.counters["spectral.certify.columns"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every target in every loaded ``spectrapairs`` module."""
        if self._patched:
            return
        wrappers = {}
        for mod, attr, name in TARGETS:
            fn = getattr(sys.modules.get(f"spectrapairs.{mod}"), attr, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(fn, name))
        fn = getattr(sys.modules.get(f"spectrapairs.{COLUMN_TEST[0]}"), COLUMN_TEST[1], None)
        if fn is not None:
            wrappers[id(fn)] = (fn, self._count_columns(fn))
        for modname, module in list(sys.modules.items()):
            if modname != "spectrapairs" and not modname.startswith("spectrapairs."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def busy(self) -> Counter:
        """Self time per span name, including merged child processes."""
        total = busy_by_name(self.spans)
        total.update(self.extra_busy)
        return total

    def summary(self) -> dict:
        """Calls, counters and self time, in the form ``merge`` takes."""
        return {
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "busy": dict(self.busy()),
        }

    def merge(self, summary: dict) -> None:
        """Add a child process's ``summary``."""
        self.calls.update(summary["calls"])
        for key, value in summary["counters"].items():
            if key.endswith("max_order"):
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        self.extra_busy.update(summary["busy"])


def phi_misses(fn) -> int:
    """Cache misses of ``cyclotomic_polynomial``: the Phi_N built so far."""
    info = getattr(fn, "cache_info", None)
    return info().misses if info else 0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, op_seconds: float) -> dict:
    """Per-layer metrics.  Calls, counts and busy time are per traced pass;
    each layer's ``busy_share`` is its self time as a share of
    ``op_seconds``, the wall time of the traced operations."""
    calls, c, busy = tracer.calls, tracer.counters, tracer.busy()
    per = 1.0 / passes if passes else 0.0

    def layer_total(counter, layer):
        return sum(v for k, v in counter.items() if k.split(".", 1)[0] == layer)

    m = {
        "exact.zero_test.calls": calls["exact.zero_test"] * per,
        "exact.zero_test.busy_s": busy["exact.zero_test"] * per,
        "exact.zero_test.max_order": c["exact.zero_test.max_order"],
        "exact.zero_test.vanish_ratio": _ratio(
            c["exact.zero_test.vanished"], calls["exact.zero_test"]
        ),
        "exact.phi.builds": c["exact.phi.builds"] * per,
        "exact.phi.busy_s": busy["exact.phi"] * per,
        "spectral.certify.calls": calls["spectral.certify"] * per,
        "spectral.certify.busy_s": busy["spectral.certify"] * per,
        "spectral.certify.columns": c["spectral.certify.columns"] * per,
        "spectral.certify.inexact": c["spectral.certify.inexact"] * per,
        "spectral.search.calls": calls["spectral.search"] * per,
        "spectral.search.busy_s": busy["spectral.search"] * per,
        "spectral.search.zero_tests": c["spectral.search.zero_tests"] * per,
        "spectral.search.hit_ratio": _ratio(
            c["spectral.search.hits"], calls["spectral.search"]
        ),
        "arrows.close.calls": calls["arrows.close"] * per,
        "arrows.close.busy_s": busy["arrows.close"] * per,
        "arrows.facts": c["arrows.facts"] * per,
        "arrows.trace_entries": c["arrows.trace_entries"] * per,
        "arrows.facts_per_trace": _ratio(c["arrows.facts"], c["arrows.trace_entries"]),
        "arrows.rounds": c["arrows.rounds"] * per,
        "arrows.inconsistent": c["arrows.inconsistent"] * per,
        "measures.ifs_transform.calls": calls["measures.ifs_transform"] * per,
        "measures.ifs_transform.busy_s": busy["measures.ifs_transform"] * per,
        "measures.ifs_transform.depth": _ratio(
            c["measures.ifs_transform.depth"], calls["measures.ifs_transform"]
        ),
        "measures.ifs_transform.exact_zero_ratio": _ratio(
            c["measures.ifs_transform.exact_zeros"], calls["measures.ifs_transform"]
        ),
        "measures.gram.calls": calls["measures.gram"] * per,
        "measures.gram.busy_s": busy["measures.gram"] * per,
        "measures.gram.entries": c["measures.gram.entries"] * per,
        "measures.gram.distinct_diff_ratio": _ratio(
            c["measures.gram.distinct_diffs"], c["measures.gram.entries"]
        ),
        "measures.completeness.calls": calls["measures.completeness"] * per,
        "measures.completeness.busy_s": busy["measures.completeness"] * per,
        "measures.frame_bounds.calls": calls["measures.frame_bounds"] * per,
        "measures.frame_bounds.busy_s": busy["measures.frame_bounds"] * per,
        "representation.calls": layer_total(calls, "representation") * per,
        "representation.busy_s": layer_total(busy, "representation") * per,
    }
    runs = c["cli.runs"]
    for part in ("interpreter", "import", "numpy_import", "compute"):
        m[f"cli.{part}_ms"] = _ratio(c[f"cli.{part}_s"], runs) * 1e3
    for layer in LAYERS:
        m[f"{layer}.busy_share"] = _ratio(layer_total(busy, layer), op_seconds)
    return m
