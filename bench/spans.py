"""In-memory span recorder wrapped around the package's public functions.

Nothing in the package changes: `install` rebinds each listed function in
every `ehrhart_lab` module that holds it (so names imported with
`from .x import y` are covered too) and patches the listed `RatPoly` and
`IntMatrix` methods on the class.  `uninstall` puts the originals back.

A span is (layer, start, end, parent index).  A layer's self time is the
sum over its spans of the span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# layer -> public callables wrapped for it, as (module, attribute); an
# attribute "Class.method" is patched on the class
LAYERS = {
    "cli": [("cli", "main")],
    "delta.poly": [("delta", "ehrhart_polynomial")],
    "roots.report": [("roots", "hypothesis_report")],
    "roots.find_roots": [("roots", "find_roots")],
    "roots.strip": [("roots", "strip_verdict")],
    "exact.sturm": [
        ("exact", "sturm_distinct_real_roots"),
        ("exact", "all_roots_real_nonneg"),
        ("exact", "RatPoly.__divmod__"),
        ("exact", "RatPoly.squarefree_part"),
    ],
    "exact.discriminant": [("exact", "discriminant")],
    "exact.routh": [("exact", "routh_right_halfplane_count")],
    "exact.shift": [("exact", "RatPoly.shift"), ("exact", "RatPoly.compose_linear")],
    "exact.matrix": [
        ("exact", "fraction_matrix_inverse"),
        ("exact", "solve_linear_exact"),
        ("exact", "row_hermite_basis"),
        ("exact", "smith_normal_form"),
        ("exact", "IntMatrix.det"),
    ],
    "criteria": [
        ("criteria", "classify"),
        ("criteria", "classify_dim4"),
        ("criteria", "classify_dim5"),
        ("criteria", "classify_dim6"),
        ("criteria", "classify_dim7"),
    ],
    "lattice.box": [
        ("lattice", "delta_dominated_by"),
        ("lattice", "box_points"),
        ("lattice", "delta_of_simplex"),
    ],
    "lattice.canonical": [("lattice", "canonical_form")],
    "lattice.checks": [("lattice", "is_terminal"), ("lattice", "is_reflexive")],
    "wps.enumerate": [("wps", "enumerate_weights")],
    "realize.search": [("realize", "realize")],
    "realize.dominance": [("realize", "ehrhart_dominates")],
    "realize.chart": [
        ("realize", "enumerate_actions"),
        ("realize", "filter_actions"),
        ("realize", "build_quotient_simplex"),
    ],
    "realize.tower": [("realize", "tower_scan")],
}

NUMERIC_VERDICT_SUFFIXES = ("-numeric", "boundary-indeterminate")


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time per layer over every recorded span."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (layer, start, end, _), inner in zip(self.spans, child):
            out[layer] += (end - start) - inner
        return dict(out)

    def calls(self) -> dict[str, int]:
        return dict(Counter(span[0] for span in self.spans))


def _result_hooks(recorder: Recorder) -> dict[tuple[str, str], object]:
    """Counters read from the return values of some wrapped calls."""
    counts = recorder.counts

    def strip(verdict):
        if verdict.verdict.endswith(NUMERIC_VERDICT_SUFFIXES):
            counts["roots.numeric_verdicts"] += 1

    def routh(value):
        if value is None:
            counts["exact.routh.degenerate"] += 1

    def weights(systems):
        counts["wps.enumerate.systems"] += len(systems)

    def tower(result):
        counts["realize.tower.nodes"] += result[1]

    def search(result):
        log = result.log
        counts["realize.weights.enumerated"] += log.weights_enumerated
        counts["realize.weights.after_dominance"] += log.weights_after_dominance
        counts["realize.actions.enumerated"] += log.actions_enumerated
        counts["realize.actions.after_age"] += log.actions_after_age_bound
        counts["realize.actions.after_closure"] += log.actions_after_chart_closure

    return {
        ("roots", "strip_verdict"): strip,
        ("exact", "routh_right_halfplane_count"): routh,
        ("wps", "enumerate_weights"): weights,
        ("realize", "tower_scan"): tower,
        ("realize", "realize"): search,
    }


def install(recorder: Recorder):
    """Wrap every callable in LAYERS; returns a function that undoes it."""
    import ehrhart_lab.cli  # noqa: F401 - loads every module that is wrapped

    hooks = _result_hooks(recorder)
    modules = [m for name, m in sys.modules.items()
               if name == "ehrhart_lab" or name.startswith("ehrhart_lab.")]
    undo = []
    for layer, targets in LAYERS.items():
        for module_name, attr in targets:
            home = sys.modules[f"ehrhart_lab.{module_name}"]
            hook = hooks.get((module_name, attr))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, recorder.wrap(layer, original, hook))
                undo.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapped = recorder.wrap(layer, original, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
                        undo.append((module, name, original))

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall
