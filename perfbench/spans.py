"""Span recording around toric_exc's public functions, and the per-layer
metrics computed from the spans.

`install` replaces every binding of each traced function, in every loaded
toric_exc module namespace (aliases such as `matrix_rank` included), with a
wrapper that records a span: name, parent span, start and end.  Calls made
through an imported name therefore land in the trace as well.  A few
functions are only counted, without a span of their own, so that their
time stays with the caller's self time.  Spans stay in memory until the
round ends; self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
from collections import Counter
from time import perf_counter

TRACED = {
    "lattice": ("rank", "smith_normal_form"),
    "fan": ("validate_fan", "primitive_collections"),
    "picard": ("build_pic_context", "to_class"),
    "catalog": ("load_catalog", "parse_fan_file"),
    "frobenius": ("decompose", "stable_summands"),
    "cohomology": ("forbidden_sets", "cohomology_table", "is_acyclic", "has_nonzero_global_sections"),
    "exceptional": ("verify_strongly_exceptional", "fullness_certificate", "koszul_reduction_certificate"),
    "cli": ("main",),
}

# One call per ray-subset pattern whose homology is looked up; inside
# forbidden_sets that is one call per mask swept.
COUNTED = {"cohomology": ("_pattern_ranks",)}

SELF_TIMED = (
    "lattice.rank", "lattice.smith_normal_form", "fan.validate_fan", "fan.primitive_collections",
    "picard.build_pic_context", "catalog.load_catalog", "catalog.parse_fan_file",
    "frobenius.decompose", "frobenius.stable_summands", "cohomology.forbidden_sets",
    "cohomology.cohomology_table", "cohomology.is_acyclic",
    "cohomology.has_nonzero_global_sections", "exceptional.verify_strongly_exceptional",
    "exceptional.fullness_certificate", "cli.main",
)
CALL_COUNTED = (
    "lattice.rank", "frobenius.decompose", "cohomology.cohomology_table",
    "cohomology.is_acyclic", "cohomology.has_nonzero_global_sections",
)
QUERIES = ("cohomology.cohomology_table", "cohomology.is_acyclic", "cohomology.has_nonzero_global_sections")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _class_key(args, kwargs):
    ctx, divisor = _arg(args, kwargs, 0, "ctx"), _arg(args, kwargs, 1, "divisor")
    cls = tuple(sum(x * int(a) for x, a in zip(row, divisor)) for row in ctx.class_map.entries)
    return f"{id(ctx.fan)}:{cls}"


def _decompose_extra(args, kwargs, result):
    fan, p = _arg(args, kwargs, 0, "fan"), _arg(args, kwargs, 3, "p")
    return {"residues": p ** fan.dim, "classes": len(result.summands)}


def _table_extra(args, kwargs, result):
    return {"key": _class_key(args, kwargs), "radius": result.box_radius_used}


def _query_extra(args, kwargs, result):
    return {"key": _class_key(args, kwargs)}


EXTRAS = {
    "frobenius.decompose": _decompose_extra,
    "cohomology.forbidden_sets": lambda args, kwargs, result: {"found": len(result.forbidden)},
    "cohomology.cohomology_table": _table_extra,
    "cohomology.is_acyclic": _query_extra,
    "cohomology.has_nonzero_global_sections": _query_extra,
    "exceptional.verify_strongly_exceptional":
        lambda args, kwargs, result: {"pairs": len(result.collection) ** 2},
}


class Recorder:
    """Spans [name, parent span or None, start, end, extra] and counted calls."""

    def __init__(self):
        self.spans = []
        self.marks = []          # [name, enclosing span or None]
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn):
        extra_of = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [name, stack[-1] if stack else None, 0.0, 0.0, None]
            self.spans.append(span)
            stack.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[3] = perf_counter()
                stack.pop()
                span[4] = {"raised": True}
                raise
            span[3] = perf_counter()
            stack.pop()
            if extra_of is not None:
                span[4] = extra_of(args, kwargs, result)
            return result

        return wrapper

    def count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            self.marks.append([name, stack[-1] if stack else None])
            return fn(*args, **kwargs)

        return wrapper

    def export(self):
        """Spans with parents as list indices, ready for JSON."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        spans = [[n, -1 if p is None else index[id(p)], t0, t1, x] for n, p, t0, t1, x in self.spans]
        marks = [[n, -1 if p is None else index[id(p)]] for n, p in self.marks]
        return {"spans": spans, "marks": marks}


def install(recorder):
    """Rebind every traced function in every loaded toric_exc namespace."""
    wrappers = {}
    for table, make in ((TRACED, recorder.span), (COUNTED, recorder.count)):
        for short, names in table.items():
            module = importlib.import_module(f"toric_exc.{short}")
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, make(f"{short}.{name}", fn))
    for modname, module in list(sys.modules.items()):
        if modname != "toric_exc" and not modname.startswith("toric_exc."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def layer_metrics(trace):
    """Per-layer metrics of one traced round (see the README for each name)."""
    spans, marks = trace["spans"], trace["marks"]
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, extra in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    self_s, calls = Counter(), Counter()
    for i, (name, parent, t0, t1, extra) in enumerate(spans):
        self_s[name] += (t1 - t0) - child_time[i]
        calls[name] += 1

    def extras(name):
        return [(i, s[4] or {}) for i, s in enumerate(spans) if s[0] == name]

    decompositions = extras("frobenius.decompose")
    residues = sum(x.get("residues", 0) for _, x in decompositions)
    summand_classes = sum(x.get("classes", 0) for _, x in decompositions)

    swept_by = Counter(parent for name, parent in marks
                       if name == "cohomology._pattern_ranks" and parent >= 0
                       and spans[parent][0] == "cohomology.forbidden_sets")
    sweeps = [(i, x) for i, x in extras("cohomology.forbidden_sets") if swept_by[i]]
    masks = sum(swept_by[i] for i, _ in sweeps)
    found = sum(x.get("found", 0) for _, x in sweeps)

    radii = [x["radius"] for _, x in extras("cohomology.cohomology_table") if "radius" in x]
    keys = [x["key"] for name in QUERIES for _, x in extras(name) if "key" in x]

    koszul = extras("exceptional.koszul_reduction_certificate")
    reductions = sum(1 for _, x in koszul if not x.get("raised"))

    out = {f"{name}.self_s": (self_s[name], "s") for name in SELF_TIMED}
    out.update({f"{name}.calls": (calls[name], "count") for name in CALL_COUNTED})
    out.update({
        "picard.class_calls": (calls["picard.to_class"], "count"),
        "frobenius.residues": (residues, "count"),
        "frobenius.residues_per_class": (residues / summand_classes if summand_classes else 0.0, "residues/class"),
        "cohomology.masks_swept": (masks, "count"),
        "cohomology.forbidden_per_mask": (found / masks if masks else 0.0, "sets/mask"),
        "cohomology.box_radius_used.mean": (statistics.fmean(radii) if radii else 0.0, "radius"),
        "cohomology.representatives": (sum((2 * r + 1) ** 3 + (2 * r + 5) ** 3 for r in radii), "count"),
        "cohomology.distinct_per_query": (len(set(keys)) / len(keys) if keys else 0.0, "classes/query"),
        "exceptional.pairs": (sum(x.get("pairs", 0) for _, x in extras("exceptional.verify_strongly_exceptional")), "count"),
        "exceptional.koszul_attempts": (len(koszul), "count"),
        "exceptional.koszul_per_attempt": (reductions / len(koszul) if koszul else 0.0, "success/attempt"),
    })
    return out
