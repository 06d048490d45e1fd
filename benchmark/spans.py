"""Wrapper-based tracing of the tautchern layers, installed from outside.

Tracer.install wraps the public functions and methods named in TARGETS
and rebinds every name that refers to them, including names bound by
``from .x import f`` in other modules, so nothing under src/ changes.
Each call records a span (id, parent id, request id, name, start, end)
in memory and, at the same wrapper, the counts listed in COUNTERS.
Tracer.uninstall puts every original back.  layer_metrics turns one
traced pass into the per-layer metrics.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, class or None, attribute, span name).  Span names start with
# the layer name that the per-layer metrics aggregate over.
TARGETS = (
    ("algebra", "TautExpr", "build", "algebra.build"),
    ("algebra", "TautExpr", "__mul__", "algebra.mul"),
    ("algebra", "TautExpr", "__add__", "algebra.add"),
    ("algebra", "TautExpr", "map_generators", "algebra.map_generators"),
    ("algebra", "ModuliSpec", "canonical_splitting", "algebra.splitting.canonical"),
    ("algebra", "ModuliSpec", "mirror_splitting", "algebra.splitting.mirror"),
    ("algebra", "ModuliSpec", "splitting_is_stable", "algebra.splitting.is_stable"),
    ("algebra", "ModuliSpec", "ordered_splittings", "algebra.splitting.ordered"),
    ("algebra", "ModuliSpec", "splitting_classes", "algebra.splitting.classes"),
    ("formulas", None, "ch_cotangent", "formulas.ch_cotangent"),
    ("formulas", None, "chern_from_ch", "formulas.chern_from_ch"),
    ("formulas", None, "to_lambda_basis", "formulas.to_lambda_basis"),
    ("formulas", None, "chern_exp_oracle", "formulas.chern_exp_oracle"),
    ("partitions", None, "partitions", "partitions.partitions"),
    ("partitions", None, "partition_chern_coeff", "partitions.partition_chern_coeff"),
    ("partitions", None, "power_sym", "partitions.power_sym"),
    ("partitions", None, "alternating_sym", "partitions.alternating_sym"),
    ("rationals", None, "bernoulli", "rationals.bernoulli"),
    ("biseries", "BiSeries", "build", "biseries.build"),
    ("biseries", "BiSeries", "__mul__", "biseries.mul"),
    ("biseries", "BiSeries", "inverse", "biseries.inverse"),
    ("render", None, "render", "render.render"),
    ("render", None, "render_json_dict", "render.render_json_dict"),
    ("cli", None, "main", "cli.main"),
)


def _build_counts(counts, args, result):
    counts["algebra.build.items_in"] += len(args[2])
    counts["algebra.build.terms_out"] += len(result.terms)


def _mul_counts(counts, args, result):
    counts["algebra.mul.pairs"] += len(args[0].terms) * len(args[1].terms)


def _biseries_mul_counts(counts, args, result):
    counts["biseries.mul.pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


def _render_counts(counts, args, result):
    counts["render.bytes_out"] += len(result.encode())


# Counts taken at the wrapper beside the span, keyed by span name.
COUNTERS = {
    "algebra.build": _build_counts,
    "algebra.mul": _mul_counts,
    "biseries.mul": _biseries_mul_counts,
    "render.render": _render_counts,
}


def _materialize_items(args):
    """TautExpr.build may get a generator; count its items before the call."""
    spec, order, items = args
    return spec, order, list(items)


# Argument rewrites done before the span starts, keyed by span name.
PREPARE = {"algebra.build": _materialize_items}


def _list_partitions(fn):
    """partitions() is a generator; list it so its span covers the work."""
    def partitions(j):
        return list(fn(j))
    return partitions


class Tracer:
    """Spans and counts for the traced calls of one process."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack = [0]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def wrap(self, name: str, fn):
        prepare = PREPARE.get(name)
        count = COUNTERS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, self.request, name, start, end))
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind each name that refers to it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "tautchern" or key.startswith("tautchern.")]
        for mod_name, cls_name, attr, span_name in TARGETS:
            mod = sys.modules[f"tautchern.{mod_name}"]
            if cls_name is not None:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.wrap(span_name, raw.__func__))
                else:
                    wrapped = self.wrap(span_name, raw)
                self._rebind(cls, attr, wrapped)
                continue
            original = getattr(mod, attr)
            fn = _list_partitions(original) if span_name == "partitions.partitions" \
                else original
            wrapped = self.wrap(span_name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, wrapped)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "per_class")):
        return "ratio"
    return "bytes" if name.endswith("bytes_out") else "count"


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Overlapping children are merged so no instant is subtracted twice,
    and children are clipped to their parent's interval.
    """
    children = defaultdict(list)
    for span_id, parent, _req, _name, start, end in spans:
        children[parent].append((start, end))
    out = {}
    for span_id, _parent, _req, _name, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def layer_metrics(spans, counts, splitting_classes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    splitting_classes is the number of separating-divisor classes summed
    over the pass's concrete requests, the base of calls_per_class.
    """
    selfs = self_times(spans)
    calls, total, own = Counter(), defaultdict(float), defaultdict(float)
    parent_of, name_of = {}, {}
    for span_id, parent, _req, name, start, end in spans:
        calls[name] += 1
        total[name] += end - start
        own[name] += selfs[span_id]
        parent_of[span_id], name_of[span_id] = parent, name

    def layer(prefix, table):
        return sum(v for k, v in table.items()
                   if k == prefix or k.startswith(prefix + "."))

    def under(span_id, ancestor):
        span_id = parent_of.get(span_id, 0)
        while span_id:
            if name_of[span_id] == ancestor:
                return True
            span_id = parent_of[span_id]
        return False

    products = sum(1 for span in spans if span[3] == "algebra.mul"
                   and under(span[0], "formulas.chern_from_ch"))
    items_in = counts["algebra.build.items_in"]
    canonical = calls["algebra.splitting.canonical"]
    metrics = {
        "algebra.build.calls": calls["algebra.build"],
        "algebra.build.items_in": items_in,
        "algebra.build.terms_out": counts["algebra.build.terms_out"],
        "algebra.build.self_s": own["algebra.build"],
        "algebra.build.keep_ratio":
            counts["algebra.build.terms_out"] / items_in if items_in else 0.0,
        "algebra.mul.calls": calls["algebra.mul"],
        "algebra.mul.pairs": counts["algebra.mul.pairs"],
        "algebra.mul.self_s": own["algebra.mul"],
        "algebra.add.calls": calls["algebra.add"],
        "algebra.add.self_s": own["algebra.add"],
        "algebra.map_generators.calls": calls["algebra.map_generators"],
        "algebra.map_generators.total_s": total["algebra.map_generators"],
        "algebra.splitting.canonical_calls": canonical,
        "algebra.splitting.self_s": layer("algebra.splitting", own),
        "algebra.splitting.calls_per_class":
            canonical / splitting_classes if splitting_classes else 0.0,
    }
    for fn in ("ch_cotangent", "chern_from_ch", "to_lambda_basis", "chern_exp_oracle"):
        metrics[f"formulas.{fn}.total_s"] = total[f"formulas.{fn}"]
    metrics["formulas.chern_from_ch.products"] = products
    metrics.update({
        "partitions.calls": layer("partitions", calls),
        "partitions.self_s": layer("partitions", own),
        "rationals.bernoulli.calls": calls["rationals.bernoulli"],
        "rationals.bernoulli.self_s": own["rationals.bernoulli"],
        "biseries.mul.calls": calls["biseries.mul"],
        "biseries.mul.pairs": counts["biseries.mul.pairs"],
        "biseries.mul.self_s": own["biseries.mul"],
        "biseries.inverse.calls": calls["biseries.inverse"],
        "biseries.inverse.self_s": own["biseries.inverse"],
        "biseries.build.calls": calls["biseries.build"],
        "render.calls": layer("render", calls),
        "render.bytes_out": counts["render.bytes_out"],
        "render.self_s": layer("render", own),
        "cli.total_s": total["cli.main"],
        "cli.self_s": own["cli.main"],
    })
    return metrics
