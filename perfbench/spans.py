"""Spans and counters recorded from outside foldlie, for the traced run.

``instrument`` wraps functions where their callers look them up: methods on
their class, module functions in every foldlie module namespace that holds
them (``weyl.kernel.mat_mul``, ``liealg.build_root_system``, ...).  Each span
records its name, start, end and parent in compact arrays; a span's self
time is its duration minus the durations of its children.  Counters are
plain integers.  Everything stays in memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

# Layers in call order, named after the foldlie modules.
LAYERS = ("kernel", "exactalg", "rootsys", "weyl", "invariants", "liealg", "slodowy",
          "unfolding", "cameral", "hitchin", "verify", "cli")
ROOT_SPAN = "bench.pass"

# Methods too small to be worth a span; their time stays with the caller.
_SKIP_METHODS = {"entry", "row", "col", "is_square", "is_zero", "is_constant",
                 "coefficient", "to_rows", "depends_on", "total_degree", "constant_value"}
_DUNDER_NAMES = {"__init__": "new", "__mul__": "mul", "__rmul__": "rmul",
                 "__add__": "add", "__sub__": "sub", "__neg__": "neg", "__pow__": "pow",
                 "__truediv__": "truediv"}
_RENAMED = {"kernel.charpoly_int": "kernel.charpoly", "kernel.charpoly_generic":
            "kernel.charpoly", "cli._emit": "cli.emit", "cli.build_parser": "cli.parse"}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._ids: dict = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict = {}
        self._stack = [-1]

    def _name_id(self, name) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, before=None):
        """``fn`` recorded as span ``name``; ``before(tracer, args, kwargs)``
        runs first and may bump counters."""
        nid = self._name_id(name)
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[i] = clock()

        return spanned

    def analyse(self) -> dict:
        return analyse(self.names, self.name_ids, self.parents, self.starts, self.ends)


def analyse(names, name_ids, parents, starts, ends) -> dict:
    """Times of a span list, where ``parents[i]`` is the index of span i's
    parent (always lower than i) or -1.  The layer of a span is the first
    part of its name.

    * "spans": {name: {"calls", "total_s", "self_s"}};
    * "layers": {layer: {"self_s", "inclusive_s"}}, where inclusive time sums
      the spans of the layer not nested in another span of the same layer;
    * "requests": (duration, self_s by layer, inclusive_s by layer) for each
      span directly under the first root span (one request or API call).
    """
    layer_ids: dict = {}
    name_layer = [layer_ids.setdefault(n.split(".", 1)[0], len(layer_ids)) for n in names]
    layer_names = list(layer_ids)
    n = len(starts)
    durations = [ends[i] - starts[i] for i in range(n)]
    self_s = list(durations)
    masks = [0] * n  # bit set of the layers on the path above each span
    top = [-1] * n  # request each span belongs to
    for i, p in enumerate(parents):
        if p >= 0:
            self_s[p] -= durations[i]
            masks[i] = masks[p] | 1 << name_layer[name_ids[p]]
            top[i] = i if p == 0 else top[p]
    spans: dict = {}
    layers = {name: {"self_s": 0.0, "inclusive_s": 0.0} for name in layer_names}
    requests: dict = {}
    for i in range(n):
        name = names[name_ids[i]]
        row = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += durations[i]
        row["self_s"] += self_s[i]
        lid = name_layer[name_ids[i]]
        layer = layer_names[lid]
        outermost = not masks[i] >> lid & 1
        layers[layer]["self_s"] += self_s[i]
        if outermost:
            layers[layer]["inclusive_s"] += durations[i]
        if top[i] >= 0:
            req = requests.setdefault(top[i], (durations[top[i]], {}, {}))
            req[1][layer] = req[1].get(layer, 0.0) + self_s[i]
            if outermost:
                req[2][layer] = req[2].get(layer, 0.0) + durations[i]
    return {"spans": spans, "layers": layers, "requests": list(requests.values())}


# -- wrapping foldlie ----------------------------------------------------------------


def _mat_mul_madds(tracer, args, kwargs):
    n, k, m = args[2:5]
    tracer.count("kernel.mat_mul.madds", n * k * m)


def _weyl_elements(tracer, args, kwargs):
    flat = kwargs["flat_elements"] if "flat_elements" in kwargs else args[3]
    tracer.count("weyl.elements_enumerated", len(flat))


def _weyl_multiply_hits(tracer, args, kwargs):
    group, i, j = args[:3]
    if (i, j) in group._mult_cache:
        tracer.count("weyl.multiply.hits")


_BEFORE = {"kernel.mat_mul": _mat_mul_madds, "weyl.WeylGroup.new": _weyl_elements,
           "weyl.WeylGroup.multiply": _weyl_multiply_hits}


def _count_fractions(tracer):
    """Count Fraction constructions (the scalar layer) without a span each."""
    from fractions import Fraction

    original = Fraction.__new__
    counters = tracer.counters

    def counted_new(cls, *args, **kwargs):
        counters["scalar.fraction_new"] = counters.get("scalar.fraction_new", 0) + 1
        return original(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted_new)


def _wrap_parser(tracer, build_parser):
    """cli.parse covers building the parser and parsing argv."""
    def build():
        parser = build_parser()
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser

    return tracer.wrap("cli.parse", build)


def instrument(tracer: Tracer):
    """Wrap the public functions and methods of every foldlie layer."""
    modules = {layer: importlib.import_module(f"foldlie.{layer}") for layer in LAYERS}
    replacements = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj):
                continue
            home = obj.__module__.rsplit(".", 1)[-1]
            if layer == "kernel":
                if home != "_kernel_py":
                    continue
            elif home != layer or (attr.startswith("_") and attr != "_emit"):
                continue
            if obj in replacements:
                continue
            name = f"{layer}.{attr}"
            name = _RENAMED.get(name, name)
            if name == "cli.parse":
                replacements[obj] = _wrap_parser(tracer, obj)
            else:
                replacements[obj] = tracer.wrap(name, obj, _BEFORE.get(name))
        for cls in list(vars(mod).values()):
            if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                _wrap_methods(tracer, layer, cls)
    # Rebind in every namespace that looks the function up, including names
    # imported from another module.
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(mod, attr, replacements[obj])
            elif isinstance(obj, dict):  # tables of functions, e.g. verify.SUITES
                for key, value in obj.items():
                    if inspect.isfunction(value) and value in replacements:
                        obj[key] = replacements[value]
    _count_fractions(tracer)


def _wrap_methods(tracer, layer, cls):
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("__"):
            if attr not in _DUNDER_NAMES:
                continue
            label = _DUNDER_NAMES[attr]
        elif attr.startswith("_") or attr in _SKIP_METHODS:
            continue
        else:
            label = attr
        kind = type(raw)
        fn = raw.__func__ if kind in (staticmethod, classmethod) else raw
        if not inspect.isfunction(fn):
            continue
        name = f"{layer}.{cls.__name__}.{label}"
        wrapped = tracer.wrap(name, fn, _BEFORE.get(name))
        setattr(cls, attr, kind(wrapped) if kind in (staticmethod, classmethod) else wrapped)


# -- per-layer metrics --------------------------------------------------------------

# (metric prefix, span, statistics); a metric is named "<prefix>.<statistic>".
# Statistic "s" is the span's total time, the others are read as named.
_SPAN_METRICS = [
    ("kernel.mat_mul", "kernel.mat_mul", ("calls", "self_s")),
    ("kernel.rref", "kernel.rref", ("calls", "self_s")),
    ("kernel.charpoly", "kernel.charpoly", ("calls", "self_s")),
    ("kernel.mat_vec", "kernel.mat_vec", ("calls",)),
    ("exactalg.RatMatrix.new", "exactalg.RatMatrix.new", ("calls", "self_s")),
    ("exactalg.RatMatrix.mul", "exactalg.RatMatrix.mul", ("calls", "self_s")),
    ("exactalg.MultiPoly.new", "exactalg.MultiPoly.new", ("calls", "self_s")),
    ("exactalg.MultiPoly.mul", "exactalg.MultiPoly.mul", ("calls", "self_s")),
    ("exactalg.MultiPoly.add", "exactalg.MultiPoly.add", ("calls", "self_s")),
    ("exactalg.MultiPoly.substitute", "exactalg.MultiPoly.substitute", ("calls", "self_s")),
    ("exactalg.nullspace", "exactalg.nullspace", ("self_s",)),
    ("rootsys.build_root_system", "rootsys.build_root_system", ("calls", "self_s")),
    ("rootsys.RootSystem.new", "rootsys.RootSystem.new", ("calls", "self_s")),
    ("rootsys.folding_datum", "rootsys.folding_datum", ("calls",)),
    ("weyl.generate", "weyl.WeylGroup.generate", ("calls", "self_s")),
    ("weyl.folding_weyl_data", "weyl.folding_weyl_data", ("calls", "self_s")),
    ("weyl.multiply", "weyl.WeylGroup.multiply", ("calls",)),
    ("weyl.quotient_invariants_iso_check", "weyl.quotient_invariants_iso_check",
     ("self_s",)),
    ("invariants.reynolds_invariant_basis", "invariants.reynolds_invariant_basis",
     ("self_s",)),
    ("invariants.molien_dimensions", "invariants.molien_dimensions", ("self_s",)),
    ("liealg.build_chevalley", "liealg.build_chevalley", ("calls", "self_s")),
    ("liealg.fixed_subalgebra", "liealg.fixed_subalgebra", ("self_s",)),
    ("liealg.adjoint_quotient", "liealg.adjoint_quotient", ("calls", "self_s")),
    ("liealg.base_iso_check", "liealg.base_iso_check", ("self_s",)),
    ("slodowy.build_subregular_slice", "slodowy.build_subregular_slice", ("self_s",)),
    ("slodowy.slice_quotient", "slodowy.slice_quotient", ("self_s",)),
    ("slodowy.phi_psi_square_check", "slodowy.phi_psi_square_check", ("self_s",)),
    ("unfolding.semiuniversal_family", "unfolding.semiuniversal_family",
     ("calls", "self_s")),
    ("cameral.induce_cover", "cameral.induce_cover", ("self_s",)),
    ("cameral.hitchin_fiber_rank", "cameral.hitchin_fiber_rank", ("self_s",)),
    ("hitchin.folded_base_match", "hitchin.folded_base_match", ("self_s",)),
    *[(f"verify.{suite}", f"verify.suite_{suite}", ("s",))
      for suite in ("rootsys", "weyl", "liealg", "slodowy", "appendix", "cameral", "dims")],
    ("cli.parse", "cli.parse", ("self_s",)),
    ("cli.emit", "cli.emit", ("self_s",)),
]
_COUNTER_METRICS = {"scalar.fraction_new.calls": "scalar.fraction_new",
                    "kernel.mat_mul.madds": "kernel.mat_mul.madds",
                    "weyl.elements_enumerated": "weyl.elements_enumerated"}


def layer_metric_units() -> dict:
    """Every per-layer metric and its unit, in the order of BENCHMARK.json."""
    units = {name: "count" for name in _COUNTER_METRICS}
    for prefix, _, stats in _SPAN_METRICS:
        units.update({f"{prefix}.{stat}": "count" if stat == "calls" else "s"
                      for stat in stats})
    units["weyl.multiply.hit_ratio"] = "ratio"
    for layer in ("bench",) + LAYERS:
        units[f"layer.{layer}.self_share"] = "ratio"
    for layer in LAYERS:
        units[f"layer.{layer}.inclusive_share"] = "ratio"
    units.update({"trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
                  "trace.spans": "count"})
    return units


def layer_metrics(analysis: dict, counters: dict) -> dict:
    """Per-layer values of one traced pass, except the tracing overhead, which
    needs the untraced pass too."""
    spans, layers = analysis["spans"], analysis["layers"]
    out = {metric: counters.get(source, 0) for metric, source in _COUNTER_METRICS.items()}
    for prefix, source, stats in _SPAN_METRICS:
        row = spans.get(source, {})
        for stat in stats:
            out[f"{prefix}.{stat}"] = row.get("total_s" if stat == "s" else stat, 0)
    calls = spans.get("weyl.WeylGroup.multiply", {}).get("calls", 0)
    out["weyl.multiply.hit_ratio"] = \
        counters.get("weyl.multiply.hits", 0) / calls if calls else 0.0
    total = spans[ROOT_SPAN]["total_s"]
    for layer in ("bench",) + LAYERS:
        out[f"layer.{layer}.self_share"] = layers.get(layer, {}).get("self_s", 0.0) / total
    for layer in LAYERS:
        out[f"layer.{layer}.inclusive_share"] = \
            layers.get(layer, {}).get("inclusive_s", 0.0) / total
    out["trace.spans"] = sum(row["calls"] for row in spans.values())
    return out
