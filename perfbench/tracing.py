"""Span recorder installed around zonocount from outside the package.

``install`` wraps the public functions of every zonocount module, plus a few
methods, and puts each wrapper wherever the original is looked up: module
attributes (the modules import each other by name) and module-level dicts
(the CLI's handler table).  A span is ``[name, start, end, parent, request,
busy]``; ``busy`` is the time the span really ran, which for a generator is
the time spent inside its ``next`` calls rather than the time it was alive.
A span's self time is its busy time minus its children's.  Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
from time import perf_counter

LAYERS = ("primitives", "exact", "special", "asympt", "sampler", "cli")

# Methods that do real work.  Accessors such as CoeffTable.coefficient stay
# unwrapped: the CLI calls them once per cell and spans would swamp them.
METHODS = {"exact": {"CoeffTable": ("class_pass", "shifted_add")},
           "sampler": {"ClassSystem": ("__init__", "index_of")}}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.counters = {"primitives.vectors": 0, "exact.cell_updates": 0,
                         "exact.max_cell_bits": 0, "sampler.classes": 0,
                         "sampler.directions": 0, "sampler.visited": 0}

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                           self.request, 0.0])
        return sid

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            sid = self._open(name)
            self.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                span = self.spans[sid]
                span[1], span[2], span[5] = start, end, end - start
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return functools.wraps(fn)(traced)

    def wrap_generator(self, name: str, fn):
        def traced(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs))

        return functools.wraps(fn)(traced)

    def _iterate(self, name: str, gen):
        sid = self._open(name)
        span = self.spans[sid]
        items = 0
        try:
            while True:
                self.stack.append(sid)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    self.stack.pop()
                    span[1] = span[1] or start
                    span[2] = end
                    span[5] += end - start
                items += 1
                yield item
        finally:
            if name.startswith("primitives."):
                self.counters["primitives.vectors"] += items
            gen.close()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\tbusy\n")
            for sid, (name, start, end, parent, request, busy) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\t{busy:.9f}\n")


# --- counters recorded at the span boundaries ---------------------------------

def _after_class_pass(tr, _result, args, _kwargs):
    """README cost model: a pass of v over bound b touches prod_i (b_i - v_i + 1) cells."""
    table, v = args[0], args[1]
    if all(c <= b for c, b in zip(v, table.bound)):
        tr.counters["exact.cell_updates"] += math.prod(b - c + 1 for c, b in zip(v, table.bound))


def _after_build_table(tr, table, _args, _kwargs):
    cells = itertools.product(*(range(b + 1) for b in table.bound))
    bits = max(table.coefficient(e).bit_length() for e in cells)
    tr.counters["exact.max_cell_bits"] = max(tr.counters["exact.max_cell_bits"], bits)


def _after_class_system_init(tr, _result, args, _kwargs):
    tr.counters["sampler.classes"] += args[0].ncls


def _after_boltzmann_sample(tr, sample, args, kwargs):
    system = kwargs.get("system", args[4] if len(args) > 4 else None)
    if system is not None:
        tr.counters["sampler.directions"] += sample.direction_count
        tr.counters["sampler.visited"] += system.ncls


AFTER = {"exact.build_table": _after_build_table,
         "exact.CoeffTable.class_pass": _after_class_pass,
         "sampler.ClassSystem": _after_class_system_init,
         "sampler.boltzmann_sample": _after_boltzmann_sample}


def install(tracer: Tracer) -> None:
    """Wrap zonocount in place; meant for a fresh process that runs one workload."""
    package = importlib.import_module("zonocount")
    modules = {layer: importlib.import_module(f"zonocount.{layer}") for layer in LAYERS}
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(obj):
                wrapper = tracer.wrap_generator(name, obj)
            else:
                wrapper = tracer.wrap(name, obj, AFTER.get(name))
            wrapped[id(obj)] = (obj, wrapper)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                name = f"{layer}.{cls_name}" + ("" if meth == "__init__" else f".{meth}")
                setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), AFTER.get(name)))

    def swap(obj):
        hit = wrapped.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    for mod in [package, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if swap(obj) is not None:
                setattr(mod, attr, swap(obj))
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if swap(value) is not None:
                        obj[key] = swap(value)


# --- per-layer metrics ---------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict:
    """Aggregate the spans into the per-layer metrics (traced wall time excluded)."""
    spans = tracer.spans
    child_busy = [0.0] * len(spans)
    children_names: dict[int, set] = {}
    for name, _start, _end, parent, _request, span_busy in spans:
        if parent >= 0:
            child_busy[parent] += span_busy
            children_names.setdefault(parent, set()).add(name)
    self_time = [span[5] - child_busy[i] for i, span in enumerate(spans)]

    def busy(*names):
        return sum((s[5] for s in spans if s[0] in names), 0.0)

    def own(pred):
        return sum((t for s, t in zip(spans, self_time) if pred(s[0])), 0.0)

    def calls(pred):
        return sum(1 for s in spans if pred(s[0]))

    layer_self = {layer: own(lambda n, p=layer + ".": n.startswith(p)) for layer in LAYERS}
    total_self = sum(layer_self.values()) or 1.0
    c = tracer.counters
    pass_busy = busy("exact.CoeffTable.class_pass")
    lookups = [i for i, s in enumerate(spans) if s[0] == "sampler.class_system"]
    misses = sum(1 for i in lookups if "sampler.ClassSystem" in children_names.get(i, ()))

    def is_zeta(n):
        return n.startswith("special.zeta_")

    out = {
        "primitives.enum_s": busy("primitives.enumerate_primitive", "primitives.iter_primitive_l1"),
        "primitives.vectors": c["primitives.vectors"],
        "exact.build_table_s": busy("exact.build_table"),
        "exact.class_passes": calls(lambda n: n == "exact.CoeffTable.class_pass"),
        "exact.cell_updates": c["exact.cell_updates"],
        "exact.cell_updates_per_s": c["exact.cell_updates"] / pass_busy if pass_busy else 0.0,
        "exact.moments_s": busy("exact.diameter_numerators", "exact.occurrence_numerators"),
        "exact.shifted_adds": calls(lambda n: n == "exact.CoeffTable.shifted_add"),
        "exact.max_cell_bits": c["exact.max_cell_bits"],
        "sampler.class_build_s": busy("sampler.ClassSystem"),
        "sampler.classes": c["sampler.classes"],
        "sampler.draws": calls(lambda n: n == "sampler.boltzmann_sample"),
        "sampler.draw_s": own(lambda n: n == "sampler.boltzmann_sample"),
        "sampler.bias_s": busy("sampler.truncation_bias_estimate"),
        "sampler.cache_hit_ratio": (len(lookups) - misses) / len(lookups) if lookups else 0.0,
        "sampler.used_class_ratio": (c["sampler.directions"] / c["sampler.visited"]
                                     if c["sampler.visited"] else 0.0),
        "special.zeta_calls": calls(is_zeta),
        "special.zeta_s": own(is_zeta),
        "special.zero_refine_s": busy("special.refine_zero"),
        "asympt.calls": calls(lambda n: n.startswith("asympt.")),
        "asympt.estimate_s": busy("asympt.estimate"),
        "asympt.saddle_form_s": busy("asympt.estimate_saddle_form"),
        "cli.self_s": layer_self["cli"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / total_self
    return out
