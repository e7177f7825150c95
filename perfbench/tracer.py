"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions and methods of the `pointless`
modules from the outside, on the defining module and on every `pointless`
module that imported them by name (``search.zeta_report`` is the same
function as ``zeta.zeta_report``).  Nothing under ``src/`` knows it is
traced.

Three kinds of wrapper:

* span: records ``(span id, parent id, name id, start, end, run id)``;
* counter: counts calls only.  Used for value-level operations
  (``FieldElement`` and ``Series`` arithmetic, ``Poly`` arithmetic and
  evaluation, index conversion), which run millions of times per workload:
  a span each would cost more memory and time than the work it measures.
  Their time stays in the calling span's self time;
* timed counter: counts calls and adds up their inclusive time without a
  span.  Used for ``FiniteField.dlog_tables``, which every square test
  calls and which does real work only the first time per field.

Spans stay in memory until the run ends; ``dump`` writes them out once.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("field", "curves", "search", "zeta", "series", "elliptic",
          "density", "harness", "cli")

# classes whose instances are values: their arithmetic is counted, and
# their constructors are not wrapped at all
VALUE_CLASSES = {"FieldElement", "QElement", "Series", "Poly",
                 "RationalFunction"}
# every method of these value classes is counted rather than spanned
COUNTED_CLASSES = {"FieldElement", "QElement", "Series"}
ARITH_DUNDERS = {"__add__", "__sub__", "__mul__", "__truediv__", "__neg__",
                 "__pow__", "__divmod__", "__floordiv__", "__mod__"}
COUNTED_NAMES = {
    "field.Poly.eval", "field.Poly.is_zero", "field.Poly.from_ints",
    "field.Poly.constant", "field.Poly.x", "field.Poly.monic",
    "field.Poly.shift", "field.Poly.derivative", "field.RationalFunction.eval",
    "field.RationalFunction.has_pole_at",
    "field.FiniteField.element", "field.FiniteField.from_index",
    "field.FiniteField.index",
    "curves.s_value", "curves.fast_trace",
    "elliptic.fn_value",
    "density.SplitMix64.next_u64", "density.SplitMix64.below",
}
TIMED_NAMES = {"field.FiniteField.dlog_tables"}


def _hook_points(tracer, args, kwargs, result):
    curve = args[0]
    i = args[1] if len(args) > 1 else kwargs.get("i", 1)
    tracer.values[f"curves.points.{type(curve).__name__}"] += \
        curve.base.q ** i


def _hook_search(tracer, name, result):
    engine = name.rsplit(".", 1)[1][len("search_"):]
    tracer.values[f"search.candidates.{engine}"] += result.candidates
    tracer.values[f"search.survivors.{engine}"] += len(result.survivors)
    for stage, kills in result.kill_counts.items():
        tracer.values[f"search.kills.{stage}"] += kills
    if result.kill_counts:
        tracer.values["search.kill_base"] += result.candidates


def _hook_montecarlo(tracer, args, kwargs, result):
    tracer.values["density.samples"] += result.samples
    tracer.values["density.pointless"] += result.pointless


def _hook_for(name):
    """Return-value hooks that turn results into per-layer counts."""
    layer, _, rest = name.partition(".")
    if layer == "curves" and rest.endswith(".count"):
        return _hook_points
    if layer == "search" and rest.startswith("search_"):
        return lambda tracer, args, kwargs, result: _hook_search(
            tracer, name, result)
    if name == "density.montecarlo_pointless_rate":
        return _hook_montecarlo
    return None


class Tracer:
    """Wraps the `pointless` modules and keeps spans and counts in memory."""

    def __init__(self):
        self.spans = []            # (sid, parent, name id, start, end, run)
        self.names = []            # name id -> "layer.Qualified.name"
        self.calls = {}            # counted name -> [calls]
        self.timed = {}            # timed name -> [calls, seconds]
        self.values = defaultdict(int)   # counts taken from return values
        self.runs = ["setup"]      # run id -> label of the operation
        self.run = 0
        self._stack = []
        self._next = 0
        self._undo = []

    # -- run ids ------------------------------------------------------

    def begin_run(self, label):
        """Spans recorded from now on belong to a new operation."""
        self.runs.append(label)
        self.run = len(self.runs) - 1

    # -- wrappers -----------------------------------------------------

    def _span(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        hook = _hook_for(name)
        spans, stack, clock, tracer = self.spans, self._stack, \
            time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, nid, start, end, tracer.run))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return traced

    def _counter(self, fn, name):
        cell = self.calls.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _timed(self, fn, name):
        cell = self.timed.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += clock() - start
        return timed

    def _wrap(self, fn, name):
        if name in TIMED_NAMES:
            return self._timed(fn, name)
        if name in COUNTED_NAMES or inspect.isgeneratorfunction(fn):
            return self._counter(fn, name)
        return self._span(fn, name)

    def _wrap_class(self, layer, cls):
        value = cls.__name__ in VALUE_CLASSES
        counted = cls.__name__ in COUNTED_CLASSES
        for attr, raw in list(vars(cls).items()):
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) \
                else raw
            if not inspect.isfunction(fn):
                continue          # properties and data stay as they are
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("__"):
                if value and attr not in ARITH_DUNDERS:
                    continue
                if not value and attr != "__init__":
                    continue
            elif attr.startswith("_"):
                continue
            if counted or (value and attr in ARITH_DUNDERS):
                wrapper = self._counter(fn, name)
            else:
                wrapper = self._wrap(fn, name)
            if raw is not fn:
                wrapper = type(raw)(wrapper)
            setattr(cls, attr, wrapper)
            self._undo.append((cls, attr, raw))

    def install(self):
        """Wrap every public callable of the layer modules, then rebind
        each name other `pointless` modules imported to its wrapper."""
        modules = {layer: importlib.import_module(f"pointless.{layer}")
                   for layer in LAYERS}
        # id(original) -> wrapper; the modules keep the originals alive
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for name, mod in list(sys.modules.items()):
            if mod is None or name.split(".")[0] != "pointless":
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, obj))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- output -------------------------------------------------------

    def data(self):
        """Spans and counts as plain data, the form metrics.py reads."""
        return {"runs": self.runs, "names": self.names, "spans": self.spans,
                "calls": {k: v[0] for k, v in self.calls.items()},
                "timed": self.timed, "values": dict(self.values)}

    def dump(self, path, data):
        """Write every span and count once, at the end of the run."""
        with open(path, "w") as fh:
            json.dump(data, fh)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover.  Returns {span id: seconds}."""
    children = defaultdict(list)
    for sid, parent, _nid, start, end, _run in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _parent, _nid, start, end, _run in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def outermost(spans, names, wanted):
    """Spans whose name satisfies `wanted` and that have no ancestor whose
    name satisfies it: summing their durations counts nested or recursive
    calls once."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        if not wanted(names[s[2]]):
            continue
        parent = s[1]
        while parent != -1:
            p = by_id[parent]
            if wanted(names[p[2]]):
                break
            parent = p[1]
        else:
            out.append(s)
    return out
