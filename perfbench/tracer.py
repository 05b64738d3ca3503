"""Span tracer that times calls into the matchgraph modules from outside.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces every public
function of each layer module with a timing wrapper, in every package module
that bound it: modules import each other's functions by name
(``from .matching import edge_subset_has_r_matching``), so a wrapper is
installed under each of those bindings and the span name records which
module made the call.  Public classes get the same treatment for
``__post_init__``, public methods, classmethods and ``cached_property``
bodies; plain ``@property`` accessors are left alone because they are
trivial and hot.

One span per call holds: name, start, end, parent span and instance id.
Spans live in ``array`` columns while the workload runs and are written
out by ``write`` afterwards.  A layer's self time is the total duration of
its spans minus the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "matchgraph"

# Package modules whose calls are timed, in pipeline order.  ``decompositions``
# is left out on purpose: no CLI path reaches it while the 30-edge
# alternation cap stands.
LAYERS = (
    "smallgraphs",
    "graphs",
    "matching",
    "turan",
    "alternation",
    "orderings",
    "hypergraphs",
    "coloring",
    "cli",
)


class Tracer:
    """Records one span per wrapped call; install/uninstall are reversible."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.instance_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.instance = -1
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        layers = {}
        for layer in LAYERS:
            try:
                layers[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue  # a removed module reads as zero calls
        callers = {
            name.rpartition(".")[2]: module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        for layer, module in layers.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    for caller_name, caller in callers.items():
                        for bound, value in list(vars(caller).items()):
                            if value is obj:
                                span = f"{layer}.{attr}@{caller_name}"
                                self._patch(caller, bound, self._wrap(obj, span, f"{layer}.{attr}"))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _patch(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            label = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, functools.cached_property):
                self._patch(member, "func", self._wrap(member.func, label, label))
            elif isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(member.__func__, label, label)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, label, label))

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, span_name: str, function_name: str):
        nid = self._name_id(span_name)
        observe = _OBSERVERS.get(function_name)
        materialise = inspect.isgeneratorfunction(fn)
        counters = self.counters
        stack = self._stack
        name_col, parent_col, instance_col = self.name_col, self.parent_col, self.instance_col
        start_col, end_col = self.start_col, self.end_col
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_col)
            name_col.append(nid)
            parent_col.append(stack[-1])
            instance_col.append(tracer.instance)
            end_col.append(0.0)
            stack.append(idx)
            start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
                if materialise:
                    # Generators do their work while being consumed.
                    result = iter(list(result))
            finally:
                end_col[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, result)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        count = len(self.name_col)
        child = [0.0] * count
        start, end, parent = self.start_col, self.end_col, self.parent_col
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, list] = {name: [0, 0.0] for name in self.names}
        names = self.names
        for i in range(count):
            entry = out[names[self.name_col[i]]]
            entry[0] += 1
            entry[1] += end[i] - start[i] - child[i]
        return {name: (c, s) for name, (c, s) in out.items()}

    def write(self, path: Path) -> None:
        """Spans as ``<path>.bin`` (raw columns) plus a JSON index ``<path>.json``."""
        columns = (
            ("name", self.name_col),
            ("parent", self.parent_col),
            ("instance", self.instance_col),
            ("start", self.start_col),
            ("end", self.end_col),
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        index = {
            "spans": len(self.name_col),
            "names": self.names,
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
            "layout": "columns stored one after another, native byte order",
            "clock": "time.perf_counter seconds",
        }
        with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump(index, fh, indent=1)


def _add(counters: dict, key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


def _observe_kneser(counters, kg) -> None:
    _add(counters, "kg_vertices", kg.graph.n)
    _add(counters, "kg_edges", kg.graph.m)


def _observe_chromatic(counters, cert) -> None:
    _add(counters, "chromatic_calls", 1)
    _add(counters, "search_nodes", cert.nodes)
    _add(counters, "zero_search", cert.nodes == 0)
    _add(counters, "budget_hits", not cert.exact)


def _observe_turan(counters, cert) -> None:
    _add(counters, "turan_branch_bound", cert.method == "branch-bound")


# Counts read off return values at the boundary where the work happens.
_OBSERVERS = {
    "hypergraphs.general_kneser": _observe_kneser,
    "coloring.chromatic_number": _observe_chromatic,
    "turan.turan_matchings": _observe_turan,
}
