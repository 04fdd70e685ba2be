"""Spans and counts recorded around the library's public functions.

The library itself is not instrumented.  ``installed`` replaces every public
function of each layer module with a timing wrapper, in every gdistill module
namespace that binds it (so ``gdistill.distill.is_npt`` is traced as well as
``gdistill.states.is_npt``), together with the numpy kernels the layers call
(grouped as ``linalg``), ``CorrelationMatrix.__post_init__`` and the fuzz
invariant registry.  Everything is restored on exit.

A span is [name id, start, end, parent span index, op id, ok]; spans live in
memory until the caller writes them out.  No public function of the library
calls itself, so a function's inclusive time is the plain sum of its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("symplectic", "states", "two_mode", "distill", "random_states",
          "statefile", "fuzz")
LINALG = ("inv", "det", "eigvalsh", "eigh", "svd", "solve")
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self.op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self):
        self.spans.clear()
        self.counters.clear()

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1, self.op_id, True]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = False
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) inside the root span of one benchmark op."""
        self.op_id = op_id
        return self.wrap(OP_SPAN, fn)(*args)


def _dim3(args) -> int:
    shape = np.shape(args[0])
    return math.prod(shape[:-2]) * shape[-1] ** 3


@contextmanager
def installed(tracer: Tracer):
    """Route the library's public functions through ``tracer`` while active."""
    package = importlib.import_module("gdistill")
    modules = {layer: importlib.import_module(f"gdistill.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    counters = tracer.counters

    def count_retries(witness):
        counters["distill.witness_retries"] += witness.retries

    def count_dim3(args):
        counters["linalg.dim3"] += _dim3(args)

    hooks = {"distill.find_npt_witness": dict(on_result=count_retries)}
    saved = []

    def patch(obj, attr, value):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrappers[obj] = tracer.wrap(name, obj, **hooks.get(name, {}))
    try:
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patch(ns, attr, wrappers[obj])
        fuzz = modules["fuzz"]
        patch(fuzz, "REGISTRY", tuple((n, wrappers[f]) for n, f in fuzz.REGISTRY))
        for kernel in LINALG:
            patch(np.linalg, kernel, tracer.wrap(
                f"linalg.{kernel}", getattr(np.linalg, kernel), on_call=count_dim3))
        sym = modules["symplectic"]
        patch(sym, "expm", tracer.wrap("linalg.expm", sym.expm))
        cm = modules["states"].CorrelationMatrix
        patch(cm, "__post_init__", tracer.wrap("states.CorrelationMatrix", cm.__post_init__))
        yield tracer
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_table(spans, names) -> dict[str, dict]:
    """Per span name: calls, failed calls, inclusive and self seconds, and
    the seconds its layer was entered from outside the layer ("entered")."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    table: dict[str, dict] = {}
    for i, s in enumerate(spans):
        name = names[s[0]]
        row = table.setdefault(name, dict(calls=0, failed=0, incl=0.0, self=0.0,
                                          entered=0.0))
        dur = s[2] - s[1]
        row["calls"] += 1
        row["failed"] += not s[5]
        row["incl"] += dur
        row["self"] += dur - child[i]
        parent = names[spans[s[3]][0]] if s[3] >= 0 else ""
        if layer_of(parent) != layer_of(name):
            row["entered"] += dur
    return table
