"""Outside-in tracer for the supercrystals layers.

Nothing under ``src/`` is edited.  ``Tracer.install`` wraps every public
function of each layer module, and the hot arithmetic dunders, in a span, and
then rebinds every module attribute of the package that holds one of the
original functions.  That covers calls through an import site
(``sweeps.wt_of``, ``linkage.wt_of``, ``crystal.residues``, ...) as well as
calls inside the defining module, which go through its globals.

Spans live on one stack.  A span's self time is its duration minus the time
its child spans cover; a layer's self time is the sum over its functions.
Call counts are exact and repeat run to run for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = (
    "weights",
    "affine",
    "crystal",
    "tensorrule",
    "linkage",
    "pbw",
    "graph",
    "sweeps",
    "cli",
)

# (layer, class, dunder, counter name)
DUNDERS = (
    ("affine", "AffineWeight", "__add__", "AffineWeight.add"),
    ("linkage", "TruncatedSeries", "__mul__", "TruncatedSeries.mul"),
    ("pbw", "SuperElt", "__mul__", "SuperElt.mul"),
)


def _public_functions(module):
    """Public plain or lru-cached functions defined in ``module`` itself."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        # a wrapped generator function would time only its creation
        if inspect.isgeneratorfunction(obj):
            continue
        yield name, obj


class Tracer:
    """Span stack, per-layer self time, per-function call counts."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        # durations of the sweeps' *_worker calls, one per shard
        self.shard_s = []
        self._stack = [0.0]

    def _wrap(self, layer, name, fn):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        shards = self.shard_s if layer == "sweeps" and name.endswith("_worker") else None
        key = f"{layer}.{name}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[key] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                self_s[layer] += took - stack.pop()
                stack[-1] += took
                if shards is not None:
                    shards.append(took)

        return span

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"supercrystals.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        sites = list(modules.values()) + [importlib.import_module("supercrystals")]
        for module in sites:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        for layer, cls_name, dunder, counter in DUNDERS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, dunder, self._wrap(layer, counter, getattr(cls, dunder)))

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(n for key, n in self.calls.items() if key.startswith(prefix))
