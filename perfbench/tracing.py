"""Outside-in span tracing of the thermaljc modules.

Every public function of a module under ``thermaljc`` (plus its public
classmethods) is replaced, in every module namespace that binds it, by a
wrapper that records one span: name, start, end and parent.  ``from x import
f`` binds ``f`` at import time, so the caller's binding has to be replaced too;
that is why the wrapper is installed on each name the callers look up, not
only on the defining module.  Spans stay in memory in flat arrays and are
reduced to per-layer self times after the pass, where self time is a span's
duration minus the time its child spans cover.  The layer of a span is the
module that defines the function.  No layer has a queue or a second thread,
so there is no wait time to record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

LAYERS = ("core", "dynamics", "observables", "sweep", "oracle", "cli", "svgplot")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return span

    def summary(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls", "self_s"}} over the recorded spans."""
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        covered = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += duration[i]
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0})
        for i in range(count):
            entry = stats[self.names[self.name_id[i]]]
            entry["calls"] += 1
            entry["self_s"] += duration[i] - covered[i]
        return dict(stats)


def install(tracer: Tracer) -> None:
    """Wrap every public function and public classmethod of every layer."""
    modules = [importlib.import_module(f"thermaljc.{layer}") for layer in LAYERS]
    namespaces = [importlib.import_module("thermaljc"), *modules]
    for layer, module in zip(LAYERS, modules):
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                replacement = tracer.wrap(f"{layer}.{attr}", obj)
                for namespace in namespaces:
                    for bound, value in list(vars(namespace).items()):
                        if value is obj:
                            setattr(namespace, bound, replacement)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for meth, raw in list(vars(obj).items()):
                    if isinstance(raw, classmethod) and not meth.startswith("_"):
                        setattr(obj, meth, classmethod(
                            tracer.wrap(f"{layer}.{meth}", raw.__func__)))
