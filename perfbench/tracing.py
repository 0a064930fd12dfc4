"""Span recorder for the traced run of the benchmark.

While installed, every public function defined in one of the pipeline's
modules is replaced, in every module of the package that holds it by name,
by a wrapper that records one span: its name (``<layer>.<function>``), start,
end, the index of the span that was open when it was called, and an optional
annotation computed from its arguments. Uninstalling puts the original
functions back, so the untraced passes run the program unchanged.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "dataio", "hht", "solvers", "elm", "evaluation")

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """Records spans of calls into ``package``'s layer modules.

    ``annotators`` maps a span name to a function that takes the call's
    arguments and returns a small value kept in the span. Annotators run
    before the span's start time is taken, so their cost falls to the
    caller's span, never to the function being measured.
    """

    def __init__(self, package, annotators=None):
        self.package = package
        self.annotators = dict(annotators or {})
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        annotate = self.annotators.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = annotate(*args, **kwargs) if annotate is not None else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, info]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return traced

    def install(self):
        """Patch every layer function at each module that refers to it by name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        prefix = self.package + "."
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == self.package or module_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()


def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child for span, child in zip(spans, children)]


def layer_of(span):
    return span[NAME].split(".", 1)[0]
