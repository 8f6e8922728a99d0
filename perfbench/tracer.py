"""Span tracer that wraps functions of a package from outside it.

A target is a function named by the module that defines it and its
attribute there.  ``from .x import f`` copies the name ``f`` into every
module that imports it, so patching ``x.f`` alone would miss most calls:
``installed`` replaces every binding of every target in every module of
the package, and restores each one on exit, also when the traced code
raised.

Each call records one span (name, parent span, start and end in
nanoseconds, pass number) in flat arrays kept in memory; ``stats``
derives calls, inclusive time and self time from them, and
``write_spans`` writes them out once the run is over.  The tracer is
single-threaded: spans nest through one stack.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

NO_PARENT = -1


@dataclass(frozen=True)
class Target:
    """A function to wrap (named by its defining module and attribute),
    the metric prefix of its spans, and an optional hook called with each
    result and the call's arguments.

    With ``binding`` set, only that module's binding is wrapped, under
    this target's name and hook; otherwise every binding that no such
    target claims.
    """

    module: str
    attr: str
    name: str
    on_result: Callable | None = None
    binding: str | None = None


@dataclass(frozen=True)
class SpanStats:
    calls: int
    incl_ns: int
    self_ns: int


class Tracer:
    def __init__(self, targets, clock=time.perf_counter_ns):
        self.targets = tuple(targets)
        self.clock = clock
        self.names: list = []
        self._name_index: dict = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.pass_no = array("q")
        self.current_pass = 0
        self.errors: Counter = Counter()  # (metric prefix, exception type name) -> count
        self._stack = [NO_PARENT]

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _wrap(self, fn, name: str, on_result):
        idx = self._index(name)
        clock = self.clock
        stack = self._stack
        parent, names, start, end, pass_no = (
            self.parent, self.name, self.start, self.end, self.pass_no)
        errors = self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            parent.append(stack[-1])
            names.append(idx)
            pass_no.append(self.current_pass)
            stack.append(span)
            t0 = clock()
            start.append(t0)
            end.append(t0)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                end[span] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out, args)
            return out

        return traced

    @contextmanager
    def installed(self, package: str):
        """Replace every binding of every target in the modules of
        ``package`` with a tracing wrapper; restore them all on exit."""
        by_fn: dict = {}  # id(function) -> (function, {binding: target})
        for t in self.targets:
            fn = getattr(sys.modules[t.module], t.attr)
            by_fn.setdefault(id(fn), (fn, {}))[1][t.binding] = t
        wrappers: dict = {}
        saved = []
        try:
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = by_fn.get(id(value))
                    if hit is None or hit[0] is not value:
                        continue
                    fn, by_binding = hit
                    t = by_binding.get(mod_name, by_binding.get(None))
                    if t is None:
                        continue
                    if t.name not in wrappers:
                        wrappers[t.name] = self._wrap(fn, t.name, t.on_result)
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[t.name])
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def stats(self) -> dict:
        """Per metric prefix: calls, inclusive and self time in ns.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on the single stack.
        """
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p != NO_PARENT:
                child[p] += dur[i]
        calls = Counter()
        incl = Counter()
        own = Counter()
        for i in range(n):
            key = self.names[self.name[i]]
            calls[key] += 1
            incl[key] += dur[i]
            own[key] += dur[i] - child[i]
        return {k: SpanStats(calls[k], incl[k], own[k]) for k in calls}

    def durations_ns(self, name: str) -> list:
        idx = self._name_index.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self.name)) if self.name[i] == idx]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,pass,name,start_ns,end_ns\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.parent[i]},{self.pass_no[i]},{self.names[self.name[i]]},"
                         f"{self.start[i]},{self.end[i]}\n")
