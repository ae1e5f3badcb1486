"""Span tracer for the traced benchmark run.

The tracer replaces the public functions of the ``wnsf`` modules with
wrappers that record one span per call: its name, the span that was open
when it started (its parent), and its start and end times.  Every module
binding of a wrapped function is replaced, so a function that another module
imported by name (``from .arx import estimate_arx``) is traced there too.
Nothing in the library changes; ``uninstall`` puts the originals back.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Run ``python3 bench/spans.py`` to check that arithmetic
on a synthetic span tree.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        # each span is [name, parent index or None, start, end]
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._undo = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][3] = time.perf_counter()

    def root(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, name, fn, count=None):
        """Wrapper recording a span per call; ``count(args, kwargs, result)``
        returns counter increments derived from a call that returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.counters.update(count(args, kwargs, result))
            return result

        return wrapper

    def install(self, layers, all_modules, counts, methods=()):
        """Wrap every public function defined in each layer module.

        ``layers`` maps a layer name to its module; ``all_modules`` are the
        namespaces whose bindings are redirected to the wrappers; ``counts``
        maps a span name to its counter function; ``methods`` lists
        ``(span name, class, attribute)`` classmethods to wrap as well.
        """
        for layer, module in layers.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, obj, counts.get(name))
                for ns in all_modules:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._undo.append((ns, key, val))
                            setattr(ns, key, wrapper)
        for name, cls, attr in methods:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, classmethod(
                self.wrap(name, original.__func__, counts.get(name))))

    def uninstall(self):
        for ns, key, val in reversed(self._undo):
            setattr(ns, key, val)
        self._undo.clear()

    def reset(self):
        self.spans = []
        self.counters = Counter()


def covered_length(intervals, start, end):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children."""
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [end - start - covered_length(children[i], start, end)
            for i, (name, parent, start, end) in enumerate(spans)]


def roots(spans):
    """Index of the outermost ancestor of each span (parents precede
    children in the list)."""
    out = []
    for i, (name, parent, start, end) in enumerate(spans):
        out.append(i if parent is None else out[parent])
    return out


def summarize(spans, root_name=None):
    """Per span name: calls, summed self time and summed inclusive time,
    optionally restricted to spans under roots called ``root_name``."""
    selfs = self_times(spans)
    top = roots(spans)
    calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
    for i, (name, parent, start, end) in enumerate(spans):
        if root_name is not None and spans[top[i]][0] != root_name:
            continue
        calls[name] += 1
        self_s[name] += selfs[i]
        total_s[name] += end - start
    return calls, self_s, total_s


def _expect(ok, what):
    if not ok:
        raise AssertionError(f"span self-test failed: {what}")


def selftest():
    """Check the self-time arithmetic on a synthetic span tree."""
    spans = [
        ["op", None, 0.0, 10.0],
        ["a", 0, 1.0, 3.0],     # covers [1, 3]
        ["b", 0, 2.0, 5.0],     # overlaps a: union so far [1, 5]
        ["c", 2, 2.5, 4.0],     # grandchild: reduces b only
        ["d", 0, 9.0, 12.0],    # runs past the parent: clipped to [9, 10]
        ["setup", None, 20.0, 21.0],
        ["a", 5, 20.0, 20.25],
    ]
    expected = [10.0 - 5.0, 2.0, 3.0 - 1.5, 1.5, 3.0, 0.75, 0.25]
    got = self_times(spans)
    _expect(all(abs(g - e) < 1e-12 for g, e in zip(got, expected)),
            f"self times {got}")
    _expect(roots(spans) == [0, 0, 0, 0, 0, 5, 5], "roots")
    calls, self_s, total_s = summarize(spans, root_name="op")
    _expect(calls == {"op": 1, "a": 1, "b": 1, "c": 1, "d": 1},
            f"calls under op {dict(calls)}")
    _expect(abs(self_s["a"] - 2.0) < 1e-12, "self time of a under op")
    _expect(abs(total_s["b"] - 3.0) < 1e-12, "inclusive time of b")
    calls, self_s, total_s = summarize(spans)
    _expect(calls["a"] == 2 and abs(self_s["a"] - 2.25) < 1e-12,
            "totals of a")
    _expect(covered_length([], 0.0, 1.0) == 0.0, "empty cover")


if __name__ == "__main__":
    selftest()
    print("span self-time self-test passed")
    sys.exit(0)
