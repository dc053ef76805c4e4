"""Spans around calls into ecomforge's public functions, from outside the
program.

``Tracer.wrap`` records one span per call: id, name, start, end, parent id
and whether the call returned. Spans stay in memory until the pass ends.
A span's self time is its duration minus the part of it that its child
spans cover, so concurrent children are not subtracted twice.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (sid, name, start, end, parent, ok)
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", None)

    def wrap(self, name: str, fn, count=None, opaque: bool = False):
        """Return ``fn`` recording a span named ``name`` per call.

        ``count(args, kwargs, result)`` may return counters to add. Calls made
        inside an ``opaque`` span, on its thread, record nothing: it stands
        for a system outside the program.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getattr(self._local, "opaque", False):
                return fn(*args, **kwargs)
            parent = self.current()
            sid = next(self._ids)
            stack = self._stack()
            stack.append(sid)
            ok = False
            self._local.opaque = opaque
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                self._local.opaque = False
                stack.pop()
                self.spans.append((sid, name, start, end, parent, ok))
            if count is not None:
                with self._lock:
                    self.counts.update(count(args, kwargs, result))
            return result

        return traced

    def executor(self, base):
        """A subclass of executor class ``base`` whose tasks run as children
        of the span that submitted them."""
        tracer = self

        def adopt(parent, fn, *args, **kwargs):
            tracer._local.base = parent
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._local.base = None

        class Executor(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(adopt, tracer.current(), fn, *args, **kwargs)

        return Executor


def wrap_everywhere(tracer: Tracer, module, attr: str, name: str, count=None):
    """Wrap ``module.attr`` in its defining module and in every loaded
    ``ecomforge`` module that imported the same object."""
    original = getattr(module, attr)
    wrapped = tracer.wrap(name, original, count)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ecomforge" or mod_name.startswith("ecomforge.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
    return wrapped


def wrap_method(tracer: Tracer, cls, attr: str, name: str, count=None, opaque=False):
    setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), count, opaque))


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, ok calls, inclusive seconds and self seconds."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _ok in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "ok": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for sid, name, start, end, _parent, ok in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end]
        row = out[name]
        row["calls"] += 1
        row["ok"] += int(ok)
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered(kids)
    return dict(out)


def intervals(spans: list[tuple], names: set[str]) -> list[tuple[float, float]]:
    return [(start, end) for _sid, name, start, end, _p, _ok in spans if name in names]
