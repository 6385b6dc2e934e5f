"""Span tracer that wraps the public functions of a package from outside it.

Every module-level public function of the traced package is replaced, at every
reference the package holds to it, by a wrapper that records one span per
call: (name, start, end, parent).  References include the copies made by
``from .x import y`` and functions stored as values of module-level dicts
(such as a suite table).  Leaving the ``with`` block puts every original back.

Spans live in flat arrays until :meth:`Tracer.take` aggregates them; self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
import types
from array import array
from functools import wraps

import numpy as np


def _is_public_function(obj, package: str) -> bool:
    return (
        isinstance(obj, types.FunctionType)
        and (obj.__module__ == package or obj.__module__.startswith(package + "."))
        and not obj.__name__.startswith("_")
    )


def span_name(fn) -> str:
    """``<module>.<function>`` with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class LayerStats:
    """Per-name aggregates of one batch of spans."""

    def __init__(self, names, calls, total_s, self_s, spans):
        self.names = names          # list[str], index = name id
        self.calls = calls          # np.ndarray[int]
        self.total_s = total_s      # np.ndarray[float]
        self.self_s = self_s        # np.ndarray[float]
        self.spans = spans          # name -> (durations, tags), for hooked names
        self._index = {n: i for i, n in enumerate(names)}

    def get(self, name: str, field: str = "calls"):
        """``calls``, ``total_s`` or ``self_s`` of one name; 0 if never called."""
        i = self._index.get(name)
        return 0 if i is None else getattr(self, field)[i]


class Tracer:
    """Wraps ``package``'s public functions while active.

    ``hooks`` maps a span name to a function of the wrapped call's return
    value; its result is stored as the span's numeric tag (``nan`` when the
    call raised), so callers can split spans by outcome.
    """

    def __init__(self, package: str = "curvcone", hooks=None):
        self.package = package
        self.hooks = dict(hooks or {})
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._saved: list[tuple[dict, str, object]] = []
        self._reset_buffers()

    # -- span buffers -------------------------------------------------------

    def _reset_buffers(self):
        self._name = array("l")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._tag = array("d")
        self._stack = [-1]

    def unwind(self) -> None:
        """Close spans left open by an exception raised from a signal handler."""
        now = time.perf_counter()
        for idx in self._stack[1:]:
            if self._end[idx] == 0.0:
                self._end[idx] = now
        del self._stack[1:]

    def take(self) -> LayerStats:
        """Aggregate and clear the spans recorded so far."""
        self.unwind()
        name = np.asarray(self._name, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        start = np.asarray(self._start, dtype=float)
        end = np.maximum(np.asarray(self._end, dtype=float), start)
        tag = np.asarray(self._tag, dtype=float)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = np.maximum(dur - child, 0.0)
        n = len(self._names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        self_s = np.bincount(name, weights=own, minlength=n)
        spans = {}
        for hooked in self.hooks:
            i = self._ids.get(hooked)
            if i is not None:
                sel = name == i
                spans[hooked] = (dur[sel].copy(), tag[sel].copy())
        stats = LayerStats(list(self._names), calls, total, self_s, spans)
        self._reset_buffers()
        return stats

    # -- patching -----------------------------------------------------------

    def _wrapper(self, fn):
        key = span_name(fn)
        nid = self._ids.setdefault(key, len(self._names))
        if nid == len(self._names):
            self._names.append(key)
        hook = self.hooks.get(key)
        clock = time.perf_counter
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer._name)
            tracer._name.append(nid)
            tracer._parent.append(stack[-1])
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            tracer._tag.append(float("nan"))
            stack.append(idx)
            tracer._start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end[idx] = clock()
                if stack and stack[-1] == idx:
                    stack.pop()
            if hook is not None:
                tracer._tag[idx] = float(hook(result))
            return result

        return traced

    def __enter__(self):
        wrappers: dict[int, object] = {}

        def wrapped(fn):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrapper(fn)
            return wrappers[id(fn)]

        prefix = self.package + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(prefix))]
        for mod in modules:
            ns = vars(mod)
            for key, obj in list(ns.items()):
                if _is_public_function(obj, self.package):
                    self._saved.append((ns, key, obj))
                    ns[key] = wrapped(obj)
                elif isinstance(obj, dict) and not key.startswith("__"):
                    for k, v in list(obj.items()):
                        if _is_public_function(v, self.package):
                            self._saved.append((obj, k, v))
                            obj[k] = wrapped(v)
        return self

    def __exit__(self, *exc):
        while self._saved:
            container, key, original = self._saved.pop()
            container[key] = original
        return False
