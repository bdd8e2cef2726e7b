"""In-memory spans around calls into lglab's public functions.

The benchmark never edits library code. :class:`Instrumentation`
replaces each target function, at every ``lglab.*`` module binding
that refers to it, with a wrapper that records a span, and puts the
originals back on exit. A span has a name, start, end, parent span and
the op it belongs to (the op is the root span). Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "op", "batch", "error", "attrs")

    def __init__(self, span_id, name, start, parent, op, batch, attrs=None):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.batch = batch
        self.error = False
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "batch": self.batch,
            "error": self.error,
            "attrs": self.attrs,
        }


class Tracer:
    """Records nested spans for one single-threaded run.

    While ``active`` is false, wrapped functions run without spans; the
    benchmark clears it while it checks outputs.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.batch = 0
        self.active = True
        self._stack = []

    def begin(self, name, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans),
            name,
            self.clock(),
            None if parent is None else parent.span_id,
            None if parent is None else parent.op,
            self.batch,
            attrs,
        )
        if parent is None:
            span.op = span.span_id
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(self, fn, name, hook=None):
        """``fn`` with a span around every call; ``hook(args, kwargs, result)`` adds attributes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                tracer.end(span)
            if hook is not None:
                span.attrs.update(hook(args, kwargs, result))
            return result

        return traced


class Instrumentation:
    """Context manager that wraps target functions at every lglab binding.

    ``targets`` holds ``(module_name, attribute, span_name, hook)``; an
    attribute ``"Class.method"`` names a classmethod.
    """

    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.targets = targets
        self._restore = []

    def __enter__(self):
        for module_name, *_ in self.targets:
            importlib.import_module(module_name)
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "lglab" or name.startswith("lglab."))
        ]
        for module_name, attribute, span_name, hook in self.targets:
            module = sys.modules[module_name]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[method]
                wrapped = classmethod(self.tracer.wrap(raw.__func__, span_name, hook))
                self._restore.append((owner, method, raw))
                setattr(owner, method, wrapped)
                continue
            original = getattr(module, attribute)
            wrapped = self.tracer.wrap(original, span_name, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if min(end, b) > max(start, a)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """span_id -> duration minus the part of it covered by its direct children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.span_id: s.duration - covered_length(s.start, s.end, children[s.span_id])
        for s in spans
    }
