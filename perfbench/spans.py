"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span, or -1 for a root.  The benchmark is single-threaded, so spans
nest and a span's self time is its length minus the lengths of its direct
children.  Counters are kept next to the spans, at the same boundaries.
"""

import contextlib
import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, fn, name, after=None):
        """``fn`` recorded as a span.

        ``name`` is a string or a function of the call's arguments.  Every call
        counts ``<name>.calls``; a raised exception counts
        ``<name>.raised.<type>`` and propagates; ``after(tracer, name, result)``
        sees each result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            self.counts[label + ".calls"] += 1
            try:
                with self.span(label):
                    result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{label}.raised.{type(exc).__name__}"] += 1
                raise
            if after is not None:
                after(self, label, result)
            return result

        return traced

    def counting(self, fn, key):
        """``fn`` with every call counted under ``key``, without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self):
        """Total self time per span name."""
        own = defaultdict(float)
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return own

    def root_time(self):
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


@contextlib.contextmanager
def patched(targets):
    """Replace module attributes for the duration: ``targets`` is a list of
    ``(module, attribute, replacement)``; originals come back on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, replacement in targets:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
