"""In-memory span recorder for the benchmark's traced run.

The tracer replaces public functions and methods of the package with thin
wrappers that record one span per call: name, start, end, the index of the
enclosing span, and optional work counters computed from the call's
arguments and result.  Every replaced attribute is put back by `restore`
(or on leaving the `with` block), so an untraced pass in the same process
runs the original code.

Names are patched where the caller looks them up: a function imported by
name into another module is patched in that module's namespace, and a
method is patched on its class.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

_MISSING = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "tags")

    def __init__(self, name, parent, tags=None):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.counts = None
        self.tags = tags

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counts": self.counts,
            "tags": self.tags,
        }


class Tracer:
    """Records spans around patched callables and around explicit blocks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []

    # -- recording ------------------------------------------------------------

    def _open(self, name, tags=None):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, tags)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        return span

    def _close(self, span):
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name, **tags):
        """Record a span around a block of the benchmark's own code."""
        span = self._open(name, tags or None)
        try:
            yield span
        finally:
            self._close(span)

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attr, name, counts=None):
        """Replace owner.attr with a recording wrapper.

        `owner` is a module or a class.  `counts(args, kwargs, result)`, when
        given, returns a dict of work counters stored on the span.
        """
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING or not callable(original):
            raise AttributeError(f"{owner!r} has no callable attribute {attr!r}")
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        """Put back every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis -------------------------------------------------------------

    def self_times(self, durations=None):
        """Per span: its duration minus the durations of its direct children.

        `durations` (one per span) defaults to the recorded ones.  Spans are
        recorded from one thread, so children of one parent do not overlap
        and their durations can be summed.
        """
        if durations is None:
            durations = [span.duration for span in self.spans]
        child = [0.0] * len(self.spans)
        for span, d in zip(self.spans, durations):
            if span.parent >= 0:
                child[span.parent] += d
        return [d - c for d, c in zip(durations, child)]

    def enclosing(self, index, name):
        """Index of the nearest ancestor of span `index` called `name`, or -1."""
        parent = self.spans[index].parent
        while parent >= 0 and self.spans[parent].name != name:
            parent = self.spans[parent].parent
        return parent

    def write(self, path):
        """Write all spans as JSON lines, in start order."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
