"""Spans and counters recorded around the benchmark's calls into concord.

Spans are taken from the benchmark's side of each public call, so the
program itself is unchanged.  With tracing off, `call` is a plain call.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op = None  # index of the operation that caused the next spans
        self.spans = []  # (name, start, end, op)
        self.busy = {}  # name -> [seconds, calls]
        self.samples = {}  # name -> [values]

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.spans.append((name, start, end, self.op))
            slot = self.busy.setdefault(name, [0.0, 0])
            slot[0] += end - start
            slot[1] += 1

    def sample(self, name, value):
        if self.enabled:
            self.samples.setdefault(name, []).append(value)
