"""Span tracing of the aeal layers from outside the package.

The tracer replaces module and class attributes at the places the layers
call each other (for example ``protocol.fit_offset`` or
``transport.LocalChannel.send``) with wrappers that record one span per
call: name, start, end, parent span, thread and unit id. Spans stay in
memory until the run ends. Self time is a span's duration minus the time
its child spans on the same thread cover, so the two agent threads of a
session are both accounted for (cProfile only sees the main thread).
"""

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []                  # (id, name, start, end, parent, thread, unit)
        self.counters = defaultdict(float)   # (unit, key) -> total
        self.unit = None                 # id of the unit being run, set by the harness
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, value):
        with self._lock:
            self.counters[(self.unit, key)] += value

    def _call(self, name, fn, count, args, kwargs):
        """Run fn inside a span; count(args, kwargs, result) adds counters."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        unit = self.unit
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent,
                               threading.get_ident(), unit))
        if count is not None:
            for key, value in count(args, kwargs, result).items():
                self.add(key, value)
        return result

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a traced wrapper until uninstall()."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self._call(name, original, count, args, kwargs)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self, units):
        """Per span name: (calls, self seconds, [durations]) over the given units."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for span_id, name, start, end, _, _, unit in self.spans:
            if unit not in units:
                continue
            calls, self_s, durations = out.get(name, (0, 0.0, []))
            durations.append(end - start)
            out[name] = (calls + 1, self_s + (end - start) - child_time[span_id],
                         durations)
        return out

    def counter(self, key, units):
        return sum(v for (unit, k), v in self.counters.items()
                   if k == key and unit in units)

    def write(self, path):
        """Write every span as one JSON line, times relative to the first span."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, thread, unit in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent, "thread": thread,
                                     "unit": unit}) + "\n")
