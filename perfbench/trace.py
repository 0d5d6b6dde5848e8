"""In-memory spans around the calls the workloads make into each layer.

A span records name, start, end, parent and problem id.  Spans stay in
memory and are written out once, when the run ends.  Self time is a span's
duration minus the part of it that its child spans cover.  With tracing off
the workloads make the identical calls through NullTracer, whose spans do
nothing.

Counting is kept out of the timed region: a workload hands the objects to
count to `after()`, and the runner calls `flush()` once the problem's time
has been taken, before the next problem starts.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("field", "ring", "linalg", "groebner", "grading", "determinantal", "complexes", "cli")


def _merge(counts, name, value):
    old = counts.get(name, 0)
    counts[name] = max(old, value) if name.endswith("_max") else old + value


class NullTracer:
    @contextmanager
    def span(self, name):
        yield

    def after(self, fn, *args):
        pass

    def flush(self):
        pass


class Tracer:
    """Spans and per-problem counts of one run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, problem id]
        self.counts = {}  # problem id -> {name: value}
        self.problem = None
        self._stack = []
        self._pending = []  # (fn, args) to run at the next flush()
        self.overhead_s = 0.0  # time spent in span bookkeeping itself

    @contextmanager
    def span(self, name):
        t0 = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.problem]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[1] = t1 = time.perf_counter()
        try:
            yield
        finally:
            t2 = time.perf_counter()
            record[2] = t2
            self._stack.pop()
            self.overhead_s += (t1 - t0) + (time.perf_counter() - t2)

    def count(self, name, value):
        """Add value to the problem's count; counts named *_max keep the maximum."""
        _merge(self.counts.setdefault(self.problem, {}), name, value)

    def after(self, fn, *args):
        """Call fn(self, *args) at the next flush(), which counts for the
        current problem."""
        self._pending.append((fn, args))

    def flush(self):
        for fn, args in self._pending:
            fn(self, *args)
        self._pending.clear()

    def totals(self, problems):
        """Counts merged over the given problem ids."""
        out = {}
        for pid in problems:
            for name, value in self.counts.get(pid, {}).items():
                _merge(out, name, value)
        return out

    def self_times(self):
        """(name, problem id, self seconds) per span; children's cover removed."""
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_cover[parent] += end - start
        return [
            (name, pid, (end - start) - child_cover[i])
            for i, (name, start, end, _, pid) in enumerate(self.spans)
        ]

    def write(self, path):
        """One JSON line per span, written once at the end of a run."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "problem": pid}) + "\n")
