"""In-memory span recorder for the traced benchmark run.

A span is (name, start_ns, end_ns, parent index, op id). Spans are kept in a
list while the run lasts and written out once, when it ends. A layer's self
time is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = "op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter_ns()
            self._open.pop()


def self_times(spans: list[list]) -> dict[int, dict[str, int]]:
    """Per op id, the self time in ns of each span name, summed over spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for index, (name, start, end, _parent, op) in enumerate(spans):
        out[op][name] += end - start - child_ns[index]
    return out

