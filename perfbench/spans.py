"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span in the same tracer (-1 for a root) and ``op`` the operation id
shared by a library call and the check of its result (-1 outside any
operation).  Spans are kept in a list and written out once, at the end of the
run, so recording costs one tuple per span.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Span recorder for one single-threaded closed loop."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int = -1):
        """Record the enclosed block as a span; nested spans become children."""
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, perf_counter(), 0.0, parent, op))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            name, start, _, parent, op = self.spans[idx]
            self.spans[idx] = (name, start, perf_counter(), parent, op)

    def add(self, name: str, start: float, end: float, op: int = -1) -> None:
        """Record a finished leaf span under the innermost open span."""
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, start, end, parent, op))

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, op) in enumerate(spans):
        out.append((end - start) - _covered(children.get(idx, []), start, end))
    return out


def self_time_by_name(spans) -> dict[str, list[float]]:
    """Self times grouped by span name, in recording order."""
    grouped: dict[str, list[float]] = defaultdict(list)
    for span, st in zip(spans, self_times(spans)):
        grouped[span[0]].append(st)
    return dict(grouped)
