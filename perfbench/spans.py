"""Span recorder for traced benchmark runs.

A span is one list ``[id, parent, op, name, start_ns, end_ns, count]``:
``parent`` is the id of the enclosing span (-1 at top level), ``op`` the
id of the benchmark op that caused it (-1 outside any op), ``name`` the
library function called as ``module.function``, the two times come from
``time.perf_counter_ns`` (CLOCK_MONOTONIC, shared by every process on the
host, so child-process spans nest inside the parent's), and ``count`` is
the work the call did in elements, or null.  Spans stay in memory until
the run ends and are then written one JSON array per line.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

SCHEMA = ["id", "parent", "op", "name", "start_ns", "end_ns", "count"]


def plain_call(name, fn, *args, count=None, **kwargs):
    """The untraced twin of ``Tracer.call``: no clock reads, no record."""
    return fn(*args, **kwargs)


class Tracer:
    """Records one span per call; ``op`` is set by the op runner."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._next = 0

    def open(self) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def close(self, sid: int, parent: int, name: str, start: int, count=None) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append([sid, parent, self.op, name, start, end, count])

    def call(self, name, fn, *args, count=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``count`` is an int, or a function of the result for work known
        only afterwards.
        """
        sid, parent = self.open()
        start = time.perf_counter_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            if callable(count):
                count = count(result) if result is not None else None
            self.close(sid, parent, name, start, count)

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded in a child process under span ``parent``."""
        base = self._next
        for sid, cparent, _, name, start, end, count in child_spans:
            self.spans.append([
                base + sid, parent if cparent < 0 else base + cparent,
                self.op, name, start, end, count,
            ])
        self._next = base + 1 + max((s[0] for s in child_spans), default=-1)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({**header, "schema": SCHEMA}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> dict[str, int]:
    """Per name: total duration minus the part covered by child spans."""
    covered: dict[int, int] = defaultdict(int)
    for sid, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, int] = defaultdict(int)
    for sid, _, _, name, start, end, _ in spans:
        out[name] += end - start - covered[sid]
    return out


def counts(spans) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for span in spans:
        if span[6] is not None:
            out[span[3]] += span[6]
    return out
