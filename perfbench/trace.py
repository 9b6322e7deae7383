"""In-memory spans recorded around calls into cutplan's public functions.

A span has a name, a start, an end, its parent span and the id of the
operation (one plan or one estimate) it belongs to. Spans stay in memory
while the benchmark runs and are written out once at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []

    def add(self, name: str, start: float, end: float, op: int,
            parent: int | None = None) -> int:
        """Record a span whose bounds are already known; returns its index."""
        self.spans.append(Span(name, start, end, parent, op))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, op: int, parent: int | None = None):
        """Time the body as one span; yields the span's index for children.

        The span is kept when the body raises, ending at the raise.
        """
        index = self.add(name, time.perf_counter(), 0.0, op, parent)
        try:
            yield index
        finally:
            self.spans[index].end = time.perf_counter()

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                out.setdefault(s.parent, []).append(i)
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the part its children cover.

        Children of one span never overlap (calls run one after another), so
        the covered part is the sum of their durations.
        """
        kids = self.children()
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            own = s.duration - sum(self.spans[k].duration for k in kids.get(i, ()))
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def leaf_time(self, index: int, kids: dict[int, list[int]]) -> float:
        """Summed duration of the leaf spans below span ``index``."""
        below = kids.get(index)
        if not below:
            return self.spans[index].duration
        return sum(self.leaf_time(k, kids) for k in below)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
