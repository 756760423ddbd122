"""In-memory spans recorded around the benchmark's calls into the package.

A span has a name, a start, an end, the index of the span that encloses it
(-1 for a root) and the id of the sentence it belongs to.  Spans nest
strictly because the benchmark is single-threaded, so a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    sentence = 0

    def span(self, name: str, calls: int = 1):
        return _NULL


class Tracer:
    def __init__(self) -> None:
        # [sentence, name, start, end, parent, calls]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.sentence = 0

    @contextmanager
    def span(self, name: str, calls: int = 1):
        rec = [self.sentence, name, perf_counter(), 0.0,
               self._open[-1] if self._open else -1, calls]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._open.pop()
            rec[3] = perf_counter()

    def self_times(self) -> list[float]:
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, tuple[float, int]]:
        """Per span name: summed duration in seconds and summed call count."""
        out: dict[str, tuple[float, int]] = {}
        for _, name, start, end, _, calls in self.spans:
            s, c = out.get(name, (0.0, 0))
            out[name] = (s + end - start, c + calls)
        return out

    def dump(self, path) -> None:
        keys = ("sentence", "name", "start", "end", "parent", "calls")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, rec)) for rec in self.spans], fh)


def span_cost_s(samples: int = 20_000) -> float:
    """Measured cost of recording one empty span, in seconds."""
    t = Tracer()
    start = perf_counter()
    for _ in range(samples):
        with t.span("x"):
            pass
    return (perf_counter() - start) / samples
