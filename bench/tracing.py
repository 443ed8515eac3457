"""Spans around the benchmark's calls into traysight.

The program itself is not instrumented: each span wraps one call made from
the benchmark's own files. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Records (name, start, end, parent, trace id, error) for every span."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.trace_id = "setup"

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.trace_id, False]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException:
            record[5] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[str, list[float]]:
        """Seconds per span, minus the part its direct children cover, grouped by name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _, _, _), child in zip(self.spans, covered):
            out[name].append(end - start - child)
        return out

    def errors(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, _, _, _, _, error in self.spans:
            out[name] += error
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            for name, start, end, parent, trace_id, error in self.spans:
                f.write(json.dumps([name, start, end, parent, trace_id, error]) + "\n")


class NullTracer:
    """Same interface as Tracer; records nothing. Used for the timed end-to-end run."""

    trace_id = None
    _none = contextlib.nullcontext()

    def span(self, name: str):
        return self._none

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NULL = NullTracer()
