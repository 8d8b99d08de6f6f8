"""In-memory spans and self time, with no dependency on the package.

A :class:`Tracer` records one span per call of a wrapped function: its
name, start, end, the span that was open when it started (its parent) and
the run id shared by every span of one traced run.  Spans stay in memory
until the run ends.  :func:`self_times` subtracts from each span the part
of its interval that its children cover, so a layer's self time excludes
the layers it calls.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Records spans and named counters for one traced run."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._clock = clock
        self._open: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` with a span per call.

        ``after(tracer, result, args, kwargs)`` runs outside the span, so the
        counters it updates cost the layer nothing.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else None
            self._open.append(sid)
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._clock()
                self._open.pop()
                self.spans.append(
                    Span(sid, name, start, end, parent, self.run_id))
            if after is not None:
                after(self, result, args, kwargs)
            return result
        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount


class Stopwatch:
    """Durations of the calls to the functions it wraps, in call order."""

    def __init__(self):
        self.times: list[float] = []

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.times.append(time.perf_counter() - start)
        return timed


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def totals(spans) -> tuple[dict[str, int], dict[str, float]]:
    """Calls and summed self time per span name."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[s.id]
    return dict(calls), dict(self_s)


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples, restoring the old values on
    exit even when the body raises."""
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
