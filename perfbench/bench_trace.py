"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces a function by a wrapper under the dotted name its
caller looks it up by: ``mfid.cli.train`` is the ``train`` that
``mfid.cli`` calls, so wrapping it times every training run the CLI starts.
Each wrapper call records one span ``(id, parent, name, start, end,
counts)``.  Spans stay in memory, one list and one open-span stack per
thread, and :meth:`Tracer.dump` writes them out when the command ends.

A span opened on a thread with no open span of its own (a worker of a thread
pool) takes as parent the innermost span open on the main thread at that
moment, which is the span that handed it the work.

Self time is a span's duration minus the part of its interval covered by its
children (:func:`self_times`), so overlapping children on worker threads are
counted once and self time never goes negative.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict | None = None


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}


class Tracer:
    """Wraps named functions and keeps the spans and counts they record."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main = self._state()
        self.missing: list[str] = []
        self.broken: list[str] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``hook(args, kwargs, result)`` may return a dict of counts to attach
        to the span; it runs after the span has closed.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            if state.stack:
                parent = state.stack[-1]
            else:
                main_stack = tracer._main.stack
                parent = main_stack[-1] if main_stack else None
            span_id = next(tracer._ids)
            state.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                state.spans.append(Span(span_id, parent, name, start, end))
            if hook is not None:
                try:
                    counts = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    tracer.broken.append(name)
                else:
                    state.spans[-1] = state.spans[-1]._replace(counts=counts)
            return result

        return traced

    def counter(self, name: str, fn):
        """Return ``fn`` wrapped so each call only bumps the count ``name``."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts = tracer._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self, target: str, make_wrapper) -> bool:
        """Replace the function at dotted ``target`` by ``make_wrapper(fn)``.

        A module or attribute that no longer exists is recorded in
        :attr:`missing` instead of raising, so a refactor that moves a
        function leaves the traced run working.
        """
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(target)
            return False
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(target)
            return False
        setattr(module, attr, make_wrapper(fn))
        return True

    def spans(self) -> list[Span]:
        with self._lock:
            return [span for state in self._states for span in state.spans]

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = defaultdict(int)
        with self._lock:
            for state in self._states:
                for key, value in state.counts.items():
                    merged[key] += value
        return dict(merged)

    def dump(self, path, **extra) -> None:
        """Write spans, counts and missing names as one JSON document."""
        document = {
            "spans": [list(span) for span in self.spans()],
            "counts": self.counts(),
            "missing": self.missing,
            "broken": sorted(set(self.broken)),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)


def covered_length(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] covered by the union of intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    reach = start
    for a, b in clipped:
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Map span id to its duration minus the part its children cover."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    return {span.id: (span.end - span.start)
            - covered_length(span.start, span.end, children.get(span.id, ()))
            for span in spans}


class NameTotals(NamedTuple):
    calls: int
    self_s: float
    min_self_s: float
    counts: dict


def totals_by_name(spans) -> dict[str, NameTotals]:
    """Calls, summed and smallest self time, and summed counts per name."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_sum: dict[str, float] = defaultdict(float)
    min_self: dict[str, float] = {}
    counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        calls[span.name] += 1
        self_sum[span.name] += own[span.id]
        min_self[span.name] = min(min_self.get(span.name, own[span.id]), own[span.id])
        for key, value in (span.counts or {}).items():
            counts[span.name][key] += value
    return {name: NameTotals(calls[name], self_sum[name],
                             min_self[name], dict(counts[name]))
            for name in calls}
