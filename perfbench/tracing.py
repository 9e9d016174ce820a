"""In-memory span recorder for the benchmark's traced runs, plus span analysis.

The traced child (``traced_cli.py``) wraps the public sessionpipe functions the
pipeline calls, at the module attribute where each caller looks them up, and
records one span per call: name, start, end, span id, parent id, thread id.
Spans stay in memory and are written out when the child exits.

Calls on a thread with no open span of its own (the orchestrator's pool
workers) take as parent the span open on the thread that installed the
tracer, so pool-thread backend calls are children of ``orchestrator.run``.
Functions called hundreds of thousands of times are counted, not spanned.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from typing import Any, Callable, Iterable, Sequence

# (name, start_s, end_s, span_id, parent_id, thread_id); parent 0 is the root
Span = tuple[str, float, float, int, int, int]
SPAN_FIELDS = ("name", "start_s", "end_s", "span_id", "parent_id", "thread_id")


class Tracer:
    """Spans, counters and backend outcomes of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.tiers: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.retries = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._thread_counts: list[Counter[str]] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> Counter[str]:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def counts(self) -> Counter[str]:
        total: Counter[str] = Counter()
        with self._lock:
            for counts in self._thread_counts:
                total.update(counts)
        return total

    def span(self, name: str, fn: Callable, on_result: Callable[[Any], None] | None = None,
             on_error: Callable[[Exception], None] | None = None) -> Callable:
        """Wrap fn so that each call records a span named name."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    parent = 0
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((name, start, end, span_id, parent, threading.get_ident()))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable, on_result: Callable[[Any], str | None] | None = None) -> Callable:
        """Wrap fn so that each call bumps count name (and name + '.' + on_result(result))."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = self._counts()
            counts[name] += 1
            if on_result is not None:
                outcome = on_result(result)
                if outcome is not None:
                    counts[f"{name}.{outcome}"] += 1
            return result

        return wrapper

    def record_response(self, response: Any) -> None:
        if response.attempt > 1:
            with self._lock:
                self.retries += 1

    def record_error(self, exc: Exception) -> None:
        cls = type(exc).__name__
        last = getattr(exc, "last_error", None)
        if last is not None:
            cls = f"{cls}({type(last).__name__})"
        with self._lock:
            self.errors[cls] += 1

    def dump(self, path: str) -> None:
        doc = {
            "fields": list(SPAN_FIELDS),
            "spans": self.spans,
            "counts": dict(self.counts()),
            "parse_tiers": dict(self.tiers),
            "errors": dict(self.errors),
            "retries": self.retries,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["spans"] = [tuple(s) for s in doc["spans"]]
    return doc


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children on other threads can overlap each other; counting their union,
    clipped to the parent's interval, charges each instant once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, _, parent, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for _, start, end, span_id, _, _ in spans:
        clipped = [
            (max(cs, start), min(ce, end))
            for cs, ce in children.get(span_id, ())
            if ce > start and cs < end
        ]
        out[span_id] = (end - start) - union_length(clipped)
    return out


def by_name(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total self seconds, total busy seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for name, start, end, span_id, _, _ in spans:
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "busy_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[span_id]
        entry["busy_s"] += end - start
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
