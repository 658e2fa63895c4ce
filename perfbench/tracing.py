"""Spans recorded from the benchmark's own files, and their attribution.

A :class:`Tracer` wraps callables of the layer objects a workload builds
(instance attributes, or names looked up in ``repro`` modules) so each
call records one span: ``(id, parent, name, start, end, thread, tag)``.
Spans stay in memory and are written out once, when the run ends.  No
file of the program changes.

:func:`attribute` turns spans into per-layer self time over a window.
A span's self time is its duration minus the part its child spans
cover.  Where several threads are inside spans at once (the server's
executor pool), each instant is split evenly among them, so the layer
times plus the ``unattributed`` remainder always sum to the window's
wall time.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

Span = tuple  # (id, parent, name, start, end, thread, tag)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             tag: Optional[Callable[[tuple, Any], Any]] = None) -> Callable:
        """``fn`` with every call recorded as a span named ``name``;
        ``tag(args, result)`` may attach a small JSON-able value."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end,
                              threading.get_ident(),
                              tag(args, result) if tag else None))

        return traced

    def wrap_iterator(self, fn: Callable, name: str) -> Callable:
        """``fn`` returns an iterator; every ``next()`` on it is a span
        (lazy decoders do their work there, not in the call)."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))

            def stepping():
                while True:
                    stack = stack_of()
                    span_id = next(ids)
                    parent = stack[-1] if stack else -1
                    stack.append(span_id)
                    start = clock()
                    done = False
                    try:
                        item = next(iterator)
                    except StopIteration:
                        done = True
                    finally:
                        end = clock()
                        stack.pop()
                        spans.append((span_id, parent, name, start, end,
                                      threading.get_ident(),
                                      0 if done else 1))
                    if done:
                        return
                    yield item

            return stepping()

        return traced

    def patch(self, owner: Any, attribute: str, name: str,
              tag: Optional[Callable[[tuple, Any], Any]] = None,
              iterator: bool = False) -> None:
        """Replace ``owner.attribute`` by its traced version."""
        original = getattr(owner, attribute)
        wrapped = (self.wrap_iterator(original, name) if iterator
                   else self.wrap(original, name, tag))
        setattr(owner, attribute, wrapped)

    @contextlib.contextmanager
    def root(self, name: str = "run"):
        """The window every layer is attributed against."""
        stack = self._stack()
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, -1, name, start, end,
                               threading.get_ident(), None))

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(path: Path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


def _self_segments(spans: list[Span], start: float, end: float
                   ) -> list[tuple[float, float, str]]:
    """Per span, the parts of ``[start, end]`` not covered by its
    children: ``(begin, finish, name)`` segments, disjoint per thread."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span[1] != -1:
            children[span[1]].append(span)
    segments = []
    for span in spans:
        lo, hi = max(span[3], start), min(span[4], end)
        if hi <= lo:
            continue
        cursor = lo
        for child in sorted(children.get(span[0], ()), key=lambda s: s[3]):
            c_lo, c_hi = max(child[3], lo), min(child[4], hi)
            if c_hi <= c_lo:
                continue
            if c_lo > cursor:
                segments.append((cursor, c_lo, span[2]))
            cursor = max(cursor, c_hi)
        if hi > cursor:
            segments.append((cursor, hi, span[2]))
    return segments


def attribute(spans: Iterable[Span], start: float, end: float,
              ignore: frozenset = frozenset()) -> dict[str, float]:
    """Self seconds per span name inside ``[start, end]``, plus
    ``unattributed``; the values sum to ``end - start``.  Spans named
    in ``ignore`` (the window's own root) attribute nothing themselves
    but still hide nothing of their children."""
    segments = [seg for seg in _self_segments(list(spans), start, end)
                if seg[2] not in ignore]
    events = []
    for lo, hi, name in segments:
        events.append((lo, 1, name))
        events.append((hi, -1, name))
    events.sort(key=lambda e: (e[0], e[1]))
    totals: dict[str, float] = defaultdict(float)
    active: dict[str, int] = defaultdict(int)
    depth = 0
    previous = start
    for at, delta, name in events:
        if depth and at > previous:
            share = (at - previous) / depth
            for layer, count in active.items():
                if count:
                    totals[layer] += share * count
        previous = max(previous, at)
        active[name] += delta
        depth += delta
    attributed = sum(totals.values())
    result = dict(totals)
    result["unattributed"] = (end - start) - attributed
    return result


def check(spans: Iterable[Span], start: float, end: float,
          shares: dict[str, float], ignore: frozenset = frozenset()
          ) -> list[str]:
    """What :func:`attribute` relies on, checked from the raw spans.

    Every child lies inside its parent on the parent's thread, and the
    children of one span do not overlap (a broken span stack would
    double-count).  The attributed total (``shares`` less
    ``unattributed``) equals the time inside ``[start, end]`` that some
    span covers, found here by merging the spans' intervals instead of
    subtracting children and splitting among threads.
    """
    spans = list(spans)
    by_id = {span[0]: span for span in spans}
    problems = []
    siblings: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span[1])
        if span[1] == -1:
            continue
        if parent is None:
            problems.append(f"{span[2]} span has no recorded parent")
            continue
        siblings[span[1]].append(span)
        if span[5] != parent[5] or span[3] < parent[3] or span[4] > parent[4]:
            problems.append(f"{span[2]} span not inside its parent "
                            f"{parent[2]}")
    for children in siblings.values():
        children.sort(key=lambda s: s[3])
        for before, after in zip(children, children[1:]):
            if after[3] < before[4]:
                problems.append(f"{before[2]} and {after[2]} spans overlap "
                                f"under one parent")
    clipped = ((max(s[3], start), min(s[4], end)) for s in spans
               if s[2] not in ignore)
    covered, cursor = 0.0, start
    for lo, hi in sorted(c for c in clipped if c[1] > c[0]):
        if hi > cursor:
            covered += hi - max(lo, cursor)
            cursor = hi
    attributed = sum(v for k, v in shares.items() if k != "unattributed")
    if abs(attributed - covered) > 1e-6 * max(1.0, end - start):
        problems.append(f"layers attribute {attributed:.6f} s, spans cover "
                        f"{covered:.6f} s")
    if shares["unattributed"] < -1e-9:
        problems.append(f"unattributed time {shares['unattributed']:.6f} s "
                        f"is negative")
    return problems[:10]


def durations(spans: Iterable[Span], name: str) -> list[float]:
    return [span[4] - span[3] for span in spans if span[2] == name]


def count(spans: Iterable[Span], name: str) -> int:
    return sum(1 for span in spans if span[2] == name)


def tag_sum(spans: Iterable[Span], name: str) -> float:
    return sum(span[6] or 0 for span in spans if span[2] == name)
