"""Outside-in span tracer for the benchmark.

Spans come from replacing module attributes -- the names a caller looks
up at call time -- with timing wrappers inside the benchmark process, so
nothing in the package itself changes.  Each thread keeps its own span
stack; a span opened on a thread with an empty stack (a ``run_trials``
pool worker) takes the innermost open span of the main thread as its
parent, which is the ``run_trials`` call that is waiting for it.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Wraps callables with spans or call counters until ``restore``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()  # next() is atomic under the GIL
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._ticks: dict[str, itertools.count] = {}
        self._drained: Counter = Counter()   # ticks already handed out by drain
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        functools.update_wrapper(wrapper, original)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str,
             attrs: Optional[Callable[[tuple, object], dict]] = None) -> None:
        """Record a span called *name* around every call of ``owner.attr``.

        *attrs(args, result)* runs after the span closes; its cost lands in
        the parent's self time, never in this span.
        """
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            host = stack or self._main_stack
            span = Span(next(self._ids), name, host[-1].sid if host else None, perf_counter())
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, out)
            return out

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under *name*, without timing them."""
        fn = getattr(owner, attr)
        tick = self._ticks.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            next(tick)  # atomic under the GIL, so pool threads need no lock
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def drain(self) -> tuple[list[Span], Counter]:
        """Spans and call counts since the last drain; call between ops,
        when no traced thread is running."""
        spans, self.spans = self.spans, []
        counts = Counter()
        for name, tick in self._ticks.items():
            total = next(tick)  # this probe tick is not a call
            counts[name] = total - self._drained[name]
            self._drained[name] = total + 1
        return spans, counts

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def attribute_wall(spans: list[Span]) -> tuple[dict[str, float], float]:
    """Split the wall time of the root spans among span names.

    A span's self intervals are its interval minus the union of its
    children's.  Where several self intervals overlap in time (pool
    threads running side by side), each gets an equal share of that
    stretch, so the shares sum exactly to the roots' total duration.
    Returns (seconds per span name, total root duration).
    """
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    events = []
    for span in spans:
        cursor = span.t0
        for child in sorted(children[span.sid], key=lambda c: c.t0):
            lo, hi = max(child.t0, span.t0), min(child.t1, span.t1)
            if lo > cursor:
                events += [(cursor, 1, span.name), (lo, -1, span.name)]
            cursor = max(cursor, hi)
        if span.t1 > cursor:
            events += [(cursor, 1, span.name), (span.t1, -1, span.name)]
    events.sort(key=lambda e: (e[0], e[1]))
    share: dict[str, float] = defaultdict(float)
    active: Counter = Counter()
    depth, last = 0, 0.0
    for t, step, name in events:
        if depth:
            for active_name, k in active.items():
                if k:
                    share[active_name] += (t - last) * k / depth
        last = t
        active[name] += step
        depth += step
    roots = sum(s.t1 - s.t0 for s in children[None])
    return dict(share), roots
