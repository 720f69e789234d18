"""Metrics registry: named counters, timers, and spans.

Metrics complement the event stream: events answer *what happened,
when*; metrics answer *how much, how often, how long* without storing
every occurrence.  The registry is deliberately tiny — a counter is one
attribute increment, a timer two ``perf_counter`` calls — so harness
code can meter itself unconditionally.
"""

from __future__ import annotations

import time as _time
from typing import Dict, Optional


class Counter:
    """Monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Timer:
    """Accumulates wall seconds over any number of timed sections."""

    __slots__ = ("name", "total", "count", "_t0")

    def __init__(self, name: str):
        self.name = name
        self.total = 0.0
        self.count = 0
        self._t0: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._t0 = _time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> "Timer":
        self._t0 = _time.perf_counter()
        return self

    def stop(self) -> float:
        """Close the open section; returns its duration in seconds."""
        if self._t0 is None:
            return 0.0
        elapsed = _time.perf_counter() - self._t0
        self._t0 = None
        self.total += elapsed
        self.count += 1
        return elapsed

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class _Span:
    """One phase section with *exclusive* wall accounting.

    Entering a span pauses the enclosing span's timer and resumes it on
    exit, so the per-phase totals partition wall time instead of
    double-counting nested phases: a trace-store read inside an engine
    run lands in ``span.trace_io``, not also in ``span.timing``.
    """

    __slots__ = ("_registry", "_timer")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._timer = registry.timer("span." + name)

    def __enter__(self) -> "_Span":
        stack = self._registry._span_stack
        if stack:
            stack[-1]._timer.stop()
        stack.append(self)
        self._timer.start()
        return self

    def __exit__(self, *exc) -> None:
        self._timer.stop()
        stack = self._registry._span_stack
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1]._timer.start()


class MetricsRegistry:
    """Lazily-created named counters and timers, one namespace per bus."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._timers: Dict[str, Timer] = {}
        self._span_stack: list = []

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def timer(self, name: str) -> Timer:
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = Timer(name)
        return timer

    def span(self, name: str) -> _Span:
        """Context manager timing one *phase* under ``span.<name>``.

        Unlike a plain :meth:`timer`, nested spans account exclusively:
        the enclosing phase's clock pauses while an inner phase runs.
        ``--metrics`` renders all ``span.*`` timers as the per-phase
        wall breakdown.  The timer's ``count`` is the number of
        uninterrupted sections, not the number of ``span()`` entries.
        """
        return _Span(self, name)

    def phases(self) -> Dict[str, float]:
        """Exclusive wall seconds per phase (``span.*`` timers only)."""
        return {name[len("span."):]: t.total
                for name, t in sorted(self._timers.items())
                if name.startswith("span.")}

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe dump of every metric, sorted by name."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "timers": {name: {"total": t.total, "count": t.count,
                              "mean": t.mean}
                       for name, t in sorted(self._timers.items())},
        }

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Add another registry's :meth:`snapshot` into this one: counts
        and timed seconds accumulate as if its work had run here."""
        for name, value in snapshot["counters"].items():
            self.counter(name).inc(value)
        for name, timed in snapshot["timers"].items():
            timer = self.timer(name)
            timer.total += timed["total"]
            timer.count += timed["count"]

    def __len__(self) -> int:
        return len(self._counters) + len(self._timers)
