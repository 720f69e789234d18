"""Benchmark-side spans and the statistics helpers built on them.

A span is recorded around each call into a layer: name, start, end,
the span that caused it and the run id its workload shares.  Spans
stay in memory until the traced pass ends and are then written as one
Chrome trace.  The untraced pass uses :func:`timed` with no tracer,
which is two ``perf_counter`` reads and nothing else.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from statistics import median
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "args")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 start: float, args: dict):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one run (single-threaded by design: the
    serve clients of phase D keep their own latency lists instead).

    ``overhead`` accumulates the seconds spent recording spans — the
    whole cost of tracing, since the spans sit outside the program.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.overhead = 0.0
        self._stack: List[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **args):
        entered = time.perf_counter()
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, entered, args)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.overhead += (span.start - entered
                              + time.perf_counter() - span.end)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def write_chrome(self, path: Path) -> None:
        selfs = self_times(self.spans)
        origin = self.spans[0].start if self.spans else 0.0
        events = [{
            "name": s.name, "ph": "X", "pid": 1, "tid": 1,
            "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
            "args": {**s.args, "id": s.id, "parent": s.parent,
                     "run": self.run_id, "self_us": selfs[s.id] * 1e6},
        } for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}, allow_nan=False))


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time per span id: its duration minus its children's."""
    spans = list(spans)
    selfs = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            selfs[s.parent] -= s.duration
    return selfs


def timed(tracer: Optional[Tracer], name: str, fn: Callable, **args):
    """``(fn(), seconds)``; recorded as a span when a tracer is given."""
    if tracer is None:
        start = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - start
    with tracer.span(name, **args) as span:
        out = fn()
    return out, span.duration


#: seconds one calibration slice takes at *reference speed*.  A
#: definition, not a measurement: it fixes the box speed that the
#: end-to-end host times are expressed at.
REFERENCE_SLICE_S = 0.009
_SLICE_ITERATIONS = 200_000
_SLICES = 25


def box_slowdown() -> float:
    """How much slower than reference speed this box runs right now:
    the median of 25 timed slices of a fixed pure-Python loop, over
    ``REFERENCE_SLICE_S``.

    The box this benchmark was written on drifts by +-15% over minutes;
    a slice median taken before and after each entry-point call tracks
    that drift (r = 0.95 against simulator work over 10 s windows) and
    is blind to sub-second bursts, which the median discards.
    """
    slices = []
    for _ in range(_SLICES):
        start = time.perf_counter()
        acc = 0
        for i in range(_SLICE_ITERATIONS):
            acc += i * i % 7
        slices.append(time.perf_counter() - start)
    return median(slices) / REFERENCE_SLICE_S


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (nearest rank), refused unless at least
    ten samples lie beyond it — a tail read off fewer is not a
    measurement (choosing-metrics guide, section 1)."""
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100): {p}")
    n = len(samples)
    rank = math.ceil(n * p / 100.0)
    if n - rank < 10:
        raise ValueError(
            f"p{p:g} of {n} samples leaves {max(n - rank, 0)} beyond it; "
            f"need at least 10")
    return sorted(samples)[rank - 1]
