"""WarpPack: fills of many warps through the one interpreter.

:meth:`FunctionalExecutor.run_batches` interprets batches of warps in
lockstep and splits them on divergence.  This module decides *what to
hand it* and accounts for the result:

* A **fill** (:meth:`WarpPackExecutor.fill_full` /
  :meth:`~WarpPackExecutor.fill_control`) runs a set of warps.  A
  CONTROL fill starts as one merged batch; its leaves are the *path
  groups* — sets of warps that executed the exact same dynamic
  basic-block path — and the fill records every leaf's path signature
  in ``Kernel.path_memo``.  A FULL fill whose warps already have
  signatures on record starts pre-partitioned into those groups (the
  rest form one merged batch whose scalar-branch outcomes discover the
  grouping on the fly), so a CONTROL fast-forward's grouping is shared
  with later FULL fills instead of being re-derived.  A stale memo entry
  is only a hint: it costs one mid-batch split.
* **When a fill runs as singletons.**  Fault plans arm per memory
  instruction of a warp, which has no batch-wise meaning, so a fill
  under a fault plan runs every warp as its own batch of one — one
  local decision in :meth:`WarpPackExecutor._fill`, counted as
  ``exec.batch.singleton.fault_plan``.  There is no switch: nothing
  else selects singletons.  A fill is one run of the interpreter, so
  it checks the deadline through one watchdog whatever its batches.
* **Faults.**  The driver isolates a faulting warp by bisection and
  never re-executes the others, so a fill returns traces for every warp
  that finished plus, in :attr:`PackFill.fallback`, the stored
  per-warp :class:`~repro.errors.ExecutionError` of every warp that did
  not.  Providers raise that error when the warp is requested.
  Reliability errors (watchdog trips, injected faults) propagate out of
  the fill: a budget trip must stop the run.

Fills are published on the obs bus as ``exec.batch`` /
``exec.batch_fallback`` events with ``exec.batch.*`` counters.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..errors import ExecutionError
from ..obs import EXEC_BATCH, EXEC_BATCH_FALLBACK, EventBus
from .executor import FunctionalExecutor
from .kernel import Kernel
from .trace import ControlTrace, WarpTrace

#: warps batch-filled per provider fill; bounds wasted work when a
#: detector stops dispatch early and bounds per-fill memory
DEFAULT_CHUNK = 256


class PackFill:
    """Result of one fill: traces, stored errors and accounting."""

    __slots__ = ("traces", "fallback", "group_sizes", "wall", "distinct")

    def __init__(self, traces, fallback, group_sizes, wall, distinct):
        self.traces = traces          # Dict[int, WarpTrace|ControlTrace]
        self.fallback = fallback      # Dict[int, ExecutionError]
        self.group_sizes = group_sizes
        self.wall = wall
        self.distinct = distinct      # distinct memory records (FULL)


class WarpPackExecutor:
    """Fills: path-memo grouping, the singleton decision, accounting.

    Wraps (or builds) the :class:`FunctionalExecutor` whose interpreter,
    deadline and fault plan the fills use.
    """

    def __init__(self, kernel: Kernel,
                 bus: Optional[EventBus] = None,
                 executor: Optional[FunctionalExecutor] = None):
        if executor is None:
            executor = FunctionalExecutor(kernel, bus=bus)
        self.executor = executor
        self.kernel = executor.kernel
        self.bus = bus if bus is not None else executor.bus

    def fill_control(self, warp_ids: Sequence[int]) -> PackFill:
        """CONTROL traces for ``warp_ids`` (+ stored per-warp errors)."""
        return self._fill(warp_ids, False)

    def fill_full(self, warp_ids: Sequence[int]) -> PackFill:
        """FULL traces for ``warp_ids`` (+ stored per-warp errors)."""
        return self._fill(warp_ids, True)

    def _fill(self, warp_ids: Sequence[int], full: bool) -> PackFill:
        executor = self.executor
        metrics = self.bus.metrics
        with metrics.span("functional"):
            t0 = _time.perf_counter()
            ids = [int(w) for w in warp_ids]
            singleton = executor.fault_plan is not None
            if singleton:
                metrics.counter("exec.batch.singleton.fault_plan").inc()
                batches = [[w] for w in ids]
            else:
                unknown: List[int] = []
                known: Dict[object, List[int]] = {}
                memo = self.kernel.path_memo if full else {}
                for w in ids:
                    token = memo.get(w)
                    if token is None:
                        unknown.append(w)
                    else:
                        known.setdefault(token, []).append(w)
                if known:
                    metrics.counter("exec.batch.ctrl_reused").inc(
                        len(ids) - len(unknown))
                batches = [group for group in [unknown, *known.values()]
                           if group]
            records: dict = {}   # the fill's interned memory records
            traces, errors, groups = executor.run_batches(
                batches, full, records)
            if not singleton and len(ids) > 1:
                # warps that finished together took one path: record it
                # (a warp that ran alone says nothing about grouping)
                for group in groups:
                    token = object()
                    for w in group:
                        self.kernel.path_memo[w] = token
            fill = PackFill(traces, errors, [len(g) for g in groups],
                            _time.perf_counter() - t0, len(records))
        self._publish(fill, "full" if full else "control")
        return fill

    def run_warps_full(
            self, warp_ids: Sequence[int]) -> Dict[int, WarpTrace]:
        """FULL traces for ``warp_ids``; raises the stored error of the
        lowest warp that faulted (:meth:`fill_full` defers it until the
        warp is individually requested)."""
        return self._all_or_raise(self.fill_full(warp_ids))

    def run_warps_control(
            self, warp_ids: Sequence[int]) -> Dict[int, ControlTrace]:
        """CONTROL traces for ``warp_ids``; raises like
        :meth:`run_warps_full`."""
        return self._all_or_raise(self.fill_control(warp_ids))

    @staticmethod
    def _all_or_raise(fill: PackFill):
        if fill.fallback:
            raise fill.fallback[min(fill.fallback)]
        return fill.traces

    def _publish(self, fill: PackFill, mode: str) -> None:
        bus = self.bus
        metrics = bus.metrics
        n_batched = len(fill.traces)
        metrics.counter("exec.batch.groups").inc(len(fill.group_sizes))
        metrics.counter("exec.batch.batched_warps").inc(n_batched)
        if mode == "full":
            metrics.counter("exec.batch.mem_records").inc(
                sum(len(t.mem_lines) for t in fill.traces.values()))
            metrics.counter("exec.batch.mem_records_distinct").inc(
                fill.distinct)
        channel = bus.channel(EXEC_BATCH)
        if channel.subscribers:
            channel.publish(self.kernel.name, mode, n_batched,
                            len(fill.group_sizes),
                            list(fill.group_sizes), len(fill.fallback),
                            fill.wall)
        if fill.fallback:
            metrics.counter("exec.batch.fallbacks").inc(len(fill.fallback))
            fb_channel = bus.channel(EXEC_BATCH_FALLBACK)
            if fb_channel.subscribers:
                fb_channel.publish(self.kernel.name, mode,
                                   sorted(fill.fallback))


def control_traces(kernel: Kernel, warp_ids: Iterable[int],
                   executor: Optional[FunctionalExecutor] = None,
                   ) -> Dict[int, ControlTrace]:
    """CONTROL traces for ``warp_ids`` in one fill.

    The single fast-forward entry point shared by Photon's online
    analysis and bb-sampling finish, PKA profiling, and the TBPoint /
    inter-kernel baselines.
    """
    return WarpPackExecutor(kernel, executor=executor).run_warps_control(
        list(warp_ids))


class PackProvider:
    """A chunked, fill-backed ``trace_provider`` for the engine.

    Serves :meth:`DetailedEngine` trace requests from FULL fills of
    ``chunk`` consecutive warps.  Chunking bounds both wasted work under
    detector early-stop and resident trace memory (served traces are
    dropped; the engine keeps what it needs).  ``have(w)``, when given,
    names warps the caller can already serve from elsewhere (a cache, a
    store): a fill never emulates them speculatively, only on request.
    A warp whose emulation faulted raises its stored error whenever it
    is requested.
    """

    def __init__(self, kernel: Kernel, chunk: int = DEFAULT_CHUNK,
                 executor: Optional[FunctionalExecutor] = None,
                 have: Optional[Callable[[int], bool]] = None):
        self.kernel = kernel
        self.chunk = max(1, int(chunk))
        self.executor = executor if executor is not None \
            else FunctionalExecutor(kernel)
        self._pack = WarpPackExecutor(kernel, executor=self.executor)
        self._have = have if have is not None else (lambda w: False)
        self._ready: Dict[int, WarpTrace] = {}
        self._errors: Dict[int, ExecutionError] = {}
        self._filled: set = set()

    def __call__(self, warp_id: int) -> WarpTrace:
        trace = self._ready.pop(warp_id, None)
        if trace is not None:
            return trace
        if warp_id not in self._errors:
            lo = (warp_id // self.chunk) * self.chunk
            hi = min(lo + self.chunk, self.kernel.n_warps)
            candidates = [w for w in range(lo, hi)
                          if w not in self._filled and not self._have(w)]
            if warp_id not in candidates:
                candidates.append(warp_id)
            fill = self._pack.fill_full(candidates)
            self._filled.update(candidates)
            self._ready.update(fill.traces)
            self._errors.update(fill.fallback)
            trace = self._ready.pop(warp_id, None)
            if trace is not None:
                return trace
        raise self._errors[warp_id]
