"""Trace-driven front end: cached functional traces.

The paper classifies GPU simulators into execution-driven (MGPUSim,
GPGPU-Sim) and trace-driven (MacSim), with Accel-Sim/NVArchSim
supporting both.  Our engine is execution-driven by default — each warp
is functionally emulated at dispatch — but repeated timing runs of the
same kernel (design-space sweeps, ablations, repeated benches) re-pay
that cost every time.

:class:`TraceCache` memoises FULL-mode warp traces per (content key,
warp), turning the engine into a trace-driven simulator on second and
later runs.  The content key (:func:`repro.tracestore.trace_key`:
program digest, input-data digest, grid) is the only key there is, in
memory and on disk, so two launches of one program over different
inputs never alias.  Traces are microarchitecture independent (they
contain opcode classes, dependencies and line addresses — no timing),
so a cache can be safely shared across GPU configurations; this is the
same observation that makes Photon's offline analysis reusable (§6.3).

With a ``backing_store`` (:class:`~repro.tracestore.TraceStore`) the
cache survives the process: misses first consult the store's bundle
for the kernel, and freshly emulated traces are queued for
:meth:`TraceCache.flush` so the *next* process warm-starts.  Hit/miss
traffic is published on the obs bus (``tracestore.hit`` /
``tracestore.miss``, hot kinds) and counted in the bus metrics
(``tracestore.*`` counters) so ``--metrics`` reports warm-start
effectiveness.

A cache is a value handed to whoever wires engines: a
:class:`~repro.timing.simulator.Methodology` holds one (``trace_cache=``)
and turns it into the ``trace_provider`` of every engine it starts —
which is how ``--trace-store`` reaches the internal engines of all ten
methods.  There is no process-wide default.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..functional.batch import PackProvider
from ..functional.executor import FunctionalExecutor
from ..functional.kernel import Kernel
from ..functional.trace import WarpTrace
from ..obs import (
    TRACESTORE_HIT,
    TRACESTORE_MISS,
    TRACESTORE_WRITE,
    EventBus,
    current_bus,
)
from ..tracestore import TraceKey, trace_key

#: in-memory entry cap of one cache (store-bound writes are not capped)
MAX_TRACES = 1 << 20


class TraceCache:
    """Memoises functional warp traces across engine runs.

    ``backing_store``, an optional :class:`~repro.tracestore.TraceStore`:
    misses consult its bundle for the kernel first, and emulated traces
    queue for :meth:`flush`.  At most :data:`MAX_TRACES` traces are held
    in memory.
    """

    def __init__(self, backing_store=None):
        self._traces: Dict[Tuple[TraceKey, int], WarpTrace] = {}
        self.backing_store = backing_store
        self._views: Dict[TraceKey, object] = {}    # -> KernelTraces
        # queued misses per kernel, with the bus of the run that
        # emulated them (their write is accounted there)
        self._pending: Dict[TraceKey, Tuple[Kernel, Dict[int, WarpTrace],
                                            EventBus]] = {}
        self.hits = 0          # in-memory hits
        self.store_hits = 0    # served from the backing store
        self.misses = 0        # functionally emulated

    def provider(self, kernel: Kernel, bus: Optional[EventBus] = None,
                 deadline: Optional[float] = None):
        """A ``trace_provider`` for :class:`DetailedEngine`, accounting
        its traffic and emulation on ``bus`` (default: the current bus;
        a :class:`~repro.timing.simulator.Methodology` passes its own,
        and its ``deadline`` instant, which every emulating fill checks).

        Usage::

            cache = TraceCache()
            engine = DetailedEngine(kernel, gpu,
                                    trace_provider=cache.provider(kernel))
        """
        bus = bus if bus is not None else current_bus()
        metrics = bus.metrics
        span = metrics.span
        store = self.backing_store
        view = None
        pending: Optional[Dict[int, WarpTrace]] = None
        # the store's reads and writes are timed here, as ``trace_io``
        # on the run's bus; the store itself knows no bus
        with span("trace_io"):
            kernel_key = trace_key(kernel)
            if store is not None:
                view = self._views.get(kernel_key)
                if view is None:
                    view = store.open_kernel(kernel, key=kernel_key)
                    self._views[kernel_key] = view
                pending = self._pending.setdefault(
                    kernel_key, (kernel, {}, bus))[1]

        c_hit = metrics.counter("tracestore.hits")
        c_store_hit = metrics.counter("tracestore.store_hits")
        c_miss = metrics.counter("tracestore.misses")
        hit_channel = bus.channel(TRACESTORE_HIT)
        miss_channel = bus.channel(TRACESTORE_MISS)

        # chunked fills of the misses; a fill skips what the cache or
        # the store can already serve, and the fills of one kernel share
        # its path memo, so a chunk whose path groups were discovered by
        # an earlier fill (or a CONTROL fast-forward — see
        # Kernel.path_memo) starts pre-partitioned
        emulate = PackProvider(
            kernel, executor=FunctionalExecutor(kernel, bus=bus,
                                                deadline=deadline),
            have=lambda w: ((kernel_key, w) in self._traces
                            or (view is not None and view.has(w))))

        def provide(warp_id: int) -> WarpTrace:
            key = (kernel_key, warp_id)
            trace = self._traces.get(key)
            if trace is not None:
                self.hits += 1
                c_hit.inc()
                if hit_channel.subscribers:
                    hit_channel.publish(warp_id, "memory")
                return trace
            if view is not None and view.has(warp_id):
                with span("trace_io"):
                    trace = view.get(warp_id)
                if trace is not None:
                    self.store_hits += 1
                    c_store_hit.inc()
                    if hit_channel.subscribers:
                        hit_channel.publish(warp_id, "store")
                    if len(self._traces) < MAX_TRACES:
                        self._traces[key] = trace
                    return trace
            # misses count at serve time, so a speculative fill of a
            # warp the engine never requests is not a miss (and a warp
            # whose emulation faulted raises here, uncounted)
            trace = emulate(warp_id)
            self.misses += 1
            c_miss.inc()
            if miss_channel.subscribers:
                miss_channel.publish(warp_id)
            if len(self._traces) < MAX_TRACES:
                self._traces[key] = trace
            if pending is not None:
                pending[warp_id] = trace
            return trace

        return provide

    def flush(self) -> int:
        """Persist queued misses to the backing store; returns warps written.

        A no-op without a backing store.  Each touched bundle emits one
        ``tracestore.write`` event and bumps the ``tracestore.writes``
        counter by its newly persisted warps, on the bus of the
        provider that emulated them.
        """
        if self.backing_store is None or not self._pending:
            self._pending.clear()
            return 0
        written = 0
        for key, (kernel, traces, bus) in sorted(self._pending.items()):
            if not traces:
                continue
            with bus.metrics.span("trace_io"):
                added = self.backing_store.put_kernel(kernel, traces,
                                                      key=key)
            written += added
            write_channel = bus.channel(TRACESTORE_WRITE)
            if write_channel.subscribers:
                write_channel.publish(key.bundle_name, added,
                                      self.backing_store.quarantined)
            if added:
                bus.metrics.counter("tracestore.writes").inc(added)
        self._pending.clear()
        return written

    def __len__(self) -> int:
        return len(self._traces)

    def clear(self) -> None:
        """Drop all cached traces (keeps counters)."""
        self._traces.clear()
        self._views.clear()
        self._pending.clear()
