"""Trace-driven front end: cached functional traces.

The paper classifies GPU simulators into execution-driven (MGPUSim,
GPGPU-Sim) and trace-driven (MacSim), with Accel-Sim/NVArchSim
supporting both.  Our engine is execution-driven by default — each warp
is functionally emulated at dispatch — but repeated timing runs of the
same kernel (design-space sweeps, ablations, repeated benches) re-pay
that cost every time.

:class:`TraceCache` memoises FULL-mode warp traces per (program
fingerprint, grid, warp), turning the engine into a trace-driven
simulator on second and later runs.  Traces are microarchitecture
independent (they contain opcode classes, dependencies and line
addresses — no timing), so a cache can be safely shared across GPU
configurations; this is the same observation that makes Photon's
offline analysis reusable (§6.3).

With a ``backing_store`` (:class:`~repro.tracestore.TraceStore`) the
cache survives the process: misses first consult the store's bundle
for the kernel, and freshly emulated traces are queued for
:meth:`TraceCache.flush` so the *next* process warm-starts.  Hit/miss
traffic is published on the obs bus (``tracestore.hit`` /
``tracestore.miss``, hot kinds) and counted in the bus metrics
(``tracestore.*`` counters) so ``--metrics`` reports warm-start
effectiveness.

A process-wide *default* cache mirrors the default-bus pattern:
:func:`scoped_trace_cache` installs a cache that every
:class:`~repro.timing.engine.DetailedEngine` constructed without an
explicit ``trace_provider`` consults — which is how ``--trace-store``
reaches Photon's and the baselines' internal engines without threading
a parameter through every call site.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional, Tuple

from ..functional.batch import DEFAULT_CHUNK, PackProvider
from ..functional.executor import FunctionalExecutor
from ..functional.kernel import Kernel
from ..functional.trace import WarpTrace


class TraceCache:
    """Memoises functional warp traces across engine runs.

    Parameters
    ----------
    max_traces:
        In-memory entry cap (store-bound writes are not capped).
    backing_store:
        Optional :class:`~repro.tracestore.TraceStore`.  When present,
        in-memory keys switch from the fast process-local program
        fingerprint to the store's stable content key, which also
        covers the input data — so two same-program launches with
        different inputs never alias.
    batch_chunk:
        Misses are filled through a
        :class:`~repro.functional.batch.PackProvider` in chunks of this
        many consecutive warps (cold-run speedup; chunking bounds
        wasted work when a detector stops the engine early).  Warps
        already cached in memory or available in the backing store are
        never re-emulated by a fill.
    """

    def __init__(self, max_traces: int = 1 << 20, backing_store=None,
                 batch_chunk: int = DEFAULT_CHUNK):
        self._traces: Dict[Tuple, WarpTrace] = {}
        self._executors: Dict[Tuple, FunctionalExecutor] = {}
        self.max_traces = max_traces
        self.backing_store = backing_store
        self.batch_chunk = max(1, int(batch_chunk))
        self._views: Dict[Tuple, object] = {}       # kernel key -> KernelTraces
        self._pending: Dict[Tuple, Tuple[Kernel, Dict[int, WarpTrace]]] = {}
        self.hits = 0          # in-memory hits
        self.store_hits = 0    # served from the backing store
        self.misses = 0        # functionally emulated

    def _kernel_key(self, kernel: Kernel) -> Tuple:
        if self.backing_store is not None:
            key = self.backing_store.key_for(kernel)
            return (key.program, key.data, key.n_warps, key.wg_size,
                    key.warp_size)
        return (kernel.program.fingerprint, kernel.n_warps, kernel.wg_size)

    def provider(self, kernel: Kernel):
        """A ``trace_provider`` for :class:`DetailedEngine`.

        Usage::

            cache = TraceCache()
            engine = DetailedEngine(kernel, gpu,
                                    trace_provider=cache.provider(kernel))
        """
        from ..obs import (TRACESTORE_HIT, TRACESTORE_MISS, current_bus)

        kernel_key = self._kernel_key(kernel)
        executor = self._executors.get(kernel_key)
        if executor is None:
            executor = FunctionalExecutor(kernel)
            self._executors[kernel_key] = executor

        store = self.backing_store
        view = None
        pending: Optional[Dict[int, WarpTrace]] = None
        if store is not None:
            view = self._views.get(kernel_key)
            if view is None:
                from ..tracestore import TraceKey

                key = TraceKey(program=kernel_key[0], data=kernel_key[1],
                               n_warps=kernel_key[2], wg_size=kernel_key[3],
                               warp_size=kernel_key[4])
                view = store.open_kernel(kernel, key=key)
                self._views[kernel_key] = view
            entry = self._pending.get(kernel_key)
            if entry is None:
                entry = self._pending[kernel_key] = (kernel, {})
            pending = entry[1]

        bus = current_bus()
        metrics = bus.metrics
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
            kernel, chunk=self.batch_chunk, executor=executor,
            have=lambda w: (kernel_key + (w,) in self._traces
                            or (view is not None and view.has(w))))

        def provide(warp_id: int) -> WarpTrace:
            key = kernel_key + (warp_id,)
            trace = self._traces.get(key)
            if trace is not None:
                self.hits += 1
                c_hit.inc()
                if hit_channel.subscribers:
                    hit_channel.publish(warp_id, "memory")
                return trace
            if view is not None:
                trace = view.get(warp_id)
                if trace is not None:
                    self.store_hits += 1
                    c_store_hit.inc()
                    if hit_channel.subscribers:
                        hit_channel.publish(warp_id, "store")
                    if len(self._traces) < self.max_traces:
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
            if len(self._traces) < self.max_traces:
                self._traces[key] = trace
            if pending is not None:
                pending[warp_id] = trace
            return trace

        return provide

    def flush(self) -> int:
        """Persist queued misses to the backing store; returns warps written.

        A no-op without a backing store.  Emits one ``tracestore.write``
        event per touched bundle and bumps the ``tracestore.writes``
        counter with the number of newly persisted warps.
        """
        if self.backing_store is None or not self._pending:
            self._pending.clear()
            return 0
        from ..obs import TRACESTORE_WRITE, current_bus

        bus = current_bus()
        write_channel = bus.channel(TRACESTORE_WRITE)
        written = 0
        for kernel_key, (kernel, traces) in sorted(self._pending.items()):
            if not traces:
                continue
            from ..tracestore import TraceKey

            key = TraceKey(program=kernel_key[0], data=kernel_key[1],
                           n_warps=kernel_key[2], wg_size=kernel_key[3],
                           warp_size=kernel_key[4])
            added = self.backing_store.put_kernel(kernel, traces, key=key)
            written += added
            if write_channel.subscribers:
                write_channel.publish(key.bundle_name, added,
                                      self.backing_store.quarantined)
        if written:
            bus.metrics.counter("tracestore.writes").inc(written)
        self._pending.clear()
        return written

    def __len__(self) -> int:
        return len(self._traces)

    def clear(self) -> None:
        """Drop all cached traces (keeps counters)."""
        self._traces.clear()
        self._executors.clear()
        self._views.clear()
        self._pending.clear()


# -- process-wide default cache (mirrors the obs default-bus pattern) ------

_default_cache: Optional[TraceCache] = None


def current_trace_cache() -> Optional[TraceCache]:
    """The cache engines consult when built without a ``trace_provider``."""
    return _default_cache


def set_default_trace_cache(
        cache: Optional[TraceCache]) -> Optional[TraceCache]:
    """Install ``cache`` as the process default; returns the previous one."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


@contextmanager
def scoped_trace_cache(cache: Optional[TraceCache]):
    """Temporarily install ``cache`` as the default trace cache."""
    previous = set_default_trace_cache(cache)
    try:
        yield cache
    finally:
        set_default_trace_cache(previous)
