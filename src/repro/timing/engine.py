"""Event-driven detailed timing engine (the "detailed mode" simulator).

The engine replays per-warp functional traces against the machine model:
workgroups are dispatched to compute units as slots free up; each CU
issues instructions in order per warp through per-SIMD and scalar issue
ports; memory operations traverse the cache hierarchy; ``s_barrier``
synchronises workgroups; dependencies stall the per-warp in-order stream.
This module is the engine's interface — construction, listeners,
stop/abort, the result; the one loop behind :meth:`DetailedEngine.run`
is :mod:`repro.timing.batch`.

All instrumentation flows through the :mod:`repro.obs` event bus: the
engine publishes workgroup-dispatch, warp-dispatch, basic-block,
barrier, waitcnt, issue-port-stall, instruction-class and kernel-span
events on its bus.  When no subscriber is attached to a kind, the
corresponding publish is a single falsy-list check — the hot loop pays
nothing by default and allocates no event objects.

Sampling methodologies still hook in through :class:`EngineListener`:
:meth:`DetailedEngine.attach` subscribes a listener's overridden hooks
to the bus for the duration of :meth:`DetailedEngine.run` (the
compatibility shim).  Listeners observe warp dispatch/retire and
basic-block completion events and may call
:meth:`DetailedEngine.request_stop` to halt dispatch of further
workgroups — the engine then drains resident warps and reports the state
needed to continue with a fast model (undispatched warps, per-CU slot
release times).

Attach-order contract: listeners (and any direct bus subscribers) are
delivered every event in subscription order, and :meth:`attach`
subscribes hooks in attach order — so two listeners attached to the
same engine observe byte-identical event sequences, and a listener
attached first always sees an event before one attached later.
Attaching the same listener twice is a :class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..config.gpu_configs import GpuConfig
from ..errors import ConfigError
from ..functional.kernel import Kernel
from ..functional.trace import WarpTrace
from ..obs import (
    ENGINE_BB,
    ENGINE_WARP_DISPATCH,
    ENGINE_WARP_RETIRE,
    EventBus,
    current_bus,
)
from ..reliability.watchdog import WatchdogConfig
from .caches import MemoryHierarchy

TraceProvider = Callable[[int], WarpTrace]


class EngineListener:
    """Observer interface for sampling methodologies.  All hooks no-op.

    Listeners are legacy-compatible bus subscribers: when attached, each
    hook a subclass actually overrides is subscribed to the matching
    :mod:`repro.obs` channel (``engine.warp_dispatch``, ``engine.bb``,
    ``engine.warp_retire``) for the duration of the run.  Hooks left as
    the base no-ops are never subscribed, so they cost nothing.
    """

    def bind(self, engine: "DetailedEngine") -> None:
        """Called when attached; gives access to :meth:`request_stop`."""

    def on_warp_dispatched(self, warp_id: int, time: float) -> None:
        """A warp was scheduled onto a CU at ``time``."""

    def on_bb_complete(self, warp_id: int, bb_pc: int, start: float,
                       end: float) -> None:
        """A dynamic basic block ran from ``start`` to ``end``."""

    def on_warp_retired(self, warp_id: int, dispatch: float,
                        retire: float) -> None:
        """A warp finished all its instructions."""


class EngineResult:
    """Outcome of one (possibly stopped-early) detailed engine run."""

    def __init__(self) -> None:
        self.end_time: float = 0.0
        self.n_insts: int = 0
        self.warp_times: Dict[int, Tuple[float, float]] = {}
        self.ipc_series: Optional[List[int]] = None
        self.ipc_bucket: Optional[float] = None
        self.latency_table: Dict[int, float] = {}
        self.undispatched: List[int] = []
        self.cu_slot_free: Dict[int, List[float]] = {}
        self.stopped: bool = False
        self.stop_time: float = 0.0
        self.mem_stats: Dict[str, int] = {}

    @property
    def n_warps_detailed(self) -> int:
        return len(self.warp_times)

    def ipc(self) -> float:
        """Mean IPC over the detailed portion."""
        if self.end_time <= 0:
            return 0.0
        return self.n_insts / self.end_time


class DetailedEngine:
    """Runs one kernel in detailed mode (optionally stopping early)."""

    def __init__(
        self,
        kernel: Kernel,
        config: GpuConfig,
        hierarchy: Optional[MemoryHierarchy] = None,
        trace_provider: Optional[TraceProvider] = None,
        ipc_bucket: Optional[float] = None,
        collect_latency: bool = False,
        start_time: float = 0.0,
        watchdog: Optional[WatchdogConfig] = None,
        bus: Optional[EventBus] = None,
    ):
        if kernel.wg_size > config.max_warps_per_cu:
            raise ConfigError(
                f"workgroup of {kernel.wg_size} warps exceeds CU capacity "
                f"{config.max_warps_per_cu}"
            )
        self.kernel = kernel
        self.config = config
        self.hierarchy = hierarchy or MemoryHierarchy(config)
        if trace_provider is None:
            from .tracecache import current_trace_cache

            cache = current_trace_cache()
            if cache is not None:
                # a scoped/default TraceCache (possibly store-backed via
                # --trace-store) serves traces without re-emulation
                trace_provider = cache.provider(kernel)
            else:
                from ..functional.batch import PackProvider

                trace_provider = PackProvider(kernel)
        self.trace_provider = trace_provider
        self.ipc_bucket = ipc_bucket
        self.collect_latency = collect_latency
        self.start_time = start_time
        self.watchdog = watchdog
        self.bus = bus if bus is not None else current_bus()
        self._listeners: List[EngineListener] = []
        self._stop_requested = False
        self._abort_requested = False
        self._result: Optional[EngineResult] = None
        self._resident: set = set()
        self._now: float = start_time
        self._wg_queue: List[Tuple[int, List[int]]] = []
        self._wg_next = 0

    def attach(self, listener: EngineListener) -> None:
        """Attach a sampling listener before :meth:`run`.

        ``bind`` is called exactly once, here; during :meth:`run` the
        listener's overridden hooks are subscribed to the engine's bus
        in attach order, which fixes event-delivery order: listeners
        attached earlier see every event before listeners attached
        later.  Attaching the same listener twice raises
        :class:`~repro.errors.ConfigError` (it would double-deliver
        every event).
        """
        if any(existing is listener for existing in self._listeners):
            raise ConfigError(
                f"listener {listener!r} is already attached")
        listener.bind(self)
        self._listeners.append(listener)

    def _shim_subscriptions(self) -> List[Tuple[object, Callable]]:
        """(event type, handler) pairs for every overridden hook, in
        attach order — the EngineListener compatibility shim."""
        base = EngineListener
        subs: List[Tuple[object, Callable]] = []
        for listener in self._listeners:
            cls = type(listener)
            if cls.on_warp_dispatched is not base.on_warp_dispatched:
                subs.append((ENGINE_WARP_DISPATCH,
                             listener.on_warp_dispatched))
            if cls.on_bb_complete is not base.on_bb_complete:
                subs.append((ENGINE_BB, listener.on_bb_complete))
            if cls.on_warp_retired is not base.on_warp_retired:
                subs.append((ENGINE_WARP_RETIRE, listener.on_warp_retired))
        return subs

    def request_stop(self) -> None:
        """Stop dispatching further workgroups (resident warps drain).

        Snapshot taken immediately: the still-resident warps' retire times
        seed the fast-model continuation, and the not-yet-dispatched warps
        are reported in ``result.undispatched``.
        """
        if self._stop_requested:
            return
        self._stop_requested = True
        result = self._result
        if result is None:
            return
        result.stopped = True
        result.stop_time = self._now
        for run in self._resident:
            run.in_stop_snapshot = True
        result.undispatched = [
            warp_id
            for wg in range(self._wg_next, len(self._wg_queue))
            for warp_id in self._wg_queue[wg][1]
        ]

    def request_abort(self) -> None:
        """Terminate the run immediately (resident warps are discarded).

        Used by extrapolating methodologies (e.g. PKA) that need no drain:
        once a stable IPC is observed, the remaining simulation adds no
        information.  Implies :meth:`request_stop`.
        """
        self.request_stop()
        self._abort_requested = True

    @property
    def now(self) -> float:
        """Current simulated time (valid while :meth:`run` executes)."""
        return self._now

    def run(self) -> EngineResult:
        """Run the kernel; returns the (possibly stopped-early) result.

        Legacy listeners are subscribed to the engine's bus for the
        duration of the run (the :class:`EngineListener` shim) and
        detached afterwards, even on error.
        """
        from .batch import _BatchedRun  # imports EngineResult from here

        bus = self.bus
        shims = self._shim_subscriptions()
        for etype, fn in shims:
            bus.subscribe(etype, fn)
        try:
            with bus.metrics.span("timing"), \
                    bus.metrics.span("timing.batch"):
                return _BatchedRun(self).run()
        finally:
            for etype, fn in shims:
                bus.unsubscribe(etype, fn)
