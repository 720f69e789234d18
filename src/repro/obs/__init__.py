"""SimScope: the unified observability layer (``repro.obs``).

One typed event bus + metrics registry is how the stack is watched:
engine observers, reliability events and
:class:`~repro.parallel.TaskTelemetry` all travel over it.  Every
layer emits through the bus:

* the detailed engine publishes kernel/warp/basic-block spans plus
  dispatch, barrier, waitcnt, stall and instruction-class events —
  with a zero-allocation no-op path when nothing is attached;
* the functional executor publishes per-warp interpretation events;
* Photon's detectors publish switch decisions; they, the baselines'
  monitors and the probes are themselves bus subscribers, registered
  per run through :meth:`DetailedEngine.subscribe
  <repro.timing.engine.DetailedEngine.subscribe>`;
* the reliability layer emits injected disk faults and watchdog
  trips; the sweep scheduler re-emits task telemetry — so one
  trace interleaves all of them.

Sinks are pluggable: :class:`MemorySink` (tests), :class:`CountingSink`
(run accounting), :class:`JsonlSink` (structured trace), and
:class:`ChromeTraceSink` (``chrome://tracing`` / Perfetto timelines).
See ``docs/observability.md`` for the event taxonomy and the overhead
budget.

Typical use::

    from repro import obs

    bus = obs.current_bus()
    sink = obs.MemorySink()
    bus.add_sink(sink)                  # or kinds=obs.CORE_KINDS
    ...run any simulation...
    bus.remove_sink(sink)
    print(sink.kinds())
"""

from .bus import (
    Channel,
    EventBus,
    Sink,
    current_bus,
    scoped_bus,
    set_default_bus,
)
from .chrome import to_chrome_trace
from .events import (
    ALL_TYPES,
    CORE_KINDS,
    DETECTOR_ELIDED,
    DETECTOR_SWITCH,
    ENGINE_BARRIER,
    ENGINE_BB,
    ENGINE_INST,
    ENGINE_KERNEL,
    ENGINE_STALL,
    ENGINE_WAITCNT,
    ENGINE_WARP_DISPATCH,
    ENGINE_WARP_RETIRE,
    ENGINE_WG_DISPATCH,
    EXEC_BATCH,
    EXEC_BATCH_FALLBACK,
    EXEC_WARP,
    Event,
    EventType,
    HOT_KINDS,
    PARALLEL_TASK,
    RELIABILITY_FAULT,
    RELIABILITY_WATCHDOG,
    SERVE_DEDUP,
    SERVE_QUEUE,
    SERVE_REQUEST,
    SWEEP_FLEET,
    SWEEP_JOURNAL,
    SWEEP_RESUME,
    TRACESTORE_EVICT,
    TRACESTORE_HIT,
    TRACESTORE_MISS,
    TRACESTORE_WRITE,
)
from .metrics import Counter, MetricsRegistry, Timer
from .sinks import (
    ChromeTraceSink,
    CountingSink,
    JsonlSink,
    MemorySink,
    open_trace,
    sink_for_path,
)

__all__ = [
    "ALL_TYPES",
    "CORE_KINDS",
    "Channel",
    "ChromeTraceSink",
    "Counter",
    "CountingSink",
    "DETECTOR_ELIDED",
    "DETECTOR_SWITCH",
    "ENGINE_BARRIER",
    "ENGINE_BB",
    "ENGINE_INST",
    "ENGINE_KERNEL",
    "ENGINE_STALL",
    "ENGINE_WAITCNT",
    "ENGINE_WARP_DISPATCH",
    "ENGINE_WARP_RETIRE",
    "ENGINE_WG_DISPATCH",
    "EXEC_BATCH",
    "EXEC_BATCH_FALLBACK",
    "EXEC_WARP",
    "Event",
    "EventBus",
    "EventType",
    "HOT_KINDS",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "PARALLEL_TASK",
    "RELIABILITY_FAULT",
    "RELIABILITY_WATCHDOG",
    "SERVE_DEDUP",
    "SERVE_QUEUE",
    "SERVE_REQUEST",
    "SWEEP_FLEET",
    "SWEEP_JOURNAL",
    "SWEEP_RESUME",
    "Sink",
    "TRACESTORE_EVICT",
    "TRACESTORE_HIT",
    "TRACESTORE_MISS",
    "TRACESTORE_WRITE",
    "Timer",
    "current_bus",
    "open_trace",
    "scoped_bus",
    "set_default_bus",
    "sink_for_path",
    "to_chrome_trace",
]
