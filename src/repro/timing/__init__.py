"""Cycle-approximate GPU timing model (the MGPUSim substitute)."""

from .caches import Cache, Dram, MemoryHierarchy
from .engine import DetailedEngine, EngineListener, EngineResult
from .fastmodel import FastModelResult, schedule_only
from .probes import BBProbe, WarpProbe, ipc_over_time
from .tracecache import (
    TraceCache,
    current_trace_cache,
    scoped_trace_cache,
    set_default_trace_cache,
)
from .simulator import (
    AppResult,
    KernelResult,
    simulate_app_detailed,
    simulate_kernel_detailed,
)

__all__ = [
    "AppResult",
    "BBProbe",
    "Cache",
    "DetailedEngine",
    "Dram",
    "EngineListener",
    "EngineResult",
    "FastModelResult",
    "KernelResult",
    "MemoryHierarchy",
    "TraceCache",
    "WarpProbe",
    "current_trace_cache",
    "ipc_over_time",
    "schedule_only",
    "scoped_trace_cache",
    "set_default_trace_cache",
    "simulate_app_detailed",
    "simulate_kernel_detailed",
]
