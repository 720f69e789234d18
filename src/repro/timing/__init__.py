"""Cycle-approximate GPU timing model (the MGPUSim substitute)."""

from .caches import Cache, Dram, MemoryHierarchy
from .engine import DetailedEngine, EngineResult
from .fastmodel import FastModelResult, schedule_only
from .probes import BBProbe, WarpProbe, ipc_over_time
from .tracecache import TraceCache
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
    "EngineResult",
    "FastModelResult",
    "KernelResult",
    "MemoryHierarchy",
    "TraceCache",
    "WarpProbe",
    "ipc_over_time",
    "schedule_only",
    "simulate_app_detailed",
    "simulate_kernel_detailed",
]
