"""TraceForge: persistent, content-addressed warp-trace store.

Turns the in-memory :class:`~repro.timing.tracecache.TraceCache` into a
warm-startable, disk-backed trace front end: FULL-mode warp traces are
keyed by (program digest, input-data digest, grid shape, warp id) and
survive the process, so repeated benches and sweep workers replay
traces instead of re-paying functional emulation.  Traces carry no
microarchitectural state, so one store serves every GPU configuration
(Photon §6.3).  See ``docs/tracestore.md``.
"""

from .format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    TraceFormatError,
    TraceKey,
    kernel_data_digest,
    program_digest,
    trace_key,
)
from .store import KernelTraces, TraceStore

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "KernelTraces",
    "TraceFormatError",
    "TraceKey",
    "TraceStore",
    "kernel_data_digest",
    "program_digest",
    "trace_key",
]
