"""Event taxonomy for the observability bus.

Every event flowing through :class:`~repro.obs.bus.EventBus` belongs to
one :class:`EventType` — a frozen descriptor naming the event kind and
its positional field schema.  Publishers emit *positional* arguments in
field order (no per-event allocation on the hot path); sinks receive
fully materialised :class:`Event` records with a ``fields`` mapping and
a bus-assigned monotone sequence number.

Kinds are namespaced by the layer that produces them:

``engine.*``
    The detailed timing engine.  Times are in *simulated cycles*.
``executor.*``
    The functional simulator.  ``wall`` is host seconds.
``detector.*``
    Photon's online switch detectors.
``reliability.*``
    Injected disk faults and watchdog trips.
``parallel.*``
    Sweep-scheduler task telemetry.  Times are host-monotonic seconds.

``HOT_KINDS`` marks per-instruction / per-block kinds that fire at
simulation frequency; attaching a sink to them is an explicit opt-in
(the CLI's ``--trace``), while :data:`CORE_KINDS` is the cheap
always-safe summary set used for default run accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class EventType:
    """One kind of observable event and its positional field schema."""

    name: str
    fields: Tuple[str, ...]
    doc: str = ""

    def record(self, seq: int, args: Tuple) -> "Event":
        """Materialise an :class:`Event` from positional publish args."""
        return Event(kind=self.name, seq=seq,
                     fields=dict(zip(self.fields, args)))


@dataclass(frozen=True)
class Event:
    """A materialised event as delivered to sinks."""

    kind: str
    seq: int
    fields: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-safe form (one JSONL line in the structured trace)."""
        out: Dict[str, object] = {"kind": self.kind, "seq": self.seq}
        out.update(self.fields)
        return out


# -- engine (simulated-cycle clock) ----------------------------------------

ENGINE_KERNEL = EventType(
    "engine.kernel", ("kernel", "t0", "t1", "n_insts", "stopped"),
    "One detailed-engine run, start to drain.")
ENGINE_WG_DISPATCH = EventType(
    "engine.wg_dispatch", ("wg", "cu", "t", "n_warps"),
    "A workgroup was placed onto a compute unit.")
ENGINE_WARP_DISPATCH = EventType(
    "engine.warp_dispatch", ("warp", "t"),
    "A warp was scheduled onto a CU.")
ENGINE_BB = EventType(
    "engine.bb", ("warp", "pc", "t0", "t1"),
    "A dynamic basic block ran.")
ENGINE_WARP_RETIRE = EventType(
    "engine.warp_retire", ("warp", "t0", "t1"),
    "A warp finished all instructions.")
ENGINE_BARRIER = EventType(
    "engine.barrier", ("wg", "t", "n_warps"),
    "The last warp of a workgroup arrived; the barrier released.")
ENGINE_WAITCNT = EventType(
    "engine.waitcnt", ("warp", "t"),
    "A waitcnt instruction issued (memory-dependence join point).")
ENGINE_STALL = EventType(
    "engine.stall", ("warp", "t", "cycles", "port"),
    "An instruction waited for a busy issue port.")
ENGINE_INST = EventType(
    "engine.inst", ("warp", "opclass", "t0", "t1"),
    "One dynamic instruction issued/retired (instruction-class stream).")

# -- functional executor ---------------------------------------------------

EXEC_WARP = EventType(
    "executor.warp", ("warp", "mode", "n_insts", "wall"),
    "One warp interpreted functionally (mode 'full' or 'control').")

EXEC_BATCH = EventType(
    "exec.batch",
    ("kernel", "mode", "warps", "groups", "group_sizes", "fallbacks",
     "wall"),
    "One fill of warps through the interpreter: path-group count and "
    "sizes, warps with a trace, warps isolated with a stored error.")
EXEC_BATCH_FALLBACK = EventType(
    "exec.batch_fallback", ("kernel", "mode", "warps"),
    "A fill isolated these warps: each faulted as a batch of one and "
    "its ExecutionError is raised when the warp is requested.")

# -- persistent trace store (TraceForge) -----------------------------------

TRACESTORE_HIT = EventType(
    "tracestore.hit", ("warp", "source"),
    "A warp trace was served without emulation "
    "(source 'memory' or 'store').")
TRACESTORE_MISS = EventType(
    "tracestore.miss", ("warp",),
    "A warp trace had to be functionally emulated despite a "
    "backing store.")
TRACESTORE_WRITE = EventType(
    "tracestore.write", ("bundle", "warps", "quarantined"),
    "A flush persisted newly emulated warp traces to the store.")
TRACESTORE_EVICT = EventType(
    "tracestore.evict", ("bundle", "bytes"),
    "Size-bounded eviction removed a least-recently-used bundle.")

# -- Photon detectors ------------------------------------------------------

DETECTOR_SWITCH = EventType(
    "detector.switch", ("kernel", "level", "t"),
    "A sampling detector declared stability and stopped dispatch.")
DETECTOR_ELIDED = EventType(
    "detector.elided", ("kernel", "level", "reachable", "need"),
    "A detector that provably cannot fire was not subscribed: for "
    "'bb', `reachable` is the instruction share of the blocks that can "
    "fill a window and `need` is stable_bb_rate; for 'warp', the "
    "kernel's warps and the observations a verdict needs.")

# -- reliability -----------------------------------------------------------

RELIABILITY_FAULT = EventType(
    "reliability.fault", ("site", "error", "kernel"),
    "An FsFaultPlan spec fired at a durable-write site.")
RELIABILITY_WATCHDOG = EventType(
    "reliability.watchdog", ("label", "unit", "ticks", "reason"),
    "A watchdog budget tripped (the guarded loop is about to raise).")

# -- parallel sweeps (host-monotonic clock) --------------------------------

PARALLEL_TASK = EventType(
    "parallel.task",
    ("index", "workload", "size", "method", "status", "worker",
     "t0", "t1"),
    "One executed sweep task (mirrors TaskTelemetry).")

# -- serving front end (PhotonServe) ---------------------------------------

SERVE_REQUEST = EventType(
    "serve.request",
    ("req", "tenant", "op", "key", "status", "cache", "wall"),
    "One served request completed: HTTP status, cache disposition "
    "('hit', 'dedup', 'miss', or '' for non-simulation ops) and host "
    "wall seconds.")
SERVE_DEDUP = EventType(
    "serve.dedup", ("key", "waiters"),
    "A request attached to an identical in-flight execution instead "
    "of starting its own (single-flight coalescing).")
SERVE_QUEUE = EventType(
    "serve.queue", ("key", "action", "depth"),
    "Admission-queue transition for one request key: 'enqueue' "
    "(waiting for an execution slot), 'start' (slot acquired), "
    "'done', 'reject' (backpressure 429), or 'drain' (journaled "
    "during shutdown).")

# -- crash-safe sweep journal (DuraSweep) ----------------------------------

SWEEP_JOURNAL = EventType(
    "sweep.journal", ("record", "index", "bytes"),
    "One record was appended (and fsync'd) to the write-ahead sweep "
    "journal; `index` is the task index, or -1 for run-level records.")
SWEEP_RESUME = EventType(
    "sweep.resume", ("path", "replayed", "rerun", "quarantined"),
    "A sweep resumed from a journal: `replayed` completed tasks came "
    "straight from the journal, `rerun` missing/failed tasks were "
    "re-planned, `quarantined` torn tail lines were set aside.")

# -- multi-host fleets (FleetSweep) ----------------------------------------

SWEEP_FLEET = EventType(
    "sweep.fleet", ("host", "action", "index", "detail"),
    "Fleet lease-protocol transition on one host: 'claim' (fresh "
    "lease, detail = generation), 'steal' (claimed over an expired "
    "lease), 'done'/'failed' (task executed and journaled), or "
    "'merge' (coordinator folded all hosts; index -1, detail = host "
    "count).")

#: every event type, by name
ALL_TYPES: Dict[str, EventType] = {
    t.name: t
    for t in (
        ENGINE_KERNEL, ENGINE_WG_DISPATCH, ENGINE_WARP_DISPATCH,
        ENGINE_BB, ENGINE_WARP_RETIRE, ENGINE_BARRIER, ENGINE_WAITCNT,
        ENGINE_STALL, ENGINE_INST, EXEC_WARP, EXEC_BATCH,
        EXEC_BATCH_FALLBACK, TRACESTORE_HIT, TRACESTORE_MISS,
        TRACESTORE_WRITE, TRACESTORE_EVICT, DETECTOR_SWITCH,
        DETECTOR_ELIDED, RELIABILITY_FAULT, RELIABILITY_WATCHDOG,
        PARALLEL_TASK, SWEEP_JOURNAL, SWEEP_RESUME, SWEEP_FLEET,
        SERVE_REQUEST, SERVE_DEDUP, SERVE_QUEUE,
    )
}

#: kinds that fire at simulation frequency (per instruction / block /
#: warp) — sink attachment here is an explicit opt-in (``--trace``)
HOT_KINDS = frozenset((
    ENGINE_INST.name, ENGINE_STALL.name, ENGINE_WAITCNT.name,
    ENGINE_BB.name, ENGINE_WARP_DISPATCH.name, ENGINE_WARP_RETIRE.name,
    ENGINE_WG_DISPATCH.name, ENGINE_BARRIER.name, EXEC_WARP.name,
    TRACESTORE_HIT.name, TRACESTORE_MISS.name,
))

#: cheap summary kinds safe to count on every run
CORE_KINDS = tuple(
    t.name for t in (
        ENGINE_KERNEL, EXEC_BATCH, EXEC_BATCH_FALLBACK,
        TRACESTORE_WRITE, TRACESTORE_EVICT, DETECTOR_SWITCH,
        DETECTOR_ELIDED, RELIABILITY_FAULT, RELIABILITY_WATCHDOG,
        PARALLEL_TASK, SWEEP_JOURNAL, SWEEP_RESUME, SWEEP_FLEET,
        SERVE_REQUEST, SERVE_DEDUP, SERVE_QUEUE,
    )
)
