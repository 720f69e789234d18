"""Self-contained sweep shards and the pure worker function.

A :class:`SweepTask` names everything one evaluation cell-method needs —
workload, problem size, method, GPU preset, data seed, Photon/PKA
configuration and watchdog budgets — as plain values, so
a task can be pickled to a pool worker, serialized to JSON for audit,
or executed inline: :func:`run_task` is the single code path for all
three.  The baseline run of a cell is itself a task (``method="full"``),
which keeps shards independent: no task ever waits on another's output.

:func:`run_task` is :func:`repro.harness.runner.evaluate` — the step
``repro run`` and ``repro app`` go through — plus what crossing a
process needs: names resolved to a factory and a GPU, the staged trace
cache, and the :class:`~repro.harness.metrics.Evaluation` packed into a
:class:`TaskOutcome`, a JSON-safe record carrying either the simulated
result or the failure that prevented one, tagged with the stage it
occurred in (``build`` vs ``run``).  What a worker learns that outlives
the task — traces and Photon's online analyses — goes to the staged
trace store, not into the outcome.
"""

from __future__ import annotations

import dataclasses
import os
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.config import PhotonConfig
from ..baselines.pka import PkaConfig
from ..harness.defaults import EVAL_PHOTON, resolve_gpu
from ..harness.metrics import Evaluation
from ..harness.runner import FULL_METHOD, evaluate, workload_factory
from ..reliability.watchdog import WatchdogConfig
from ..timing.simulator import KernelResult
from ..timing.tracecache import TraceCache
from ..tracestore import TraceStore


def _known(cls, data: Dict[str, object]) -> Dict[str, object]:
    """``data`` without the keys ``cls`` (a dataclass) has no field for.

    Journals and fleet manifests outlive fields: a retired one (a
    task's ``retry`` block, an outcome's ``attempts``, a PhotonConfig
    switch, a WatchdogConfig knob) is dropped on read instead of failing
    the resume."""
    known = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in data.items() if k in known}


@dataclass(frozen=True)
class SweepTask:
    """One (workload, size, method) shard of an evaluation sweep."""

    index: int          # position in the deterministic sweep plan
    workload: str
    size: int           # problem size in warps
    method: str         # FULL_METHOD or any harness method name
    gpu: str = "r9nano"  # preset name, resolved in the worker
    seed: Optional[int] = None  # workload data seed (None = default)
    photon: PhotonConfig = EVAL_PHOTON
    pka: Optional[PkaConfig] = None
    watchdog: Optional[WatchdogConfig] = None
    # persistent warp-trace store root (None = execution-driven).  The
    # worker reads the canonical bundles and stages its own writes under
    # staging/task-<index>; the scheduler merges them in task order.
    trace_store: Optional[str] = None

    @property
    def cell(self) -> Tuple[str, int]:
        """The evaluation cell this task belongs to."""
        return (self.workload, self.size)

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepTask":
        """Rebuild a task; keys of retired fields are ignored."""
        return cls(
            index=int(data["index"]),
            workload=str(data["workload"]),
            size=int(data["size"]),
            method=str(data["method"]),
            gpu=str(data.get("gpu", "r9nano")),
            seed=(int(data["seed"]) if data.get("seed") is not None
                  else None),
            photon=PhotonConfig(**_known(PhotonConfig, data["photon"])),
            pka=(PkaConfig(**data["pka"])
                 if data.get("pka") is not None else None),
            watchdog=(WatchdogConfig(**_known(WatchdogConfig,
                                              data["watchdog"]))
                      if data.get("watchdog") is not None else None),
            trace_store=(str(data["trace_store"])
                         if data.get("trace_store") is not None else None),
        )


@dataclass
class TaskOutcome:
    """Serializable product of one executed :class:`SweepTask`."""

    index: int
    workload: str
    size: int
    method: str
    status: str = "ok"    # "ok" | "error"
    stage: str = "run"    # "build" (workload construction) | "run"
                          # | "pool" (synthesized: worker pool crashed)
    error_class: str = ""
    error: str = ""
    # simulated result (valid when status == "ok")
    sim_time: float = 0.0
    wall_seconds: float = 0.0
    n_insts: int = 0
    detail_insts: int = 0
    mode: str = ""
    # always empty (no result degrades); PhotonBench reads it and
    # journals and serve responses carry it, so only a ``benchmark``
    # change may retire it
    fallbacks: List[dict] = field(default_factory=list)
    # trace-cache traffic of this task (zero without a trace store);
    # counters live on the worker's private bus, so the numbers ride
    # back here for the parent's --json summary
    trace_hits: int = 0        # served from the in-memory cache
    trace_store_hits: int = 0  # replayed from the backing store
    trace_misses: int = 0      # functionally emulated
    trace_writes: int = 0      # newly persisted warps (flush)
    # telemetry raw material
    worker: int = 0
    started: float = 0.0   # time.monotonic() at worker pickup
    task_wall: float = 0.0
    # fleet provenance ("" / False outside multi-host mode)
    host: str = ""         # fleet host id that executed this task
    stolen: bool = False   # True = claimed over another host's expired lease

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_kernel_result(self) -> KernelResult:
        """Rebuild the result object this outcome transported."""
        return KernelResult(
            kernel_name=f"{self.workload}-{self.size}",
            sim_time=self.sim_time,
            wall_seconds=self.wall_seconds,
            n_insts=self.n_insts,
            mode=self.mode,
            detail_insts=self.detail_insts,
        )

    def evaluation(self) -> Evaluation:
        """This outcome as the evaluate step's product (what
        :func:`~repro.harness.metrics.cell_rows` builds rows from)."""
        return Evaluation(self.method,
                          self.to_kernel_result() if self.ok else None,
                          self.error_class, self.error, self.stage)

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TaskOutcome":
        """Rebuild an outcome; keys of retired fields are ignored."""
        return cls(**_known(cls, data))


def run_task(task: SweepTask,
             stage_dir: Optional[str] = None) -> TaskOutcome:
    """Execute one sweep shard; never raises for in-sweep failures.

    Workload-construction errors come back as ``stage="build"``
    outcomes, simulation errors as ``stage="run"`` — both carry the
    exception class and one-line message.  An *unknown method or GPU
    name* does raise (:class:`~repro.errors.WorkloadError` /
    :class:`~repro.errors.ConfigError`): a typo is a caller bug, not a
    sweep casualty.

    ``stage_dir`` overrides where trace-store writes are staged: the
    default is the store's own ``staging/task-<index>`` (single-host
    sweeps); fleet workers pass ``<fleet>/staging/<host>/task-<index>``
    so hosts never write into each other's staging directories.
    """
    started = _time.monotonic()
    t0 = _time.perf_counter()
    gpu = resolve_gpu(task.gpu)
    kwargs = {} if task.seed is None else {"seed": task.seed}

    cache = None
    if task.trace_store is not None:
        if stage_dir is not None:
            staged = TraceStore(task.trace_store, write_root=stage_dir)
        else:
            staged = TraceStore(task.trace_store).stage(task.index)
        cache = TraceCache(backing_store=staged)

    ev = evaluate(
        lambda: workload_factory(task.workload, task.size, **kwargs)(),
        task.method, gpu, task.photon, task.pka, task.watchdog,
        trace_cache=cache)

    out = TaskOutcome(index=task.index, workload=task.workload,
                      size=task.size, method=task.method,
                      worker=os.getpid(), started=started)
    if cache is not None:
        # persist even a failed run's traces: they are deterministic, so
        # anything emulated is worth sharing with later tasks
        out.trace_writes = cache.flush()
        out.trace_hits = cache.hits
        out.trace_store_hits = cache.store_hits
        out.trace_misses = cache.misses
    if ev.ok:
        result = ev.result
        out.sim_time = result.sim_time
        out.wall_seconds = result.wall_seconds
        out.n_insts = result.n_insts
        out.detail_insts = result.detail_insts
        out.mode = result.mode
    else:
        out.status, out.stage = "error", ev.stage
        out.error_class, out.error = ev.error_class, ev.error
    out.task_wall = _time.perf_counter() - t0
    return out
