"""Run telemetry for (parallel) evaluation sweeps.

Every executed :class:`~repro.parallel.tasks.SweepTask` yields one
:class:`TaskTelemetry` sample — how long the task waited in the queue,
how long it ran, on which worker and how it ended.  The scheduler folds
the samples into a :class:`RunReport`: the structured, JSON-dumpable
observability record a sweep previously lacked entirely.

Wall-clock conventions: ``queue_wait`` is measured against
``time.monotonic`` stamps taken in the parent (submit) and the worker
(pickup) — on Linux both processes read the same ``CLOCK_MONOTONIC``,
so the difference is meaningful; ``task_wall`` is measured entirely
inside the worker and needs no such assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class TaskTelemetry:
    """Observability sample for one executed sweep task."""

    index: int
    workload: str
    size: int
    method: str
    worker: int = 0          # worker process id (0 = ran inline)
    queue_wait: float = 0.0  # seconds between submit and worker pickup
    task_wall: float = 0.0   # wall seconds spent inside the worker
    sim_wall: float = 0.0    # wall seconds the simulator itself reported
    status: str = "ok"       # "ok" | "error"
    error_class: str = ""    # exception class name when status == "error"
    replayed: bool = False   # True = served from a sweep journal, not run

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "workload": self.workload,
            "size": self.size,
            "method": self.method,
            "worker": self.worker,
            "queue_wait": self.queue_wait,
            "task_wall": self.task_wall,
            "sim_wall": self.sim_wall,
            "status": self.status,
            "error_class": self.error_class,
            "replayed": self.replayed,
        }


@dataclass
class RunReport:
    """Aggregated telemetry for one sweep run."""

    jobs: int
    mp_context: str = "inline"  # "inline", "fork" or "spawn"
    total_wall: float = 0.0     # end-to-end scheduler wall time
    tasks: List[TaskTelemetry] = field(default_factory=list)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def busy_seconds(self) -> float:
        """Total worker-occupied seconds across all tasks."""
        return sum(t.task_wall for t in self.tasks)

    @property
    def replayed(self) -> int:
        """Tasks served from a sweep journal instead of re-executed."""
        return sum(1 for t in self.tasks if t.replayed)

    @property
    def failed(self) -> int:
        return sum(1 for t in self.tasks if t.status != "ok")

    @property
    def max_queue_wait(self) -> float:
        return max((t.queue_wait for t in self.tasks), default=0.0)

    @property
    def mean_queue_wait(self) -> float:
        if not self.tasks:
            return 0.0
        return sum(t.queue_wait for t in self.tasks) / len(self.tasks)

    def worker_busy(self) -> Dict[int, float]:
        """Busy seconds per worker process id."""
        busy: Dict[int, float] = {}
        for t in self.tasks:
            busy[t.worker] = busy.get(t.worker, 0.0) + t.task_wall
        return busy

    def utilization(self) -> float:
        """Fraction of the worker pool's capacity that was busy."""
        if self.total_wall <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.jobs * self.total_wall))

    def to_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "mp_context": self.mp_context,
            "n_tasks": self.n_tasks,
            "total_wall": self.total_wall,
            "busy_seconds": self.busy_seconds,
            "utilization": self.utilization(),
            "replayed": self.replayed,
            "failed": self.failed,
            "mean_queue_wait": self.mean_queue_wait,
            "max_queue_wait": self.max_queue_wait,
            "worker_busy": {str(pid): busy
                            for pid, busy in self.worker_busy().items()},
            "tasks": [t.to_dict() for t in self.tasks],
        }

    def summary(self) -> str:
        """Compact human-readable digest (printed under CLI tables)."""
        lines = [
            (f"sweep: {self.n_tasks} tasks, jobs={self.jobs} "
             f"({self.mp_context}), wall {self.total_wall:.2f}s, "
             f"busy {self.busy_seconds:.2f}s, "
             f"utilization {self.utilization() * 100.0:.0f}%"),
            (f"queue wait: mean {self.mean_queue_wait:.3f}s, "
             f"max {self.max_queue_wait:.3f}s; failed {self.failed}"),
        ]
        if self.replayed:
            lines.append(
                f"resume: {self.replayed} tasks replayed from the "
                f"journal, {self.n_tasks - self.replayed} re-run")
        return "\n".join(lines)
