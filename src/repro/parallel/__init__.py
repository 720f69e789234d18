"""ParSweep: the parallel evaluation subsystem.

Reproducing the paper's figures is embarrassingly parallel work — every
(workload × size × method) cell is independent — yet ``repro run`` runs
them one at a time.  This package decomposes an evaluation into
self-contained :class:`SweepTask` shards, schedules them over
``multiprocessing`` workers with a bounded work queue and per-task
watchdog budgets, transports results back as serializable payloads,
folds the workers' staged trace-store writes (traces and online
analyses) in task order, and reports structured run telemetry.

Parallelism is a pure speed knob: every task goes through the evaluate
step ``repro run`` uses (:func:`repro.harness.runner.evaluate`) and every
row through the same builder, so serial and parallel runs of the same
plan produce identical simulated results (see ``docs/parallel.md`` for
the determinism contract and the task model).

Sweeps are also crash-safe: ``run_sweep(..., run_dir=D)`` journals the
plan and every outcome to a fsync'd write-ahead log, and
:func:`resume_sweep` restarts a killed run with the completed tasks
replayed — the merged result is bitwise-identical to an uninterrupted
run (``docs/durability.md``).

Past one host, :mod:`repro.parallel.fleet` coordinates N machines over
a shared directory: workers pull tasks from a lease-based queue
(expired leases are stolen), journal to per-host WALs, and
:func:`fleet_coordinate` merges everything into the same
bitwise-identical result (``docs/parallel.md``, "Multi-host fleets").

Typical use::

    from repro.parallel import plan_sweep, run_sweep

    tasks = plan_sweep(["relu", "fir"], sizes=(2048,),
                       methods=("pka", "photon"))
    result = run_sweep(tasks, jobs=4)
    print(comparison_table(result.rows))
    print(result.report.summary())
"""

from .fleet import (
    FleetWorker,
    FleetWorkerReport,
    fleet_coordinate,
    fleet_init,
    fleet_worker,
    load_manifest,
)
from .journal import (
    JOURNAL_NAME,
    JournalScan,
    SweepJournal,
    scan_journal,
)
from .scheduler import (
    SweepResult,
    plan_sweep,
    resume_sweep,
    rows_from_outcomes,
    run_sweep,
)
from ..harness.runner import FULL_METHOD
from .tasks import SweepTask, TaskOutcome, run_task
from .telemetry import RunReport, TaskTelemetry
from .tier import ExecutionTier

__all__ = [
    "ExecutionTier",
    "FULL_METHOD",
    "FleetWorker",
    "FleetWorkerReport",
    "JOURNAL_NAME",
    "JournalScan",
    "RunReport",
    "SweepJournal",
    "SweepResult",
    "SweepTask",
    "TaskOutcome",
    "TaskTelemetry",
    "fleet_coordinate",
    "fleet_init",
    "fleet_worker",
    "load_manifest",
    "plan_sweep",
    "resume_sweep",
    "rows_from_outcomes",
    "run_sweep",
    "run_task",
    "scan_journal",
]
