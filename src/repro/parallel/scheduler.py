"""ParSweep scheduler: plan, execute, journal, and merge sweeps.

:func:`plan_sweep` decomposes an evaluation (workloads × sizes ×
methods) into an ordered list of :class:`~repro.parallel.tasks.SweepTask`
shards — each cell contributes one ``full`` baseline task followed by
one task per sampled method.  :func:`run_sweep` executes a plan either
inline (``jobs=1``, the in-caller reference path) or as a thin client
of the one pool owner, :class:`~repro.parallel.tier.ExecutionTier`: it
keeps a bounded window of tasks submitted and journals around them;
worker processes, broken pools and crash outcomes are the tier's.
Then :func:`assemble_result` — shared with the fleet coordinator —

* reassembles :class:`~repro.harness.metrics.Comparison` rows in plan
  order through the one row builder,
  :func:`~repro.harness.metrics.cell_rows` (``build`` rows and failure
  isolation included);
* deterministically merges every worker's ``AnalysisStore`` /
  ``KernelDB`` contents in task order, so the reusable warm-analysis
  state survives sharding regardless of worker scheduling;
* emits a :class:`~repro.parallel.telemetry.RunReport`.

Crash safety (DuraSweep): with ``run_dir=D`` every scheduling decision
and task outcome is appended to a write-ahead journal
(:mod:`repro.parallel.journal`) before the sweep moves on
(:func:`run_journaled`, the one journaled-run step), and
:func:`resume_sweep` restarts a killed run — completed tasks are
*replayed* from the journal, missing and failed ones re-executed, and
the merged result is bitwise-identical to an uninterrupted run (the
deterministic task-order merge is order-independent, so it cannot tell
a replayed outcome from a fresh one).  A SIGKILLed pool worker does not
poison the run either (the tier retries the tasks that were in flight
one at a time), and an exception that *escapes* a task is not an
outcome on any backend: the pool is shut down and it propagates.

Determinism contract: all simulated quantities in the produced rows
are pure functions of (workload, seed, configuration).  Serial,
parallel, and resumed runs of the same plan therefore render
byte-identical tables under ``comparison_table(rows,
deterministic=True)``; host wall times (and hence speedups) are the
only fields allowed to differ.
"""

from __future__ import annotations

import dataclasses
import itertools
import time as _time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..baselines.pka import PkaConfig
from ..core.config import PhotonConfig
from ..core.kerneldb import KernelDB, MergeStats
from ..core.persist import (
    analysis_store_from_payload,
    kernel_db_from_payload,
)
from ..core.photon import AnalysisStore
from ..errors import ConfigError, SamplingError, WorkloadError
from ..harness.defaults import EVAL_PHOTON, QUICK_SIZES, resolve_gpu
from ..harness.metrics import Comparison, cell_rows
from ..harness.runner import FULL_METHOD, check_methods, check_workloads
from ..obs import PARALLEL_TASK, SWEEP_RESUME, current_bus
from ..reliability.retry import NO_RETRY, RetryPolicy
from ..reliability.watchdog import WatchdogConfig
from ..tracestore import TraceStore
from .journal import SweepJournal
from .tasks import SweepTask, TaskOutcome, run_task
from .telemetry import RunReport, TaskTelemetry
from .tier import ExecutionTier

SizesSpec = Union[None, Sequence[int], Mapping[str, Sequence[int]]]

#: tasks kept submitted per worker: one running, one queued behind it so
#: a worker never idles waiting for the parent to notice a completion
WINDOW_PER_JOB = 2


def _sizes_for(workload: str, sizes: SizesSpec) -> Tuple[int, ...]:
    if sizes is None:
        try:
            return tuple(QUICK_SIZES[workload])
        except KeyError:
            raise WorkloadError(
                f"no default sizes for workload {workload!r}; "
                f"pass sizes explicitly") from None
    if isinstance(sizes, Mapping):
        try:
            return tuple(int(s) for s in sizes[workload])
        except KeyError:
            raise WorkloadError(
                f"sizes mapping has no entry for workload "
                f"{workload!r}") from None
    return tuple(int(s) for s in sizes)


def plan_sweep(
    workloads: Sequence[str],
    sizes: SizesSpec = None,
    methods: Sequence[str] = ("pka", "photon"),
    gpu: str = "r9nano",
    seed: Optional[int] = None,
    photon_config: Optional[PhotonConfig] = None,
    pka_config: Optional[PkaConfig] = None,
    watchdog: Optional[WatchdogConfig] = None,
    retry: Optional[RetryPolicy] = None,
    shard: Tuple[int, int] = (0, 1),
    trace_store: Optional[str] = None,
) -> List[SweepTask]:
    """Decompose an evaluation into an ordered, sharded task list.

    Sharding partitions by *cell* (workload, size), never by method, so
    every shard is self-contained: a cell's baseline and its sampled
    methods always land in the same shard.  Shard ``(i, n)`` takes the
    cells whose enumeration index is ``i`` modulo ``n``; the union of
    all shards is exactly the unsharded plan.

    Workload, method and GPU names are validated here, up front — a
    typo fails the whole plan with a one-line error instead of surfacing
    mid-sweep from inside a worker.
    """
    methods = tuple(methods)
    check_methods(methods)
    check_workloads(workloads)
    resolve_gpu(gpu)
    shard_index, shard_count = shard
    if shard_count < 1 or not 0 <= shard_index < shard_count:
        raise ConfigError(
            f"shard must be (i, n) with 0 <= i < n, got {shard!r}")
    photon_config = photon_config or EVAL_PHOTON
    retry = retry or NO_RETRY
    tasks: List[SweepTask] = []
    cell_id = 0
    for workload in workloads:
        for size in _sizes_for(workload, sizes):
            if cell_id % shard_count == shard_index:
                for method in (FULL_METHOD, *methods):
                    tasks.append(SweepTask(
                        index=len(tasks), workload=workload, size=size,
                        method=method, gpu=gpu, seed=seed,
                        photon=photon_config, pka=pka_config,
                        watchdog=watchdog, retry=retry,
                        trace_store=trace_store))
            cell_id += 1
    return tasks


@dataclass
class SweepResult:
    """Everything one sweep run produced."""

    rows: List[Comparison]
    outcomes: List[TaskOutcome]
    store: AnalysisStore          # merged warm-analysis state
    kernel_db: Optional[KernelDB]  # merged kernel records (None if none)
    report: RunReport
    store_merge: MergeStats = field(default_factory=MergeStats)
    db_merge: MergeStats = field(default_factory=MergeStats)
    # staged trace-store merge statistics (None when no task used one)
    trace_merge: Optional[Dict[str, int]] = None
    # tasks replayed from a sweep journal instead of re-executed
    replayed: int = 0

    def tracestore_totals(self) -> Dict[str, int]:
        """Sweep-wide trace-cache traffic, summed over task outcomes.

        The counters live on each worker's private bus, so the parent
        cannot read them there; tasks ship their own totals back on the
        outcome instead (all zero when no trace store was configured).
        """
        totals = {"hits": 0, "store_hits": 0, "misses": 0, "writes": 0}
        for outcome in self.outcomes:
            totals["hits"] += outcome.trace_hits
            totals["store_hits"] += outcome.trace_store_hits
            totals["misses"] += outcome.trace_misses
            totals["writes"] += outcome.trace_writes
        return totals

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe run record: rows + telemetry + merge statistics.

        Store *contents* are deliberately not embedded — persist them
        with :func:`repro.core.persist.save_analysis_store` instead.
        """
        return {
            "rows": [row.to_dict() for row in self.rows],
            "telemetry": self.report.to_dict(),
            "store_merge": self.store_merge.to_dict(),
            "db_merge": self.db_merge.to_dict(),
            "trace_merge": self.trace_merge,
            "tracestore": self.tracestore_totals(),
            "backoff_total": self.report.backoff_seconds,
            "store_entries": len(self.store),
            "kernel_records": (len(self.kernel_db)
                               if self.kernel_db is not None else 0),
            "replayed": self.replayed,
        }


def rows_from_outcomes(outcomes: Sequence[TaskOutcome]) -> List[Comparison]:
    """Reassemble comparison rows from task outcomes, in plan order.

    Splits the plan into cells — a ``full`` baseline and the sampled
    methods that follow it — and hands each to
    :func:`~repro.harness.metrics.cell_rows`, the row builder ``repro
    run`` uses too.
    """
    cells: List[List[TaskOutcome]] = []
    for outcome in sorted(outcomes, key=lambda o: o.index):
        if outcome.method == FULL_METHOD:
            cells.append([])
        elif not cells:
            raise SamplingError(
                f"malformed sweep plan: task {outcome.index} "
                f"({outcome.workload}/{outcome.size}/{outcome.method}) "
                f"starts a cell but is not a {FULL_METHOD!r} baseline")
        cells[-1].append(outcome)
    return [row for full, *sampled in cells
            for row in cell_rows(full.workload, full.size,
                                 full.evaluation(),
                                 [o.evaluation() for o in sampled])]


@dataclass
class MergedState:
    """Reusable warm-analysis state folded out of task outcomes."""

    store: AnalysisStore = field(default_factory=AnalysisStore)
    kernel_db: Optional[KernelDB] = None   # None until a payload arrives
    store_merge: MergeStats = field(default_factory=MergeStats)
    db_merge: MergeStats = field(default_factory=MergeStats)

    def fold(self, outcome: TaskOutcome) -> None:
        """Fold one outcome's store / kernel-db payloads in.

        The single per-outcome fold: :func:`merge_outcome_state` loops
        over it in task order, and a live server absorbs each finished
        request through it.
        """
        if outcome.store_payload is not None:
            part = analysis_store_from_payload(outcome.store_payload)
            self.store_merge.update(self.store.merge(part))
        if outcome.kerneldb_payload is not None:
            part_db = kernel_db_from_payload(outcome.kerneldb_payload)
            if self.kernel_db is None:
                self.kernel_db = part_db
                self.db_merge.added += len(part_db)
            else:
                self.db_merge.update(self.kernel_db.merge(part_db))


def merge_outcome_state(outcomes: Sequence[TaskOutcome]) -> MergedState:
    """Fold worker store/db payloads together, in task order.

    The fold visits outcomes sorted by task index, so the merged state
    is independent of which worker/host produced which payload when.
    """
    state = MergedState()
    for outcome in sorted(outcomes, key=lambda o: o.index):
        state.fold(outcome)
    return state


def in_caller(run=run_task):
    """A ``submit`` that runs the task right here, in the caller: the
    inline backend of :func:`run_journaled`.  Same shape as
    :meth:`ExecutionTier.submit`, but the future comes back resolved and
    whatever ``run`` raises propagates at once."""
    def submit(task: SweepTask) -> Future:
        future: Future = Future()
        future.set_result(run(task))
        return future
    return submit


def run_journaled(tasks: Iterable[SweepTask], submit,
                  journal: Optional[SweepJournal] = None,
                  window: int = 1,
                  ) -> Iterator[Tuple[TaskOutcome, float]]:
    """Journal ``scheduled`` → run → journal the outcome, for every task.

    The one journaled-run step, shared by the inline loop
    (``submit=in_caller()``), the pool client (``submit=tier.submit``, a
    wider ``window``) and a fleet worker's claimed task.  At most
    ``window`` tasks are in flight; the rest wait here, in the parent —
    constant memory regardless of plan size.  Yields ``(outcome,
    queue_wait)`` in completion order, each already journaled; an
    exception that escapes a task propagates to the caller.
    """
    queue = iter(tasks)
    inflight: Dict[Future, float] = {}
    while True:
        for task in itertools.islice(queue, window - len(inflight)):
            if journal is not None:
                journal.task_scheduled(task)
            future = submit(task)
            inflight[future] = _time.monotonic()
        if not inflight:
            return
        done, _ = wait(inflight, return_when=FIRST_COMPLETED)
        for future in done:
            submitted = inflight.pop(future)
            outcome = future.result()
            if journal is not None:
                journal.task_outcome(outcome)
            yield outcome, max(0.0, outcome.started - submitted)


def assemble_result(tasks: Sequence[SweepTask],
                    outcomes: Mapping[int, TaskOutcome],
                    fresh: Collection[int],
                    report: RunReport,
                    queue_waits: Optional[Mapping[int, float]] = None,
                    staging_roots: Optional[Sequence[Path]] = None,
                    ) -> SweepResult:
    """Everything after execution: rows, merges, telemetry, the result.

    ``outcomes`` covers the plan by task index; ``fresh`` names the
    tasks this call executed (the rest were replayed from a journal)
    and ``queue_waits`` how long each of those sat submitted before it
    started; ``report`` is the header the per-task samples are appended
    to; ``staging_roots`` points the trace-store fold at a fleet's
    per-host staging trees instead of each store's own.  Shared by
    :func:`run_sweep` / :func:`resume_sweep` and the fleet coordinator.
    """
    ordered = [outcomes[task.index] for task in tasks]
    rows = rows_from_outcomes(ordered)
    state = merge_outcome_state(ordered)
    trace_merge: Optional[Dict[str, int]] = None
    for root in sorted({task.trace_store for task in tasks
                        if task.trace_store is not None}):
        part = TraceStore(root).merge_staged(staging_roots=staging_roots)
        trace_merge = (part if trace_merge is None else
                       {key: trace_merge[key] + part[key] for key in part})
    waits = queue_waits or {}
    for outcome in ordered:
        report.tasks.append(TaskTelemetry(
            index=outcome.index,
            workload=outcome.workload,
            size=outcome.size,
            method=outcome.method,
            worker=outcome.worker,
            queue_wait=waits.get(outcome.index, 0.0),
            task_wall=outcome.task_wall,
            sim_wall=outcome.wall_seconds,
            attempts=outcome.attempts,
            backoff_total=outcome.backoff_total,
            fallbacks=len(outcome.fallbacks),
            status=outcome.status,
            error_class=outcome.error_class,
            replayed=outcome.index not in fresh,
            host=outcome.host,
            stolen=outcome.stolen,
        ))
    return SweepResult(rows=rows, outcomes=ordered, store=state.store,
                       kernel_db=state.kernel_db, report=report,
                       store_merge=state.store_merge,
                       db_merge=state.db_merge, trace_merge=trace_merge,
                       replayed=len(ordered) - len(fresh))


def _with_deadline(watchdog: Optional[WatchdogConfig],
                   deadline: float) -> WatchdogConfig:
    if watchdog is None:
        return WatchdogConfig(deadline_seconds=deadline)
    if watchdog.deadline_seconds is not None:
        deadline = min(watchdog.deadline_seconds, deadline)
    return dataclasses.replace(watchdog, deadline_seconds=deadline)


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs!r}")


def run_sweep(
    tasks: Sequence[SweepTask],
    jobs: int = 1,
    sweep_deadline: Optional[float] = None,
    run_dir: Optional[str] = None,
) -> SweepResult:
    """Execute a sweep plan and merge its results.

    ``jobs=1`` runs every task inline (no processes) — the reference
    path the parallel one is tested against.  ``jobs>1`` submits the
    tasks to an :class:`~repro.parallel.tier.ExecutionTier`, keeping at
    most ``jobs * WINDOW_PER_JOB`` in flight (the bounded work queue).
    ``sweep_deadline`` splits a whole-sweep wall-clock budget into
    per-task watchdog deadlines via :meth:`WatchdogConfig.per_task`.

    ``run_dir`` makes the sweep crash-safe: the plan and every task
    outcome are journaled (fsync'd write-ahead log) so a killed run
    can be restarted with :func:`resume_sweep` without losing
    completed work.
    """
    _check_jobs(jobs)
    tasks = list(tasks)
    journal = None
    if run_dir is not None:
        journal = SweepJournal.create(run_dir, tasks)
    try:
        return _execute(tasks, {}, jobs=jobs,
                        sweep_deadline=sweep_deadline, journal=journal)
    finally:
        if journal is not None:
            journal.close()


def resume_sweep(
    run_dir: str,
    jobs: int = 1,
    sweep_deadline: Optional[float] = None,
) -> SweepResult:
    """Resume a journaled sweep after a crash (or verify a finished one).

    The plan comes from the journal's ``plan`` record — no workloads,
    sizes or methods need restating; ``jobs`` is free to differ from
    the original run.  Journaled completed tasks are replayed without
    re-execution; missing and failed ones (a ``stage="pool"`` crash
    outcome included) re-run and are journaled again.  The
    result — rows, merged stores, merged trace bundles — is
    bitwise-identical to what the uninterrupted run would have
    produced, because every simulated quantity is deterministic and
    the task-order merge cannot tell a replayed outcome from a fresh
    one.  Resuming an already-complete journal replays everything and
    re-runs nothing.
    """
    _check_jobs(jobs)
    journal, scan = SweepJournal.resume(run_dir)
    try:
        tasks = scan.tasks()
        prior = {index: outcome
                 for index, outcome in scan.outcomes().items()
                 if outcome.ok}
        bus = current_bus()
        bus.emit(SWEEP_RESUME, str(Path(run_dir)), len(prior),
                 len(tasks) - len(prior), scan.quarantined_lines)
        bus.metrics.counter("sweep.resumes").inc()
        bus.metrics.counter("sweep.resume.replayed").inc(len(prior))
        bus.metrics.counter("sweep.resume.rerun").inc(
            len(tasks) - len(prior))
        if scan.quarantined_lines:
            bus.metrics.counter("sweep.journal.quarantined").inc(
                scan.quarantined_lines)
        return _execute(tasks, prior, jobs=jobs,
                        sweep_deadline=sweep_deadline, journal=journal)
    finally:
        journal.close()


def _execute(
    tasks: List[SweepTask],
    prior: Dict[int, TaskOutcome],
    jobs: int,
    sweep_deadline: Optional[float],
    journal: Optional[SweepJournal],
) -> SweepResult:
    """Run the tasks not covered by ``prior`` and merge everything."""
    pending = [task for task in tasks if task.index not in prior]
    if sweep_deadline is not None:
        per = WatchdogConfig(deadline_seconds=sweep_deadline).per_task(
            max(1, len(pending)), jobs)
        pending = [dataclasses.replace(
            task, watchdog=_with_deadline(task.watchdog,
                                          per.deadline_seconds))
            for task in pending]

    # the inline loop is the in-caller reference path; anything wider
    # is a bounded window over the one pool owner
    if jobs == 1 or len(pending) <= 1:
        tier, submit, window, backend = None, in_caller(), 1, "inline"
    else:
        tier = ExecutionTier(jobs)
        submit, window = tier.submit, jobs * WINDOW_PER_JOB
        backend = tier.mp_context
    outcomes = dict(prior)
    queue_waits: Dict[int, float] = {}   # keyed by the tasks run here
    t0 = _time.perf_counter()
    try:
        for outcome, queue_wait in run_journaled(pending, submit, journal,
                                                 window):
            outcomes[outcome.index] = outcome
            queue_waits[outcome.index] = queue_wait
    finally:
        if tier is not None:
            tier.shutdown()
    report = RunReport(jobs=jobs, mp_context=backend,
                       total_wall=_time.perf_counter() - t0)

    result = assemble_result(tasks, outcomes, queue_waits, report,
                             queue_waits=queue_waits)
    if journal is not None:
        journal.merged(result.trace_merge)
    bus = current_bus()
    for outcome in result.outcomes:
        if outcome.index in queue_waits:   # ran here, not replayed
            bus.emit(PARALLEL_TASK, outcome.index, outcome.workload,
                     outcome.size, outcome.method, outcome.status,
                     outcome.worker, outcome.started,
                     outcome.started + outcome.task_wall)
    bus.metrics.counter("sweep.runs").inc()
    bus.metrics.counter("sweep.tasks").inc(len(tasks))
    return result
