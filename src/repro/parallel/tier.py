"""The execution tier: the one owner of a worker pool.

Sweeps (:func:`~repro.parallel.scheduler.run_sweep`) and the serving
front end (:mod:`repro.serve`) run tasks through one primitive:
:meth:`ExecutionTier.submit` takes a task and returns a *tier-owned*
future that resolves to its :class:`~repro.parallel.tasks.TaskOutcome`.
The blocking sweep window waits on those futures, ``run_sync`` is
``submit(task).result()`` and ``run`` awaits the same future under
``asyncio.wrap_future`` — one pool, one broken-pool policy and one
synthesized crash outcome, whoever the client is:

* ``jobs >= 1`` schedules tasks over a ``ProcessPoolExecutor`` (fork
  where available, else spawn) whose workers start from
  :func:`worker_init`: a fresh silent bus;
* a SIGKILLed/OOM-killed worker breaks the whole pool and fails every
  future it held.  Those tasks are *suspects*, not culprits: the tier
  rebuilds the pool, holds new submissions back and retries the
  suspects **one at a time**; only a suspect that breaks a pool while
  running alone — its second strike — keeps the synthesized
  ``stage="pool"`` error outcome.  A poison task never fails a bystander;
* a worker killed while *idle* may break nothing until shutdown, where
  its siblings would be waited on forever (:func:`_stop_pool`);
* ``jobs == 0`` runs tasks on a single in-process thread — no fork, no
  pickling — for tests, smoke runs and debugging.  Simulated results
  are identical either way (the determinism contract).

The tier never raises for task-level failures: :func:`run_task` already
folds those into error outcomes.  What escapes ``run_task`` (an unknown
method name, an I/O fault while staging traces) is a caller bug or a
host fault; the future re-raises it unchanged, as the inline path does.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, List, Optional, Set, Tuple

from ..errors import ConfigError
from ..obs import reset_default_bus
from .tasks import SweepTask, TaskOutcome, run_task


def worker_init() -> None:
    """Give each pool worker a pristine default bus.

    A fork-started worker inherits the parent's default bus, including
    any open file sinks — concurrent writes from several processes
    would interleave garbage into the parent's trace.  Workers observe
    nothing by default; the parent re-emits their telemetry after the
    merge.  Nothing else is process-wide (a task's trace cache is a
    value :func:`run_task` builds and hands to its methodology).
    """
    reset_default_bus()


@dataclass(eq=False)
class _Job:
    """One submitted task on its way to an outcome."""

    task: SweepTask
    future: Future = field(default_factory=Future)
    suspect: bool = False   # first strike: in flight when a pool broke


class ExecutionTier:
    """A rebuildable worker pool executing :class:`SweepTask` shards.

    Locking rule: the tier lock guards bookkeeping only — no pool method
    (``submit``, ``shutdown``) and no client callback runs under it.  A
    breaking ``ProcessPoolExecutor`` fails its futures, and so runs
    :meth:`_done`, while holding its own shutdown lock (CPython >=
    3.12.1), and the executor's weakref callback takes that lock again.
    Calling back into the broken pool, calling any pool with the tier
    lock held, or dropping the last reference to the broken pool inside
    the callback would deadlock; so a broken pool is parked in
    ``_retired`` and released by a later ``submit`` / ``shutdown`` —
    which clients therefore call from their own threads, never from a
    done-callback of a tier future.
    """

    def __init__(self, jobs: int = 1):
        if jobs < 0:
            raise ConfigError(f"jobs must be >= 0, got {jobs!r}")
        self.jobs = jobs
        # fork (cheap, shares loaded numpy) where available, else spawn
        methods = multiprocessing.get_all_start_methods()
        self.mp_context = "fork" if "fork" in methods else "spawn"
        self.rebuilds = 0   # broken pools replaced over the tier's life
        self.executed = 0   # tasks that ran to an outcome (ok or error)
        self._lock = threading.Lock()
        self._pool = None
        self._closed = False
        self._running: Set[_Job] = set()        # claimed for a pool
        self._backlog: Deque[_Job] = deque()    # accepted, not started
        self._suspects: Deque[_Job] = deque()   # awaiting a solo retry
        self._retired: List[object] = []        # broken pools to release

    # -- pool management ---------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            if self.jobs == 0:
                self._pool = ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix="repro-serve-inline")
            else:
                ctx = multiprocessing.get_context(self.mp_context)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=ctx,
                    initializer=worker_init)
        return self._pool

    def _release_retired(self, wait: bool = False) -> None:
        """Let go of the broken pools (lock not held, see the class)."""
        if self._retired:
            with self._lock:
                retired, self._retired = self._retired, []
            for pool in retired:
                pool.shutdown(wait=wait)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool; tasks that never started are cancelled."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
            stranded = [*self._suspects, *self._backlog]
            self._suspects.clear()
            self._backlog.clear()
        for job in stranded:
            job.future.set_exception(CancelledError())
        if pool is not None:
            _stop_pool(pool, wait)
        self._release_retired(wait)

    # -- execution ---------------------------------------------------------

    def submit(self, task: SweepTask) -> Future:
        """Schedule one task; the future resolves to its TaskOutcome.

        The future is the tier's own: a broken pool under the task is
        absorbed here and never shows through.  It cannot be cancelled —
        a process worker cannot be interrupted mid-task, so an abandoned
        result is simply dropped.
        """
        job = _Job(task)
        job.future.set_running_or_notify_cancel()
        self._release_retired()
        with self._lock:
            if self._closed:
                raise ConfigError("execution tier is shut down")
            self._backlog.append(job)
            ready = self._claim()
        self._start(ready)
        return job.future

    def run_sync(self, task: SweepTask) -> TaskOutcome:
        """Execute one task and wait for its outcome (blocking form)."""
        return self.submit(task).result()

    async def run(self, task: SweepTask) -> TaskOutcome:
        """Execute one task from asyncio; cancelling the await only
        drops the result, the task itself keeps running."""
        return await asyncio.wrap_future(self.submit(task))

    def _claim(self) -> List[Tuple[_Job, object]]:
        """Pick whatever may run now, with its pool (lock held).

        Suspects wait for the in-flight work to drain and then run one
        at a time; nothing else starts until the last one is cleared, so
        a suspect in flight is always in flight *alone*.
        """
        ready = []
        while not self._closed:
            if self._suspects:
                if self._running:
                    break
                job = self._suspects.popleft()
            elif self._backlog and not any(
                    job.suspect for job in self._running):
                job = self._backlog.popleft()
            else:
                break
            self._running.add(job)
            ready.append((job, self._ensure_pool()))
        return ready

    def _start(self, ready: List[Tuple[_Job, object]]) -> None:
        """Hand claimed jobs to their pool (lock *not* held)."""
        for job, pool in ready:
            try:
                inner = pool.submit(run_task, job.task)
            except BrokenExecutor as exc:
                # the pool died idle; same policy as dying under the task
                self._settle(job, pool, exc)
            except RuntimeError as exc:
                # shutdown() won the race between claim and start
                self._settle(job, pool,
                             CancelledError() if self._closed else exc)
            else:
                inner.add_done_callback(partial(self._done, job, pool))

    def _done(self, job: _Job, pool, inner: Future) -> None:
        """A pool future finished (runs on the pool's manager thread)."""
        try:
            exc = inner.exception()
        except CancelledError as cancelled:   # by shutdown
            exc = cancelled
        self._settle(job, pool, exc,
                     inner.result() if exc is None else None)

    def _settle(self, job: _Job, pool, exc: Optional[BaseException],
                outcome: Optional[TaskOutcome] = None) -> None:
        """``job`` left ``pool``: resolve it or queue its solo retry.

        The one crash policy.  A broken pool is only *retired* here —
        it terminates its own workers, and it must be neither called
        nor garbage-collected from its own callback.  What else escaped
        ``run_task`` (a caller bug, a host I/O fault) reaches the client
        unchanged.
        """
        broke = isinstance(exc, BrokenExecutor)
        with self._lock:
            self._running.discard(job)
            if broke and self._pool is pool:
                self._pool = None
                self._retired.append(pool)
                self.rebuilds += 1
            retry = broke and not job.suspect and not self._closed
            if retry:
                job.suspect = True
                self._suspects.append(job)
            elif broke:
                # second strike — a suspect only ever runs alone
                outcome, exc = _crash_outcome(job.task, exc), None
            if outcome is not None:
                self.executed += 1
            ready = self._claim()
        if outcome is not None:
            job.future.set_result(outcome)
        elif not retry:
            job.future.set_exception(exc)
        self._start(ready)


def _stop_pool(pool, wait: bool) -> None:
    """Shut a healthy pool down without trusting its workers to be alive.

    A worker SIGKILLed while *idle* dies holding the call queue's reader
    lock.  If that lands as the pool shuts down, CPython's executor
    never marks it broken: it queues one exit sentinel per worker and
    joins them, and the survivors — blocked on the dead worker's lock —
    never read theirs.  So the tier joins the workers itself and, once
    one of them turns out to have died abnormally, kills the rest.
    """
    workers = list((getattr(pool, "_processes", None) or {}).values())
    if not (wait and workers):    # the inline thread pool has none
        pool.shutdown(wait=wait, cancel_futures=True)
        return
    pool.shutdown(wait=False, cancel_futures=True)
    while True:
        alive = [worker for worker in workers if worker.is_alive()]
        if not alive:
            return
        if any(worker.exitcode for worker in workers):
            for worker in alive:
                worker.kill()
        alive[0].join(timeout=0.05)


def _crash_outcome(task: SweepTask, exc: BaseException) -> TaskOutcome:
    """Synthesize the error outcome for a task that kept breaking pools.

    ``stage="pool"`` marks the failure as infrastructure-synthesized
    (a crashing worker pool), distinct from the deterministic
    ``build``/``run`` error outcomes :func:`run_task` produces — serving
    layers must not cache or absorb these, and a journaled sweep re-runs
    them on ``--resume`` like any failed task.
    """
    return TaskOutcome(
        index=task.index, workload=task.workload, size=task.size,
        method=task.method, status="error", stage="pool",
        error_class=type(exc).__name__,
        error=str(exc) or "worker pool kept breaking")
