"""The one pool owner: crash policy and what propagates.

Every backend that runs tasks in worker processes — ``run_sweep(jobs>1)``
and the serving tier — goes through ``ExecutionTier.submit``, so the
broken-pool policy is tested once, against both clients:

* a worker that dies takes the pool with it, but only the task that
  breaks a pool *while running alone* keeps the synthesized
  ``stage="pool"`` outcome — bystanders complete normally;
* an exception that escapes ``run_task`` is not an outcome on any
  backend: inline and pooled runs both re-raise it.

The crash tests need no SIGKILL and no subprocess: a registered
workload whose builder ``os._exit``s whenever it runs outside the test
process poisons exactly the workers that pick it up.
"""

import asyncio
import multiprocessing
import os
import sys
import threading

import pytest

from repro.errors import ConfigError, WorkloadError
from repro.parallel import (
    ExecutionTier,
    SweepTask,
    TaskOutcome,
    plan_sweep,
    resume_sweep,
    run_sweep,
    run_task,
    scheduler,
    tier as tier_module,
)
from repro.serve import deterministic_result
from repro.workloads.base import REGISTRY

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the poison builder reaches workers through fork")

POISON = "poison"


@pytest.fixture
def poison_plan(monkeypatch):
    """A cell that kills any *worker* building it, beside two slower
    honest cells.  In the test process it builds (and runs) as relu."""
    parent = os.getpid()

    def build_poison(n_warps, **kwargs):
        if os.getpid() != parent:
            os._exit(9)
        return REGISTRY["relu"](n_warps, **kwargs)

    monkeypatch.setitem(REGISTRY, POISON, build_poison)
    return plan_sweep([POISON, "relu", "fir"],
                      sizes={POISON: (64,), "relu": (256,), "fir": (256,)},
                      methods=("photon",), seed=7)


def _via_sweep(tasks, tiers):
    return run_sweep(tasks, jobs=2).outcomes


def _via_tier(tasks, tiers):
    tier = ExecutionTier(jobs=2)
    tiers.append(tier)

    async def gather():
        return await asyncio.wait_for(
            asyncio.gather(*(tier.run(t) for t in tasks)), timeout=120)

    try:
        return asyncio.run(gather())
    finally:
        tier.shutdown()


@pytest.fixture
def tiers(monkeypatch):
    """Every ExecutionTier the scheduler builds, for inspection."""
    built = []

    class Recorded(ExecutionTier):
        def __init__(self, jobs):
            super().__init__(jobs)
            built.append(self)

    # raising=False: at the commit this file was written against, the
    # scheduler owned its pool and must fail on outcomes, not on setup
    monkeypatch.setattr(scheduler, "ExecutionTier", Recorded,
                        raising=False)
    return built


@needs_fork
@pytest.mark.parametrize("execute", [_via_sweep, _via_tier])
def test_poison_worker_fails_only_itself(poison_plan, tiers, execute):
    inline = run_sweep(poison_plan, jobs=1).outcomes
    assert all(o.ok for o in inline)

    outcomes = execute(poison_plan, tiers)

    assert [o.index for o in outcomes] == [t.index for t in poison_plan]
    failed = [o for o in outcomes if not o.ok]
    assert ([(o.workload, o.method) for o in failed]
            == [(POISON, "full"), (POISON, "photon")])
    assert all(o.stage == "pool" and o.error_class == "BrokenProcessPool"
               for o in failed)
    for got, want in zip(outcomes, inline):
        if got.workload != POISON:
            assert deterministic_result(got) == deterministic_result(want)
    [tier] = tiers
    assert tier.rebuilds >= 1
    assert tier.executed == len(poison_plan)
    # the broken pools were released too, not just the last healthy one
    assert not multiprocessing.active_children()


@needs_fork
def test_resume_replays_bystanders_and_reruns_the_poison(poison_plan,
                                                         tmp_path):
    run_dir = str(tmp_path / "run")
    crashed = run_sweep(poison_plan, jobs=2, run_dir=run_dir)
    assert crashed.report.failed == 2
    # resumed inline, in this process, the poison cell is plain relu
    resumed = resume_sweep(run_dir)
    assert resumed.replayed == len(poison_plan) - 2
    assert resumed.report.failed == 0
    fresh = [t.index for t in resumed.report.tasks if not t.replayed]
    assert fresh == [t.index for t in poison_plan if t.workload == POISON]
    golden = run_sweep(poison_plan, jobs=1)
    assert ([deterministic_result(o) for o in resumed.outcomes]
            == [deterministic_result(o) for o in golden.outcomes])


@pytest.mark.parametrize("jobs", [1, 2])
def test_exception_escaping_a_task_propagates(jobs):
    """``run_task`` folds every ReproError of the *simulation* into an
    outcome; what it raises (here: a method name no planner would emit)
    is a caller bug, re-raised by every backend — never an error row."""
    bad = [SweepTask(index=0, workload="relu", size=64, method="full"),
           SweepTask(index=1, workload="relu", size=64, method="phtoon")]
    with pytest.raises(WorkloadError, match="phtoon"):
        run_sweep(bad, jobs=jobs)
    assert not multiprocessing.active_children()   # the pool is gone


def test_thread_tier_matches_direct_run_and_refuses_after_shutdown():
    task = SweepTask(index=0, workload="relu", size=64, method="photon")
    tier = ExecutionTier(jobs=0)
    try:
        served = tier.run_sync(task)
    finally:
        tier.shutdown()
    assert deterministic_result(served) == deterministic_result(
        run_task(task))
    assert (tier.executed, tier.rebuilds) == (1, 0)
    with pytest.raises(ConfigError, match="shut down"):
        tier.submit(task)
    with pytest.raises(ConfigError):
        ExecutionTier(jobs=-1)


def test_concurrent_submitters_all_resolve(monkeypatch):
    """Submitters on several threads race the worker thread's completion
    callbacks over the tier's queues: every future must resolve to its
    own task's outcome and the count must be exact."""
    def instant(task):
        return TaskOutcome(index=task.index, workload=task.workload,
                           size=task.size, method=task.method)

    monkeypatch.setattr(tier_module, "run_task", instant)
    tier = ExecutionTier(jobs=0)
    per_thread, n_threads = 200, 4
    futures = [[] for _ in range(n_threads)]

    def submitter(slot):
        for i in range(per_thread):
            futures[slot].append(tier.submit(SweepTask(
                index=slot * per_thread + i, workload="relu", size=32,
                method="full")))

    threads = [threading.Thread(target=submitter, args=(slot,))
               for slot in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        got = [f.result(timeout=60).index for fs in futures for f in fs]
    finally:
        sys.setswitchinterval(interval)
        tier.shutdown()
    assert got == list(range(n_threads * per_thread))
    assert tier.executed == n_threads * per_thread


@pytest.mark.parametrize("victim", [0, 1])
def test_shutdown_survives_a_worker_killed_idle(victim):
    """An idle worker dies holding the call queue's reader lock (one of
    the two does; the other is queued behind it).  Shutting the pool
    down right then must not wait on the survivor forever."""
    import signal

    tier = ExecutionTier(2)
    for index in range(4):
        assert tier.run_sync(SweepTask(index=index, workload="relu",
                                       size=32, method="full")).ok
    workers = sorted(multiprocessing.active_children(),
                     key=lambda process: process.pid)
    assert len(workers) == 2
    os.kill(workers[victim].pid, signal.SIGKILL)
    stopper = threading.Thread(target=tier.shutdown, daemon=True)
    stopper.start()
    stopper.join(timeout=60)
    assert not stopper.is_alive(), "tier.shutdown() hung"
    assert not multiprocessing.active_children()
