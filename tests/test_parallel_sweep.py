"""ParSweep acceptance: determinism, sharding, merge, telemetry.

The contract under test: parallelism is a pure speed knob.  Serial and
parallel runs of the same plan must render byte-identical tables under
``comparison_table(rows, deterministic=True)``.
"""

import pytest

from repro.errors import ConfigError, SamplingError
from repro.harness.defaults import EVAL_PHOTON, QUICK_SIZES
from repro.harness.runner import run_methods_kernel, workload_factory
from repro.harness.tables import comparison_table
from repro.parallel import (
    FULL_METHOD,
    plan_sweep,
    rows_from_outcomes,
    run_sweep,
)
from repro.reliability.watchdog import WatchdogConfig

SIZES = (256,)  # small enough for process-pool tests to stay fast


def _det_table(rows):
    return comparison_table(rows, deterministic=True)


# ---------------------------------------------------------------- plan


def test_plan_orders_cells_full_first():
    tasks = plan_sweep(["relu", "fir"], sizes=(128, 256),
                       methods=("pka", "photon"))
    assert len(tasks) == 2 * 2 * 3
    assert [t.index for t in tasks] == list(range(len(tasks)))
    for i in range(0, len(tasks), 3):
        cell = tasks[i:i + 3]
        assert cell[0].method == FULL_METHOD
        assert [t.method for t in cell[1:]] == ["pka", "photon"]
        assert len({t.cell for t in cell}) == 1


def test_plan_default_sizes_are_quick_sizes():
    tasks = plan_sweep(["relu"], methods=("photon",))
    assert {t.size for t in tasks} == set(QUICK_SIZES["relu"])


def test_plan_validates_up_front():
    with pytest.raises(Exception, match="unknown workload"):
        plan_sweep(["nope"], sizes=SIZES)
    with pytest.raises(Exception, match="unknown method"):
        plan_sweep(["relu"], sizes=SIZES, methods=("phtoon",))
    with pytest.raises(ConfigError):
        plan_sweep(["relu"], sizes=SIZES, shard=(2, 2))
    with pytest.raises(ConfigError):
        plan_sweep(["relu"], sizes=SIZES, shard=(0, 0))


def test_shards_partition_the_plan():
    full_plan = plan_sweep(["relu", "fir", "sc"], sizes=(128, 256),
                           methods=("photon",))
    shards = [plan_sweep(["relu", "fir", "sc"], sizes=(128, 256),
                         methods=("photon",), shard=(i, 2))
              for i in range(2)]
    # cells are never split across shards
    for shard in shards:
        for i in range(0, len(shard), 2):
            assert shard[i].method == FULL_METHOD
            assert shard[i].cell == shard[i + 1].cell
    # the union of shards is exactly the unsharded plan
    union = sorted(
        (t.workload, t.size, t.method) for shard in shards for t in shard)
    assert union == sorted(
        (t.workload, t.size, t.method) for t in full_plan)


# ----------------------------------------------------- determinism


#: (sizes, methods, watchdog, methods of the rows that must fail)
_HARNESS_CELLS = [
    (SIZES, ("pka", "photon"), None, []),
    # an unbuildable size: one ``build`` row, the other cell intact
    ((0, 256), ("pka", "photon"), None, ["build"]),
    # baseline over budget: ``full`` and every method fail with it
    (SIZES, ("pka", "photon"), WatchdogConfig(max_events=10),
     ["full", "pka", "photon"]),
]


def test_inline_sweep_matches_serial_harness():
    """run_methods_kernel per size == run_sweep(jobs=1) ==
    run_sweep(jobs=2), failure cells included: one evaluator and one row
    builder behind all three."""
    for sizes, methods, watchdog, failed in _HARNESS_CELLS:
        serial = [row for size in sizes for row in run_methods_kernel(
            workload_factory("relu", size), "relu", size, methods=methods,
            photon_config=EVAL_PHOTON, watchdog=watchdog)]
        assert [r.method for r in serial if not r.ok] == failed
        tasks = plan_sweep(["relu"], sizes=sizes, methods=methods,
                           watchdog=watchdog)
        for jobs in (1, 2):
            assert _det_table(run_sweep(tasks, jobs=jobs).rows) \
                == _det_table(serial), (failed, jobs)


def test_parallel_sweep_is_deterministic():
    """The headline guarantee: jobs=2 == jobs=1, on 2+ workloads."""
    tasks = plan_sweep(["relu", "fir"], sizes=SIZES,
                       methods=("pka", "photon"))
    inline = run_sweep(tasks, jobs=1)
    pooled = run_sweep(tasks, jobs=2)
    assert _det_table(inline.rows) == _det_table(pooled.rows)


def test_sharded_sweeps_reassemble_the_full_run():
    whole = run_sweep(plan_sweep(["relu", "fir"], sizes=SIZES,
                                 methods=("photon",)), jobs=1)
    rows = []
    for i in range(2):
        part = run_sweep(plan_sweep(["relu", "fir"], sizes=SIZES,
                                    methods=("photon",), shard=(i, 2)),
                         jobs=1)
        rows.extend(part.rows)
    key = lambda r: (r.workload, r.size, r.method)
    assert sorted(map(key, rows)) == sorted(map(key, whole.rows))
    assert (_det_table(sorted(rows, key=key))
            == _det_table(sorted(whole.rows, key=key)))


# -------------------------------------------------- failure isolation


def test_build_failure_is_isolated_to_its_cell():
    tasks = plan_sweep(["relu"], sizes=(-1, 256), methods=("photon",))
    result = run_sweep(tasks, jobs=1)
    by_cell = {(r.size, r.method): r for r in result.rows}
    assert by_cell[(-1, "build")].error_class == "WorkloadError"
    assert by_cell[(256, FULL_METHOD)].error_class == ""
    assert by_cell[(256, "photon")].error_class == ""


def test_rows_from_outcomes_rejects_malformed_plan():
    tasks = plan_sweep(["relu"], sizes=SIZES, methods=("photon",))
    result = run_sweep(tasks, jobs=1)
    headless = [o for o in result.outcomes if o.method != FULL_METHOD]
    with pytest.raises(SamplingError, match="malformed sweep plan"):
        rows_from_outcomes(headless)


# ---------------------------------------------------------- telemetry


def test_run_report_accounts_for_every_task():
    tasks = plan_sweep(["relu"], sizes=SIZES, methods=("pka", "photon"))
    result = run_sweep(tasks, jobs=1)
    report = result.report
    assert report.n_tasks == len(tasks)
    assert report.mp_context == "inline"
    assert report.failed == 0
    assert 0.0 <= report.utilization() <= 1.0
    assert all(t.queue_wait == 0.0 for t in report.tasks)
    assert all(t.task_wall > 0.0 for t in report.tasks)
    summary = report.summary()
    assert f"{len(tasks)} tasks" in summary
    data = report.to_dict()
    assert len(data["tasks"]) == len(tasks)


def test_pool_telemetry_records_workers_and_waits():
    tasks = plan_sweep(["relu"], sizes=(128, 256), methods=("photon",))
    result = run_sweep(tasks, jobs=2)
    report = result.report
    assert report.jobs == 2
    assert report.mp_context in ("fork", "spawn")
    workers = {t.worker for t in report.tasks}
    assert workers and 0 not in workers
    assert all(t.queue_wait >= 0.0 for t in report.tasks)
    assert report.total_wall > 0.0


def test_run_sweep_validates_knobs():
    tasks = plan_sweep(["relu"], sizes=SIZES, methods=("photon",))
    with pytest.raises(ConfigError):
        run_sweep(tasks, jobs=0)


def test_sweep_deadline_splits_into_task_watchdogs():
    from repro.reliability.watchdog import WatchdogConfig

    # every loop checks its task's deadline when it starts, so even a
    # task that never reaches a poll interval trips an impossible one
    tasks = plan_sweep(["relu"], sizes=SIZES, methods=("photon",),
                       watchdog=WatchdogConfig(deadline_seconds=3600.0))
    # an absurdly generous budget: must not trip anything
    result = run_sweep(tasks, jobs=1, sweep_deadline=3600.0)
    assert result.report.failed == 0
    # an impossible budget: every task trips its deadline watchdog
    tripped = run_sweep(tasks, jobs=1, sweep_deadline=1e-6)
    assert tripped.report.failed == len(tasks)
    assert all(o.error_class == "BudgetExceeded"
               for o in tripped.outcomes)


def test_sweep_result_to_dict_is_json_safe():
    import json

    tasks = plan_sweep(["relu"], sizes=SIZES, methods=("photon",))
    result = run_sweep(tasks, jobs=1)
    payload = json.dumps(result.to_dict(), allow_nan=False)
    data = json.loads(payload)
    assert len(data["rows"]) == len(result.rows)
    assert set(data) == {"rows", "telemetry", "trace_merge", "tracestore",
                         "replayed"}


# ---------------------------------------------------------------- tracestore


def test_sweep_shares_trace_store(tmp_path):
    """Cold sweep populates the store; warm sweep replays from it with
    byte-identical tables — across serial and pooled execution."""
    from repro.tracestore import TraceStore

    root = tmp_path / "traces"
    plan = lambda: plan_sweep(["relu"], sizes=SIZES, methods=("photon",),
                              trace_store=str(root))
    cold = run_sweep(plan(), jobs=1)
    assert cold.trace_merge is not None
    assert cold.trace_merge["warps_added"] > 0
    assert not (root / "staging").exists()  # staging folded and removed

    warm = run_sweep(plan(), jobs=1)
    assert warm.trace_merge is not None
    assert warm.trace_merge["warps_added"] == 0  # nothing new to write
    assert _det_table(warm.rows) == _det_table(cold.rows)

    pooled = run_sweep(plan(), jobs=2)
    assert _det_table(pooled.rows) == _det_table(cold.rows)

    # the canonical bundles really exist and decode cleanly
    assert list(TraceStore(root).root.glob("*.trc"))


def test_sweep_without_trace_store_unchanged():
    tasks = plan_sweep(["relu"], sizes=SIZES, methods=("photon",))
    assert all(task.trace_store is None for task in tasks)
    result = run_sweep(tasks, jobs=1)
    assert result.trace_merge is None
