"""Sweep task model: serialization, execution, failure staging."""

import pytest

from repro.errors import ConfigError, WorkloadError
from repro.parallel.tasks import (
    FULL_METHOD,
    SweepTask,
    TaskOutcome,
    run_task,
)
from repro.reliability.watchdog import WatchdogConfig


def test_task_round_trips_through_dict():
    task = SweepTask(index=3, workload="relu", size=512, method="photon",
                     gpu="mi100", seed=11,
                     watchdog=WatchdogConfig(max_events=1000))
    clone = SweepTask.from_dict(task.to_dict())
    assert clone == task


def test_task_dict_is_json_safe():
    import json

    task = SweepTask(index=0, workload="fir", size=128, method="pka")
    payload = json.dumps(task.to_dict(), allow_nan=False)
    assert SweepTask.from_dict(json.loads(payload)) == task


def test_task_from_dict_drops_retired_keys():
    # journals and fleet manifests written before a field was retired
    # still load: the task's old in-task retry block (even one naming
    # no real error class) and retired PhotonConfig switches are dropped
    task = SweepTask(index=0, workload="relu", size=64, method="photon")
    data = task.to_dict()
    data["retry"] = {"max_attempts": 3, "transient": ["NotAnError"]}
    data["photon"] = {**data["photon"], "retired_switch": True}
    assert SweepTask.from_dict(data) == task


def test_run_task_full_and_photon():
    full = run_task(SweepTask(index=0, workload="relu", size=128,
                              method=FULL_METHOD))
    assert full.ok and full.mode == "full"
    assert full.sim_time > 0 and full.n_insts > 0

    photon = run_task(SweepTask(index=1, workload="relu", size=128,
                                method="photon"))
    assert photon.ok
    result = photon.to_kernel_result()
    assert result.sim_time == photon.sim_time
    assert result.n_insts == photon.n_insts


def test_run_task_build_failure_is_staged():
    out = run_task(SweepTask(index=0, workload="relu", size=-1,
                             method=FULL_METHOD))
    assert not out.ok
    assert out.stage == "build"
    assert out.error_class == "WorkloadError"


def test_run_task_watchdog_trip_is_run_stage():
    out = run_task(SweepTask(index=0, workload="relu", size=128,
                             method=FULL_METHOD,
                             watchdog=WatchdogConfig(max_events=10)))
    assert not out.ok
    assert out.stage == "run"
    assert out.error_class == "BudgetExceeded"


def test_run_task_unknown_method_raises():
    # a typo is a caller bug, not a sweep casualty
    with pytest.raises(WorkloadError):
        run_task(SweepTask(index=0, workload="relu", size=64,
                           method="phtoon"))


def test_outcome_round_trips_through_dict():
    out = run_task(SweepTask(index=2, workload="fir", size=128,
                             method="photon"))
    clone = TaskOutcome.from_dict(out.to_dict())
    assert clone == out


def test_watchdog_per_task_splits_deadline():
    config = WatchdogConfig(deadline_seconds=60.0, max_events=99)
    per = config.per_task(n_tasks=12, jobs=4)  # 3 tasks per worker
    assert per.deadline_seconds == pytest.approx(20.0)
    assert per.max_events == 99  # per-run budgets pass through
    # no deadline: config passes through untouched
    assert WatchdogConfig(max_events=5).per_task(10, 2).deadline_seconds is None
    with pytest.raises(ConfigError):
        config.per_task(0)
    with pytest.raises(ConfigError):
        config.per_task(4, jobs=0)
