"""Unit tests for repro.reliability: watchdogs and their budgets."""

import dataclasses
import time

import pytest

from repro.errors import (
    BudgetExceeded,
    ConfigError,
    ReproError,
    SimulationStalled,
)
from repro.reliability import Watchdog, WatchdogConfig
from repro.config import R9_NANO
from repro.functional import FunctionalExecutor
from repro.reliability.watchdog import POLL_INTERVAL, deadline_of
from repro.timing import DetailedEngine

from conftest import make_vecadd


# -- WatchdogConfig / Watchdog ------------------------------------------------

def test_error_taxonomy():
    assert issubclass(BudgetExceeded, ReproError)
    assert issubclass(SimulationStalled, ReproError)


def test_watchdog_config_validation():
    with pytest.raises(ConfigError, match="max_events"):
        WatchdogConfig(max_events=0)
    with pytest.raises(ConfigError, match="deadline_seconds"):
        WatchdogConfig(deadline_seconds=-1.0)
    assert [f.name for f in dataclasses.fields(WatchdogConfig)] == [
        "max_events", "deadline_seconds"]


def test_unconfigured_watchdog_is_unarmed():
    wd = Watchdog("e", "events")
    wd.tick(10**6)  # never raises
    assert deadline_of(None) is None
    assert deadline_of(WatchdogConfig(max_events=5)) is None


def test_budget_trips_exactly_past_limit():
    wd = Watchdog("e", "events", budget=5)
    wd.tick(5)
    with pytest.raises(BudgetExceeded, match="e: exceeded budget"):
        wd.tick()


def test_deadline_polled_on_interval():
    """A loop checks the deadline when it starts (its first tick) and
    every ``POLL_INTERVAL`` ticks after that."""
    wd = Watchdog("x", "instructions", deadline=time.monotonic() + 3600)
    wd.tick()
    wd.deadline = time.monotonic() - 1.0    # the instant has passed
    wd.tick(POLL_INTERVAL - 1)  # below the poll interval: not checked
    with pytest.raises(BudgetExceeded, match="x: wall-clock deadline"):
        wd.tick()
    expired = Watchdog("y", "events", deadline=time.monotonic() - 1.0)
    with pytest.raises(BudgetExceeded, match="deadline"):
        expired.tick()


def test_engine_and_executor_use_their_own_budgets():
    """``max_events`` bounds an engine run; a functional run has only
    the deadline.  Built without a methodology, each opens its own
    deadline window."""
    kernel = make_vecadd(n_warps=4)
    cfg = WatchdogConfig(max_events=1, deadline_seconds=60.0)
    before = time.monotonic()
    engine = DetailedEngine(kernel, R9_NANO.scaled(4), watchdog=cfg)
    executor = FunctionalExecutor(kernel, watchdog=cfg)
    assert engine.max_events == 1
    for deadline in (engine.deadline, executor.deadline):
        assert before + 60.0 <= deadline <= time.monotonic() + 60.0
    assert executor.run_warp_full(0).n_insts > 0
    with pytest.raises(BudgetExceeded, match="engine"):
        engine.run()
