"""Unit tests for repro.reliability: watchdogs, fault plans, the ledger."""

import dataclasses
import time

import pytest

from repro.errors import (
    BudgetExceeded,
    ConfigError,
    InjectedFault,
    ReproError,
    SamplingError,
    SimulationStalled,
)
from repro.reliability import (
    FALLBACK_CHAIN,
    FallbackEvent,
    FaultPlan,
    FaultSpec,
    Watchdog,
    WatchdogConfig,
)
from repro.config import R9_NANO
from repro.functional import FunctionalExecutor
from repro.reliability.watchdog import POLL_INTERVAL, deadline_of
from repro.timing import DetailedEngine

from conftest import make_vecadd


# -- WatchdogConfig / Watchdog ------------------------------------------------

def test_error_taxonomy():
    assert issubclass(BudgetExceeded, ReproError)
    assert issubclass(SimulationStalled, ReproError)
    # injected faults are recoverable by the degradation ladder
    assert issubclass(InjectedFault, SamplingError)


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


# -- FaultSpec / FaultPlan ----------------------------------------------------

def test_fault_fires_on_nth_arming():
    plan = FaultPlan(FaultSpec(site="s", at=3))
    plan.arm("s")
    plan.arm("s")
    with pytest.raises(InjectedFault):
        plan.arm("s")
    plan.arm("s")  # window of one: exhausted again
    assert plan.fired == [("s", "InjectedFault", None)]


def test_fault_count_window():
    plan = FaultPlan(FaultSpec(site="s", count=2))
    for _ in range(2):
        with pytest.raises(InjectedFault):
            plan.arm("s")
    plan.arm("s")
    assert len(plan.fired) == 2


def test_fault_kernel_filter_and_level_attribution():
    plan = FaultPlan(FaultSpec(site="s", kernel="k1", level="warp"))
    plan.arm("s", kernel="other")  # no match
    with pytest.raises(InjectedFault) as info:
        plan.arm("s", kernel="k1", level="bb")
    assert info.value.photon_level == "warp"  # spec override wins


def test_fault_site_level_default():
    plan = FaultPlan(FaultSpec(site="s"))
    with pytest.raises(InjectedFault) as info:
        plan.arm("s", level="kernel")
    assert info.value.photon_level == "kernel"


def test_fault_custom_error_and_message():
    plan = FaultPlan()
    plan.add(FaultSpec(site="s", error=BudgetExceeded, message="boom"))
    with pytest.raises(BudgetExceeded, match="boom"):
        plan.arm("s")


# -- ledger -------------------------------------------------------------------

def test_fallback_chain_order():
    assert FALLBACK_CHAIN == ("bb", "warp", "kernel", "full")


def test_fallback_event_serialises():
    event = FallbackEvent(kernel="k", from_level="bb", to_level="warp",
                          error="InjectedFault", message="m")
    assert event.to_dict() == {
        "kernel": "k", "from_level": "bb", "to_level": "warp",
        "error": "InjectedFault", "message": "m",
    }
