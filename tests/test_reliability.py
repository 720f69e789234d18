"""Unit tests for repro.reliability: watchdogs, fault plans, the ledger."""

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
    WatchdogConfig,
)


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
    with pytest.raises(ConfigError, match="stall_instructions"):
        WatchdogConfig(stall_instructions=-5)
    with pytest.raises(ConfigError, match="check_interval"):
        WatchdogConfig(check_interval=0)


def test_unconfigured_watchdog_is_unarmed():
    wd = WatchdogConfig().for_engine("e")
    assert not wd.armed
    wd.tick(10**6)  # never raises


def test_budget_trips_exactly_past_limit():
    wd = WatchdogConfig(max_events=5).for_engine("e")
    assert wd.armed
    wd.tick(5)
    with pytest.raises(BudgetExceeded, match="e: exceeded budget"):
        wd.tick()


def test_stall_resets_on_progress():
    wd = WatchdogConfig(stall_events=10).for_engine("e")
    for _ in range(5):
        wd.tick(9)
        wd.note_progress()
    wd.tick(10)
    with pytest.raises(SimulationStalled):
        wd.tick()


def test_deadline_polled_on_interval():
    wd = WatchdogConfig(deadline_seconds=1e-6,
                        check_interval=100).for_executor("x")
    wd.tick(99)  # below the poll interval: deadline not yet checked
    with pytest.raises(BudgetExceeded, match="deadline"):
        wd.tick(100)


def test_engine_and_executor_use_their_own_budgets():
    cfg = WatchdogConfig(max_events=1, max_instructions=50)
    assert cfg.for_engine("e").budget == 1
    assert cfg.for_executor("x").budget == 50
    assert cfg.for_executor("x").unit == "instructions"


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
