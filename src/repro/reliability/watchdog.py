"""Bounded execution for the simulation stack.

A :class:`WatchdogConfig` holds two budgets, both
:class:`~repro.errors.BudgetExceeded` when exhausted:

* ``deadline_seconds`` bounds one *evaluation*.  A
  :class:`~repro.timing.simulator.Methodology` fixes the instant when it
  is constructed (:func:`deadline_of`), and every loop it starts — each
  detailed-engine run, each CONTROL fill, each FULL fill — checks that
  same instant when it starts and every :data:`POLL_INTERVAL` ticks
  after that.  An engine or executor built without a methodology opens
  its own window.
* ``max_events`` bounds one detailed-engine run.

Two guards need no configuration: the executor's ``max_steps`` cap
(a runaway loop is an :class:`~repro.errors.ExecutionError` of its
warp) and the engine's barrier-deadlock check
(:class:`~repro.errors.SimulationStalled`).
"""

from __future__ import annotations

import dataclasses
import math
import time as _time
from dataclasses import dataclass
from typing import Optional

from ..errors import BudgetExceeded, ConfigError
from ..obs import RELIABILITY_WATCHDOG, EventBus

#: ticks between two wall-clock polls of a deadline
POLL_INTERVAL = 4096


@dataclass(frozen=True)
class WatchdogConfig:
    """Budgets of one evaluation.  ``None`` disables a limit."""

    # detailed engine: scheduled events processed in one kernel run
    max_events: Optional[int] = None
    # host wall-clock budget of one evaluation, in seconds
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("max_events", "deadline_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be positive, got {value!r}")

    def per_task(self, n_tasks: int, jobs: int = 1) -> "WatchdogConfig":
        """Split the wall-clock deadline across a sweep's tasks.

        A sweep-level deadline becomes a per-task budget by dividing it
        over the longest task chain any single worker executes
        (``ceil(n_tasks / jobs)``).  The event budget is already per
        run and passes through unchanged; a config with no deadline is
        returned as-is.
        """
        if n_tasks < 1:
            raise ConfigError(f"n_tasks must be >= 1, got {n_tasks!r}")
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs!r}")
        if self.deadline_seconds is None:
            return self
        chain = math.ceil(n_tasks / jobs)
        return dataclasses.replace(
            self, deadline_seconds=self.deadline_seconds / chain)


def deadline_of(watchdog: Optional[WatchdogConfig]) -> Optional[float]:
    """The ``time.monotonic()`` instant a deadline window opened now
    closes, or None when ``watchdog`` sets no deadline."""
    if watchdog is None or watchdog.deadline_seconds is None:
        return None
    return _time.monotonic() + watchdog.deadline_seconds


class Watchdog:
    """The budget of one guarded loop: a tick counter checked against an
    event budget and polled against a deadline instant.  A trip is
    announced on ``bus`` — the bus of the engine or executor whose loop
    it guards — or nowhere without one."""

    __slots__ = ("label", "unit", "deadline", "budget", "bus", "ticks",
                 "_next_poll")

    def __init__(self, label: str, unit: str,
                 deadline: Optional[float] = None,
                 budget: Optional[int] = None,
                 bus: Optional[EventBus] = None):
        self.label = label
        self.unit = unit
        self.deadline = deadline
        self.budget = budget
        self.bus = bus
        self.ticks = 0
        self._next_poll = 1     # the first tick polls the deadline

    def _trip(self, reason: str) -> None:
        """Announce an imminent trip (the raise path only, so the hot
        loop never pays for it)."""
        bus = self.bus
        if bus is not None:
            bus.emit(RELIABILITY_WATCHDOG, self.label, self.unit,
                     self.ticks, reason)
            bus.metrics.counter("watchdog.trips").inc()

    def tick(self, n: int = 1) -> None:
        """Account ``n`` units of work; raise when a budget is exhausted."""
        self.ticks += n
        if self.budget is not None and self.ticks > self.budget:
            self._trip("budget")
            raise BudgetExceeded(
                f"{self.label}: exceeded budget of {self.budget} "
                f"{self.unit}")
        if self.deadline is not None and self.ticks >= self._next_poll:
            self._next_poll = self.ticks + POLL_INTERVAL
            late = _time.monotonic() - self.deadline
            if late > 0:
                self._trip("deadline")
                raise BudgetExceeded(
                    f"{self.label}: wall-clock deadline passed "
                    f"{late:.3f}s ago, after {self.ticks} {self.unit}")
