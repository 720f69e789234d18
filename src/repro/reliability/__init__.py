"""SimGuard: watchdogs, fault injection, and graceful degradation.

The reliability layer gives the simulation stack three guarantees:

* **bounded execution** — :class:`WatchdogConfig` budgets (events,
  instructions, wall-clock deadline, stall detection) enforced inside
  the detailed engine and the functional executor;
* **provable recovery** — :class:`FaultPlan` injects deterministic
  faults at named sites so every degradation path can be exercised by
  tests, and :class:`FsFaultPlan` extends the same idea to the
  filesystem (ENOSPC, short writes, torn writes) so every durable-write
  recovery path can be proven too;
* **graceful degradation** — the Photon controller falls back
  level-by-level (``bb → warp → kernel → full``) on recoverable errors
  and records each step as a :class:`FallbackEvent` in the result's
  error ledger.

What the ladder and the watchdogs cannot absorb has one recovery path:
the evaluation harness isolates the failure into a *failed* table row
(error class and message), and ``repro sweep --resume`` re-runs failed
tasks.  Every simulated quantity is a pure function of (workload, seed,
configuration), so a re-run is all an in-place retry would have been.

See ``docs/robustness.md`` for the full knob reference.
"""

from .faults import FaultPlan, FaultSpec
from .fsfaults import (
    FS_FAULT_MODES,
    FsFaultPlan,
    FsFaultSpec,
    current_fs_faults,
    scoped_fs_faults,
)
from .ledger import FALLBACK_CHAIN, FallbackEvent
from .watchdog import Watchdog, WatchdogConfig

__all__ = [
    "FALLBACK_CHAIN",
    "FS_FAULT_MODES",
    "FaultPlan",
    "FaultSpec",
    "FallbackEvent",
    "FsFaultPlan",
    "FsFaultSpec",
    "Watchdog",
    "WatchdogConfig",
    "current_fs_faults",
    "scoped_fs_faults",
]
