"""SimGuard: watchdogs and disk-fault injection.

The reliability layer gives the simulation stack two guarantees:

* **bounded execution** — :class:`WatchdogConfig` budgets (one
  wall-clock deadline per evaluation, events per engine run) enforced
  inside the detailed engine and the functional executor;
* **provable durability** — :class:`FsFaultPlan` injects deterministic
  filesystem faults (ENOSPC, short writes, torn writes) so every
  durable-write recovery path can be exercised by tests.

An error raised while simulating — a watchdog trip, an out-of-bounds
access of a kernel, a timing-model inconsistency, in any sampling level
of any methodology — has one recovery path: the evaluation harness
isolates it into a *failed* table row (error class and message), and
``repro sweep --resume`` re-runs failed tasks.  Every simulated quantity
is a pure function of (workload, seed, configuration), so a re-run is
all an in-place retry would have been.

See ``docs/robustness.md`` for the full knob reference.
"""

from .fsfaults import (
    FS_FAULT_MODES,
    FsFaultPlan,
    FsFaultSpec,
    current_fs_faults,
    scoped_fs_faults,
)
from .watchdog import Watchdog, WatchdogConfig

__all__ = [
    "FS_FAULT_MODES",
    "FsFaultPlan",
    "FsFaultSpec",
    "Watchdog",
    "WatchdogConfig",
    "current_fs_faults",
    "scoped_fs_faults",
]
