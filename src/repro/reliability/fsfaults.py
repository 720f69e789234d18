"""Deterministic filesystem fault injection for the durability layer.

Durable-write code must survive a disk that fills up (``ENOSPC``),
lands only a prefix of the payload before failing (a short write), or
a process that dies with a partial payload already on disk (a torn
write).  This module injects those failures at the filesystem sites
consulted by :func:`repro.durable.durable_replace` /
``durable_append``:

``tracestore.bundle``
    ``tracestore.store`` writing a warp-trace bundle.
``tracestore.analysis``
    ``tracestore.store`` writing one online analysis beside a bundle.
``sweep.journal``
    ``repro.parallel.journal`` appending a write-ahead record.

An :class:`FsFaultSpec` names a site (or ``"*"``), a ``mode`` and the
arrival (``at``/``count``) it fires on.  Modes:

``enospc``
    No bytes land; ``OSError(ENOSPC)`` is raised (full disk).
``short``
    A prefix of the payload lands, then ``OSError(ENOSPC)`` — the disk
    filled mid-write.
``torn``
    A prefix lands, then :class:`~repro.errors.DiskFault` — modelling a
    crash/power loss mid-write.  Tests catch ``DiskFault`` where a real
    deployment would have lost the process, then drive recovery.

Like the simulator itself, injection is deterministic: the same plan
against the same run fires at the same dynamic write.  Install a plan
with :func:`scoped_fs_faults`; each fired spec is recorded on
``plan.fired`` and emitted as a ``reliability.fault`` bus event.
"""

from __future__ import annotations

import errno
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from ..errors import ConfigError, DiskFault
from ..obs import RELIABILITY_FAULT, current_bus

#: supported failure modes, in docs order
FS_FAULT_MODES = ("enospc", "short", "torn")


@dataclass
class FsFaultSpec:
    """One deterministic filesystem trigger.

    Fires on the ``at``-th write arriving at ``site`` (1-based), for
    ``count`` consecutive writes.  ``site="*"`` matches every durable
    write.  ``fraction`` is how much of the payload reaches disk in
    ``short``/``torn`` mode (rounded down to whole bytes).
    """

    site: str
    mode: str = "torn"
    at: int = 1
    count: int = 1
    fraction: float = 0.5
    hits: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in FS_FAULT_MODES:
            raise ConfigError(
                f"unknown fs fault mode {self.mode!r}; "
                f"choose from {FS_FAULT_MODES}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigError(
                f"fraction must be in [0, 1], got {self.fraction!r}")

    def matches(self, site: str) -> bool:
        return self.site in ("*", site)

    def should_fire(self) -> bool:
        """Count one arming; report whether this write fires."""
        self.hits += 1
        return self.at <= self.hits < self.at + self.count


class FsFaultPlan:
    """An ordered set of filesystem fault specs plus a fired record."""

    def __init__(self, *specs: FsFaultSpec):
        self.specs: List[FsFaultSpec] = list(specs)
        # (site, mode, path name) per fired fault
        self.fired: List[Tuple[str, str, str]] = []

    def add(self, spec: FsFaultSpec) -> "FsFaultPlan":
        self.specs.append(spec)
        return self

    def arm_write(self, site: str, path: Path,
                  data: bytes) -> Tuple[bytes, Optional[BaseException]]:
        """Pass one durable write through the plan.

        Returns ``(bytes_that_reach_disk, failure)``.  The caller must
        write the returned bytes first and raise ``failure`` (if any)
        *after* the partial payload is flushed, so torn/short writes
        leave exactly the modelled state on disk.
        """
        for spec in self.specs:
            if not spec.matches(site):
                continue
            if not spec.should_fire():
                continue
            self.fired.append((site, spec.mode, path.name))
            bus = current_bus()
            bus.emit(RELIABILITY_FAULT, site, f"fs.{spec.mode}", path.name)
            bus.metrics.counter("faults.fs_fired").inc()
            if spec.mode == "enospc":
                return b"", OSError(errno.ENOSPC,
                                    f"injected ENOSPC at {site}")
            landed = data[:int(len(data) * spec.fraction)]
            if spec.mode == "short":
                return landed, OSError(
                    errno.ENOSPC, f"injected short write at {site} "
                    f"({len(landed)}/{len(data)} bytes landed)")
            return landed, DiskFault(
                f"injected torn write at {site} "
                f"({len(landed)}/{len(data)} bytes landed)")
        return data, None

    def __len__(self) -> int:
        return len(self.specs)


#: process-wide active plan; None = faults disabled (the fast path)
_CURRENT: Optional[FsFaultPlan] = None


def current_fs_faults() -> Optional[FsFaultPlan]:
    """The installed fault plan, or None when injection is off."""
    return _CURRENT


def arm_fs_write(site: str, path: Path,
                 data: bytes) -> Tuple[bytes, Optional[BaseException]]:
    """Hook called by every durable write; no-op without a plan."""
    plan = _CURRENT
    if plan is None:
        return data, None
    return plan.arm_write(site, path, data)


@contextmanager
def scoped_fs_faults(plan: Optional[FsFaultPlan]) -> Iterator[None]:
    """Install ``plan`` as the active filesystem fault plan."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = plan
    try:
        yield
    finally:
        _CURRENT = previous
