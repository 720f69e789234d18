"""Deterministic fault injection for exercising recovery paths.

A :class:`FaultPlan` is a list of :class:`FaultSpec` triggers.  Code
that supports injection calls :meth:`FaultPlan.arm` at a named *site*
every time execution passes that point; the plan counts arrivals per
spec and raises the configured error on the configured visit.  Because
the simulator itself is deterministic, a plan makes every failure
reproducible — tests use it to prove each degradation edge.

Instrumented sites (see ``docs/robustness.md``):

``analysis.store``
    Reading a cached entry from the :class:`AnalysisStore` (a raised
    fault models a corrupted entry; the controller quarantines it).
``level.kernel`` / ``level.warp`` / ``level.bb``
    Entering the corresponding sampling level's prediction path.
``detector.bb`` / ``detector.warp``
    The moment a detector decides to switch (a raised fault models a
    detector misfire mid-run).
``executor.memory``
    Each global-memory instruction in the functional executor's FULL
    mode (models a memory fault).
``harness.method``
    Start of one method's run inside the evaluation harness (the
    ``kernel`` filter matches the *method* name here).

Filesystem sites (``tracestore.bundle``, ``tracestore.analysis``,
``sweep.journal``) are armed by the durable-write layer through the
companion :class:`~repro.reliability.fsfaults.FsFaultPlan`, which
models ENOSPC / short / torn writes rather than raising at a logic
site — see ``docs/durability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Type

from ..errors import InjectedFault, ReproError
from ..obs import RELIABILITY_FAULT, current_bus


@dataclass
class FaultSpec:
    """One deterministic trigger: fire at the ``at``-th arming of ``site``.

    ``count`` consecutive armings fire starting at ``at`` (1-based).
    ``kernel`` restricts matching to one kernel (or harness method) name.
    ``error`` is the exception class raised; the default
    :class:`~repro.errors.InjectedFault` is recoverable (a
    ``SamplingError``).  ``level`` overrides the sampling level the
    controller attributes the failure to; when ``None`` the arming site
    supplies it.
    """

    site: str
    error: Type[ReproError] = InjectedFault
    message: str = ""
    at: int = 1
    count: int = 1
    kernel: Optional[str] = None
    level: Optional[str] = None
    hits: int = field(default=0, compare=False)

    def matches(self, site: str, kernel: Optional[str]) -> bool:
        if site != self.site:
            return False
        return self.kernel is None or self.kernel == kernel

    def should_fire(self) -> bool:
        """Count one arming; report whether this visit fires."""
        self.hits += 1
        return self.at <= self.hits < self.at + self.count


class FaultPlan:
    """An ordered set of fault specs plus a record of fired faults."""

    def __init__(self, *specs: FaultSpec):
        self.specs: List[FaultSpec] = list(specs)
        # (site, error class name, kernel/method) per fired fault
        self.fired: List[Tuple[str, str, Optional[str]]] = []

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def arm(self, site: str, kernel: Optional[str] = None,
            level: Optional[str] = None) -> None:
        """Pass through injection point ``site``; raise if a spec fires."""
        for spec in self.specs:
            if not spec.matches(site, kernel):
                continue
            if not spec.should_fire():
                continue
            message = spec.message or (
                f"injected fault at {site}"
                + (f" (kernel {kernel})" if kernel else ""))
            error = spec.error(message)
            error.photon_level = spec.level if spec.level else level
            self.fired.append((site, type(error).__name__, kernel))
            bus = current_bus()
            bus.emit(RELIABILITY_FAULT, site, type(error).__name__, kernel)
            bus.metrics.counter("faults.fired").inc()
            raise error

    def __len__(self) -> int:
        return len(self.specs)
