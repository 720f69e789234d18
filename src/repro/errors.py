"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class IsaError(ReproError):
    """Malformed instruction, operand, or program."""


class AssemblyError(IsaError):
    """Raised by the kernel builder for unresolved labels or bad operands."""


class ExecutionError(ReproError):
    """Raised by the functional simulator for runtime faults."""


class MemoryFault(ExecutionError):
    """Out-of-bounds or unallocated global-memory access."""


class TimingError(ReproError):
    """Internal inconsistency in the timing model (causality violation etc.)."""


class SamplingError(ReproError):
    """Photon or baseline sampling failed in an unrecoverable way."""


class ConfigError(ReproError):
    """Invalid simulator or methodology configuration."""


class ReliabilityError(ReproError):
    """Base class for watchdog trips and other reliability-layer errors."""


class BudgetExceeded(ReliabilityError):
    """A watchdog budget was exhausted (events, deadline)."""


class SimulationStalled(ReliabilityError):
    """The simulation stopped making progress (barrier deadlock)."""


class DiskFault(ReproError):
    """Injected filesystem failure simulating a crash mid-write.

    Raised by the :mod:`repro.reliability.fsfaults` layer *after* a
    partial payload has reached the file, so the bytes on disk model a
    torn write exactly: tests catch this error where a real deployment
    would have lost the process, then drive the recovery path.
    """


class WorkloadError(ReproError):
    """Invalid workload parameters (e.g. non-positive problem size)."""
