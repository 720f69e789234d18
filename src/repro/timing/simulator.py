"""Results, the base every methodology shares, and full detail.

:class:`Methodology` is what Photon, the baselines and full detail have
in common: one cache hierarchy kept warm across an application's
launches (as an execution-driven simulator would), one watchdog, one
bus and one optional trace cache that reach *every* engine (and, the
first two, *every* CONTROL profiling pass) the methodology starts, and
the application loop.  A methodology implements
:meth:`~Methodology.simulate_kernel`; everything else is inherited.

:meth:`Methodology.engine` is the one place a detailed run is wired:
observers register on the engine it returns
(:meth:`~repro.timing.engine.DetailedEngine.subscribe`), traces come
from the methodology's trace cache.  :class:`FullDetail` is the
methodology that runs every instruction in detail — the baseline every
other one is compared against; :func:`simulate_kernel_detailed` and
:func:`simulate_app_detailed` are its one-call forms.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..config.gpu_configs import GpuConfig
from ..functional.batch import control_traces
from ..functional.kernel import Application, Kernel
from ..functional.trace import ControlTrace
from ..obs import EventBus, current_bus
from ..reliability.ledger import FallbackEvent
from ..reliability.watchdog import WatchdogConfig
from .caches import MemoryHierarchy
from .engine import DetailedEngine
from .tracecache import TraceCache


@dataclass
class KernelResult:
    """Simulated outcome of one kernel under one methodology."""

    kernel_name: str
    sim_time: float  # predicted/measured kernel execution time (cycles)
    wall_seconds: float  # host wall time spent producing the estimate
    n_insts: int  # dynamic instructions (detailed + predicted)
    mode: str  # "full", "bb", "warp", "kernel", "pka", ...
    detail_insts: int = 0  # instructions actually simulated in detail
    meta: Dict[str, object] = field(default_factory=dict)
    # error ledger: every fallback/recovery absorbed producing this result
    errors: List[FallbackEvent] = field(default_factory=list)

    @property
    def detail_fraction(self) -> float:
        """Fraction of instructions simulated in detailed mode."""
        if self.n_insts == 0:
            return 0.0
        return self.detail_insts / self.n_insts

    @property
    def degraded(self) -> bool:
        """Whether any sampling level had to fall back for this kernel."""
        return bool(self.errors)


@dataclass
class AppResult:
    """Simulated outcome of a whole application."""

    app_name: str
    method: str
    kernels: List[KernelResult] = field(default_factory=list)

    @property
    def sim_time(self) -> float:
        """Total predicted execution time (cycles) across all kernels."""
        return sum(k.sim_time for k in self.kernels)

    @property
    def wall_seconds(self) -> float:
        """Total host wall time across all kernels."""
        return sum(k.wall_seconds for k in self.kernels)

    @property
    def n_insts(self) -> int:
        return sum(k.n_insts for k in self.kernels)

    @property
    def n_kernels(self) -> int:
        return len(self.kernels)

    def mode_counts(self) -> Dict[str, int]:
        """How many kernels used each sampling mode."""
        counts: Dict[str, int] = {}
        for k in self.kernels:
            counts[k.mode] = counts.get(k.mode, 0) + 1
        return counts

    @property
    def errors(self) -> List[FallbackEvent]:
        """Aggregated error ledger across every kernel of the app."""
        return [event for k in self.kernels for event in k.errors]


class Methodology:
    """One simulation methodology: shared state plus the application loop.

    Subclasses implement :meth:`simulate_kernel` and start detailed
    engines and CONTROL profiling passes only through :meth:`engine` and
    :meth:`control_traces`, so the watchdog budgets and the bus bound
    every phase of every methodology, and ``trace_cache`` (say, one
    backed by ``--trace-store``) serves every engine, by construction.
    """

    #: label of the :class:`AppResult` when the caller names none
    name = ""

    def __init__(self, gpu_config: GpuConfig,
                 watchdog: Optional[WatchdogConfig] = None,
                 bus: Optional[EventBus] = None,
                 trace_cache: Optional[TraceCache] = None):
        self.gpu_config = gpu_config
        self.watchdog = watchdog
        self.bus = bus if bus is not None else current_bus()
        self.trace_cache = trace_cache
        self.hierarchy = MemoryHierarchy(gpu_config)

    def engine(self, kernel: Kernel, **options) -> DetailedEngine:
        """A detailed engine over the shared hierarchy, budgeted, fed
        by the trace cache; observers ``subscribe`` on what it returns."""
        cache = self.trace_cache
        return DetailedEngine(
            kernel, self.gpu_config, hierarchy=self.hierarchy,
            trace_provider=None if cache is None else cache.provider(kernel),
            watchdog=self.watchdog, bus=self.bus, **options)

    def control_traces(self, kernel: Kernel,
                       warp_ids: Iterable[int]) -> Dict[int, ControlTrace]:
        """A CONTROL fast-forward of ``warp_ids``, budgeted."""
        return control_traces(kernel, warp_ids, watchdog=self.watchdog,
                              bus=self.bus)

    def simulate_kernel(self, kernel: Kernel) -> KernelResult:
        raise NotImplementedError

    def simulate_app(self, app: Application,
                     method_name: str = "") -> AppResult:
        """Simulate a whole application kernel by kernel (warm caches)."""
        result = AppResult(app_name=app.name,
                           method=method_name or self.name)
        for kernel in app.kernels:
            self.hierarchy.reset_timing()
            result.kernels.append(self.simulate_kernel(kernel))
        return result


class FullDetail(Methodology):
    """Every instruction of every warp in detailed mode."""

    name = "full"

    def simulate_kernel(self, kernel: Kernel,
                        ipc_bucket: Optional[float] = None) -> KernelResult:
        start = _time.perf_counter()
        res = self.engine(kernel, ipc_bucket=ipc_bucket).run()
        result = KernelResult(
            kernel_name=kernel.name,
            sim_time=res.end_time,
            wall_seconds=_time.perf_counter() - start,
            n_insts=res.n_insts,
            mode="full",
            detail_insts=res.n_insts,
        )
        result.meta["mem_stats"] = res.mem_stats
        result.meta["warp_times"] = res.warp_times
        if res.ipc_series is not None:
            result.meta["ipc_series"] = res.ipc_series
            result.meta["ipc_bucket"] = res.ipc_bucket
        return result


def simulate_kernel_detailed(
    kernel: Kernel,
    config: GpuConfig,
    hierarchy: Optional[MemoryHierarchy] = None,
    ipc_bucket: Optional[float] = None,
    watchdog: Optional[WatchdogConfig] = None,
    bus: Optional[EventBus] = None,
) -> KernelResult:
    """Run ``kernel`` fully in detailed mode."""
    full = FullDetail(config, watchdog=watchdog, bus=bus)
    if hierarchy is not None:
        full.hierarchy = hierarchy
    return full.simulate_kernel(kernel, ipc_bucket=ipc_bucket)


def simulate_app_detailed(
    app: Application,
    config: GpuConfig,
    watchdog: Optional[WatchdogConfig] = None,
    bus: Optional[EventBus] = None,
) -> AppResult:
    """Run every kernel of ``app`` fully in detailed mode (warm caches)."""
    return FullDetail(config, watchdog=watchdog, bus=bus).simulate_app(app)
