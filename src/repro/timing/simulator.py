"""Results, the base every methodology shares, and full detail.

:class:`Methodology` is what Photon, the baselines and full detail have
in common: one cache hierarchy kept warm across an application's
launches (as an execution-driven simulator would), one watchdog — its
deadline one instant for the whole evaluation — one bus and one
optional trace cache that reach *every* engine (and, the first two,
*every* functional fill) the methodology starts, and the application
loop.  A methodology implements
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
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..config.gpu_configs import GpuConfig
from ..functional.batch import WarpPackExecutor
from ..functional.executor import FunctionalExecutor
from ..functional.kernel import Application, Kernel
from ..functional.trace import ControlTrace
from ..obs import EventBus, current_bus
from ..reliability.watchdog import WatchdogConfig, deadline_of
from .caches import MemoryHierarchy
from .engine import DetailedEngine
from .tracecache import TraceCache

#: warps per CONTROL fill of a fast-forward: bounds the traces held at
#: once, whatever the grid
CONTROL_FILL_WARPS = 2048


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

    @property
    def detail_fraction(self) -> float:
        """Fraction of instructions simulated in detailed mode."""
        if self.n_insts == 0:
            return 0.0
        return self.detail_insts / self.n_insts


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


class Methodology:
    """One simulation methodology: shared state plus the application loop.

    Subclasses implement :meth:`simulate_kernel` and start detailed
    engines and functional passes only through :meth:`engine`,
    :meth:`executor` and :meth:`control_traces`, so the watchdog budgets
    and the bus bound every phase of every methodology, and
    ``trace_cache`` (say, one backed by ``--trace-store``) serves every
    engine, by construction.  The wall-clock deadline is one instant,
    fixed here at construction: every engine run and every fill of the
    evaluation checks that same instant.
    """

    #: label of the :class:`AppResult` when the caller names none
    name = ""

    def __init__(self, gpu_config: GpuConfig,
                 watchdog: Optional[WatchdogConfig] = None,
                 bus: Optional[EventBus] = None,
                 trace_cache: Optional[TraceCache] = None):
        self.gpu_config = gpu_config
        self.watchdog = watchdog
        self.deadline = deadline_of(watchdog)
        self.bus = bus if bus is not None else current_bus()
        self.trace_cache = trace_cache
        self.hierarchy = MemoryHierarchy(gpu_config)

    def engine(self, kernel: Kernel, **options) -> DetailedEngine:
        """A detailed engine over the shared hierarchy, budgeted, fed
        by the trace cache; observers ``subscribe`` on what it returns."""
        cache = self.trace_cache
        return DetailedEngine(
            kernel, self.gpu_config, hierarchy=self.hierarchy,
            trace_provider=(None if cache is None else cache.provider(
                kernel, bus=self.bus, deadline=self.deadline)),
            watchdog=self.watchdog, bus=self.bus, deadline=self.deadline,
            **options)

    def executor(self, kernel: Kernel) -> FunctionalExecutor:
        """A functional executor on the bus, bounded by the deadline."""
        return FunctionalExecutor(kernel, bus=self.bus,
                                  deadline=self.deadline)

    def control_traces(self, kernel: Kernel, warp_ids: Iterable[int],
                       ) -> Iterator[Tuple[int, ControlTrace]]:
        """A CONTROL fast-forward of ``warp_ids``, budgeted: ``(warp_id,
        trace)`` in ``warp_ids`` order, from fills of at most
        :data:`CONTROL_FILL_WARPS` warps, so a caller that folds them as
        they arrive holds one fill's traces, not the grid's."""
        pack = WarpPackExecutor(kernel, executor=self.executor(kernel))
        ids = iter(warp_ids)
        while chunk := list(islice(ids, CONTROL_FILL_WARPS)):
            traces = pack.run_warps_control(chunk)
            for warp_id in chunk:
                yield warp_id, traces[warp_id]

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
