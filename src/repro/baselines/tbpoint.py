"""TBPoint baseline [Huang et al., IPDPS 2014].

TBPoint reduces GPGPU simulation time by sampling at *thread-block*
(workgroup) granularity: it simulates a prefix of a kernel's thread
blocks in detail and extrapolates the rest once per-block behaviour is
judged stable, using IPC-style stability signals plus inter-kernel
clustering on profiled features.

The paper groups TBPoint with PKA: "to speed up simulation, they
require stable values for intra-kernel IPCs ... there are a number of
applications where this does not hold".  Our implementation captures
that essential mechanism at workgroup granularity:

* detailed-simulate workgroups as dispatched, tracking each retired
  workgroup's duration (first warp dispatch → last warp retire);
* once the last ``window`` workgroup durations have a coefficient of
  variation below ``cv_threshold``, stop dispatch and predict every
  remaining workgroup with the window's mean duration through the
  scheduler-only model.

Like PKA (and unlike Photon), this keys on a stability assumption that
irregular workloads violate: workgroups of heavy-tailed SpMV rows never
produce a low-CV window, so TBPoint degenerates to full detail there.
"""

from __future__ import annotations

import math
import time as _time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional

from ..config.gpu_configs import GpuConfig
from ..errors import ConfigError
from ..functional.kernel import Kernel
from ..obs import ENGINE_WARP_DISPATCH, ENGINE_WARP_RETIRE
from ..timing.engine import DetailedEngine
from ..timing.fastmodel import schedule_only
from ..timing.simulator import KernelResult, Methodology


@dataclass(frozen=True)
class TBPointConfig:
    """TBPoint parameters."""

    window: int = 32  # workgroups in the stability window
    cv_threshold: float = 0.05  # CV below which blocks are "stable"

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ConfigError("window must be >= 2")
        if self.cv_threshold <= 0:
            raise ConfigError("cv_threshold must be positive")


class _WorkgroupMonitor:
    """Tracks workgroup completion times and stops on stability."""

    def __init__(self, kernel: Kernel, config: TBPointConfig):
        self.kernel = kernel
        self.config = config
        self._dispatch: Dict[int, float] = {}  # wg -> earliest dispatch
        self._remaining: Dict[int, int] = {}  # wg -> warps outstanding
        self._durations: deque = deque(maxlen=config.window)
        self._engine: Optional[DetailedEngine] = None
        self.stable_mean: Optional[float] = None

    def watch(self, engine: DetailedEngine) -> None:
        """Observe ``engine``'s run; stable workgroups stop its dispatch."""
        self._engine = engine
        engine.subscribe(ENGINE_WARP_DISPATCH, self.on_warp_dispatched)
        engine.subscribe(ENGINE_WARP_RETIRE, self.on_warp_retired)

    def on_warp_dispatched(self, warp_id: int, time: float) -> None:
        wg = self.kernel.workgroup_of(warp_id)
        if wg not in self._dispatch:
            self._dispatch[wg] = time
            self._remaining[wg] = len(self.kernel.warps_in_workgroup(wg))

    def on_warp_retired(self, warp_id: int, dispatch: float,
                        retire: float) -> None:
        if self.stable_mean is not None:
            return
        wg = self.kernel.workgroup_of(warp_id)
        self._remaining[wg] -= 1
        if self._remaining[wg]:
            return
        self._durations.append(retire - self._dispatch[wg])
        if len(self._durations) < self.config.window:
            return
        mean = sum(self._durations) / len(self._durations)
        if mean <= 0:
            return
        var = sum((d - mean) ** 2
                  for d in self._durations) / len(self._durations)
        if math.sqrt(var) / mean < self.config.cv_threshold:
            self.stable_mean = mean
            if self._engine is not None:
                self._engine.request_stop()


class TBPoint(Methodology):
    """Workgroup-granularity sampled simulation (same interface as
    :class:`~repro.core.Photon`)."""

    name = "tbpoint"

    def __init__(self, gpu_config: GpuConfig,
                 config: Optional[TBPointConfig] = None, **shared):
        super().__init__(gpu_config, **shared)
        self.config = config or TBPointConfig()

    def simulate_kernel(self, kernel: Kernel) -> KernelResult:
        """Simulate one kernel, extrapolating stable workgroups."""
        t0 = _time.perf_counter()
        engine = self.engine(kernel)
        monitor = _WorkgroupMonitor(kernel, self.config)
        monitor.watch(engine)
        detailed = engine.run()

        if monitor.stable_mean is None or not detailed.undispatched:
            return KernelResult(
                kernel_name=kernel.name,
                sim_time=detailed.end_time,
                wall_seconds=_time.perf_counter() - t0,
                n_insts=detailed.n_insts,
                mode="tbpoint-full",
                detail_insts=detailed.n_insts,
            )

        remaining = detailed.undispatched
        # every remaining warp inherits its workgroup's mean duration
        durations = {warp_id: monitor.stable_mean for warp_id in remaining}
        fast = schedule_only(
            kernel, remaining, durations, self.gpu_config,
            start_time=detailed.stop_time,
            cu_slot_free=detailed.cu_slot_free,
        )
        predicted_insts = sum(
            trace.n_insts
            for trace in self.control_traces(kernel, remaining).values())
        result = KernelResult(
            kernel_name=kernel.name,
            sim_time=max(detailed.end_time, fast.end_time),
            wall_seconds=_time.perf_counter() - t0,
            n_insts=detailed.n_insts + predicted_insts,
            mode="tbpoint",
            detail_insts=detailed.n_insts,
        )
        result.meta["workgroups_predicted"] = len(
            {kernel.workgroup_of(w) for w in remaining})
        return result
