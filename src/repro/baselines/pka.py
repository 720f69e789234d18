"""Principal Kernel Analysis (PKA) baseline [Avalos Baddouh et al.,
MICRO 2021], as implemented for comparison in the paper's Figure 13.

PKA accelerates GPU simulation in two ways:

* **Principal kernel selection** — kernels are profiled up-front
  (feature counts: dynamic instruction mix and warp count) and clustered;
  only one representative per cluster is simulated in detail and the
  rest are projected from it.  The paper criticises exactly this
  hand-picked-feature clustering (Observation 5): "completely different
  kernels may be clustered together due to similar feature counts".
* **Intra-kernel IPC stability** — during detailed simulation, PKA
  monitors the IPC over the last 3000 cycles; once its coefficient of
  variation drops below ``s = 0.25``, detailed simulation stops and the
  kernel's time is extrapolated as ``total_insts / stable_ipc``.  The
  paper's Observation 2 shows this assumption fails for workloads whose
  IPC never stabilises (MM) or whose tail behaviour differs from the
  sampled prefix (AES).

Unlike Photon, PKA requires the total instruction count up front, which
we obtain the way PKA's profiler does — by fast-forwarding every warp
functionally before detailed simulation (its wall-time cost is charged
to PKA).
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config.gpu_configs import GpuConfig
from ..errors import ConfigError
from ..functional.kernel import Kernel
from ..obs import ENGINE_BB, ENGINE_WARP_RETIRE
from ..timing.engine import DetailedEngine
from ..timing.simulator import KernelResult, Methodology


@dataclass(frozen=True)
class PkaConfig:
    """PKA parameters (defaults from the original paper / Photon §6.1)."""

    s: float = 0.25  # IPC coefficient-of-variation threshold
    window_cycles: float = 3000.0  # IPC history examined
    bucket_cycles: float = 100.0  # IPC sampling granularity
    kernel_distance: float = 0.05  # feature-count cluster radius
    enable_kernel_clustering: bool = True

    def __post_init__(self) -> None:
        if self.s <= 0:
            raise ConfigError("PKA threshold s must be positive")
        if self.bucket_cycles <= 0 or self.window_cycles <= 0:
            raise ConfigError("PKA window parameters must be positive")
        if self.window_cycles < 2 * self.bucket_cycles:
            raise ConfigError("window must cover at least two buckets")

    @property
    def history_buckets(self) -> int:
        return int(self.window_cycles / self.bucket_cycles)


class IpcStabilityMonitor:
    """Aborts detailed simulation once windowed IPC stabilises."""

    def __init__(self, config: PkaConfig):
        self.config = config
        self._engine: Optional[DetailedEngine] = None
        self.stable_ipc: Optional[float] = None
        self.stop_time: Optional[float] = None
        self._checked_through = 0

    def watch(self, engine: DetailedEngine) -> None:
        """Observe ``engine``'s run; a stable IPC aborts it."""
        self._engine = engine
        engine.subscribe(ENGINE_BB, self.on_bb_complete)
        engine.subscribe(ENGINE_WARP_RETIRE, self.on_warp_retired)

    def _check(self) -> None:
        if self.stable_ipc is not None or self._engine is None:
            return
        series = getattr(self._engine, "live_ipc_series", None)
        if series is None:
            return
        bucket = self.config.bucket_cycles
        complete = int(self._engine.now // bucket)
        if complete <= self._checked_through:
            return
        self._checked_through = complete
        history = self.config.history_buckets
        if complete < history:
            return
        window = series[complete - history : complete]
        if len(window) < history:
            return
        mean = sum(window) / history
        if mean <= 0:
            return
        var = sum((x - mean) ** 2 for x in window) / history
        cv = math.sqrt(var) / mean
        if cv < self.config.s:
            self.stable_ipc = mean / bucket
            self.stop_time = self._engine.now
            self._engine.request_abort()

    # IPC is re-checked at basic-block and warp completions — frequent
    # enough to track the 100-cycle bucket granularity closely
    def on_bb_complete(self, warp_id, bb_pc, start, end) -> None:
        self._check()

    def on_warp_retired(self, warp_id, dispatch, retire) -> None:
        self._check()


@dataclass
class _KernelFeatures:
    """PKA's hand-picked kernel features: instruction mix + warp count."""

    mix: np.ndarray  # normalised dynamic opcode histogram
    n_warps: int
    total_insts: int
    sim_time: float = 0.0


def feature_distance(a: _KernelFeatures, b: _KernelFeatures) -> float:
    """Relative L1 distance between two kernels' instruction mixes."""
    if a.mix.shape != b.mix.shape:
        return float("inf")
    return float(np.abs(a.mix - b.mix).sum() / 2.0)


class PKA(Methodology):
    """The PKA baseline simulator (same interface as :class:`Photon`)."""

    name = "pka"

    def __init__(self, gpu_config: GpuConfig,
                 config: Optional[PkaConfig] = None, **shared):
        super().__init__(gpu_config, **shared)
        self.config = config or PkaConfig()
        self._clusters: List[_KernelFeatures] = []

    def simulate_kernel(self, kernel: Kernel) -> KernelResult:
        """Simulate one kernel with PKA's selection + IPC extrapolation."""
        t0 = _time.perf_counter()
        features = self._profile(kernel)

        if self.config.enable_kernel_clustering:
            match = self._match(features)
            if match is not None:
                scale = (features.total_insts / match.total_insts
                         if match.total_insts else 1.0)
                result = KernelResult(
                    kernel_name=kernel.name,
                    sim_time=match.sim_time * scale,
                    wall_seconds=_time.perf_counter() - t0,
                    n_insts=features.total_insts,
                    mode="pka-kernel",
                    detail_insts=0,
                )
                return result

        engine = self.engine(kernel, ipc_bucket=self.config.bucket_cycles)
        monitor = IpcStabilityMonitor(self.config)
        monitor.watch(engine)
        detailed = engine.run()

        if monitor.stable_ipc is not None:
            sim_time = features.total_insts / monitor.stable_ipc
            mode = "pka-ipc"
        else:
            sim_time = detailed.end_time
            mode = "pka-full"
        features.sim_time = sim_time
        self._clusters.append(features)
        return KernelResult(
            kernel_name=kernel.name,
            sim_time=sim_time,
            wall_seconds=_time.perf_counter() - t0,
            n_insts=features.total_insts,
            mode=mode,
            detail_insts=detailed.n_insts,
        )

    # -- internals -----------------------------------------------------------

    def _profile(self, kernel: Kernel) -> _KernelFeatures:
        """Up-front fast-forward profiling of every warp (PKA's cost)."""
        program = kernel.program
        # per-block static opcode histograms, aggregated by dynamic counts
        n_ops = 64  # opcode ids fit comfortably
        block_hist: Dict[int, np.ndarray] = {}
        for block in program.blocks:
            hist = np.zeros(n_ops)
            for inst in program.instructions[block.start : block.end]:
                hist[inst.opcode.value % n_ops] += 1
            block_hist[block.pc] = hist
        mix = np.zeros(n_ops)
        total = 0
        for _, trace in self.control_traces(kernel, range(kernel.n_warps)):
            total += trace.n_insts
            for pc, count in trace.bb_counts().items():
                mix += count * block_hist[pc]
        norm = mix.sum()
        if norm > 0:
            mix = mix / norm
        return _KernelFeatures(mix=mix, n_warps=kernel.n_warps,
                               total_insts=total)

    def _match(self, features: _KernelFeatures) -> Optional[_KernelFeatures]:
        best = None
        best_dist = self.config.kernel_distance
        for candidate in self._clusters:
            dist = feature_distance(features, candidate)
            if dist < best_dist:
                best = candidate
                best_dist = dist
        return best
