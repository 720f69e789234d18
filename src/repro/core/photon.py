"""The Photon controller: three-level sampled GPU simulation.

Per kernel launch (paper Section 4, Figures 7/10/12):

1. **Online analysis** — functionally simulate a 1% sample of warps
   (fast-forward mode); derive BB distribution, warp-type distribution
   and the kernel's GPU BBV.  No up-front profiling is ever required.
2. **Kernel-sampling** — if a previously simulated kernel has a similar
   GPU BBV (and compatible warp count), skip simulation entirely and
   predict time from its IPC and the extrapolated instruction count.
3. Otherwise, **detailed simulation with detectors attached**: the
   basic-block detector and (if a dominant warp type exists) the warp
   detector run in parallel; whichever declares stability first stops
   workgroup dispatch.
4. **Prediction of the remainder** — warp-sampling predicts every
   remaining warp as the mean of the last window and simulates only the
   scheduler; basic-block-sampling functionally fast-forwards remaining
   warps and sums per-block mean times (rare blocks via the interval
   model), then simulates only the scheduler.
5. If no level triggers, Photon **falls back to full detailed
   simulation** — accuracy is never sacrificed to force a speedup.

Graceful degradation (the reliability layer): when a sampling level
raises a *recoverable* error — a :class:`~repro.errors.SamplingError`
or :class:`~repro.errors.TimingError` attributed to that level — the
controller does not abort.  It disables the failed level (and any finer
level) and re-simulates, walking the chain ``bb → warp → kernel →
full``; full detailed simulation is the always-correct last resort.
Every step is recorded as a :class:`~repro.reliability.FallbackEvent`
in the result's error ledger (``KernelResult.errors``).  Corrupt
analysis-store entries are quarantined and re-analysed rather than
trusted or fatal.

The controller also supports the paper's online/offline trade-off
(Section 6.3): online-analysis results are microarchitecture-agnostic
and are cached in an :class:`AnalysisStore` keyed by what the analysis
reads, so a repeated launch is analysed once, with the same result.
"""

from __future__ import annotations

import time as _time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..config.gpu_configs import GpuConfig
from ..errors import ConfigError, SamplingError, TimingError
from ..functional.kernel import Kernel
from ..obs import RELIABILITY_FALLBACK, EventBus
from ..reliability.faults import FaultPlan
from ..reliability.ledger import FALLBACK_CHAIN, FallbackEvent
from ..reliability.watchdog import WatchdogConfig
from ..timing.fastmodel import schedule_only
from ..timing.simulator import KernelResult, Methodology
from ..timing.tracecache import TraceCache
from .bbv import BBVProjector
from .config import PhotonConfig
from .detectors import BBSamplingDetector, WarpSamplingDetector
from .interval import IntervalModel
from .kerneldb import KernelDB, KernelRecord, MergeStats
from .online import OnlineAnalysis, analysis_key, analyze_kernel

#: recoverable error classes the degradation ladder absorbs
_RECOVERABLE = (SamplingError, TimingError)


class AnalysisStore:
    """Cache of online-analysis results for offline reuse (§6.3)."""

    def __init__(self) -> None:
        self._entries: Dict[str, OnlineAnalysis] = {}
        self.hits = 0
        self.misses = 0
        self.quarantined = 0  # entries dropped as corrupt

    def get(self, key: str) -> Optional[OnlineAnalysis]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def insert(self, key: str, analysis: OnlineAnalysis) -> None:
        self._entries[key] = analysis

    def items(self) -> Iterator[Tuple[str, OnlineAnalysis]]:
        """Iterate ``(key, analysis)`` pairs (the public accessor)."""
        return iter(self._entries.items())

    def discard(self, key: str) -> None:
        """Quarantine the entry under ``key``."""
        if self._entries.pop(key, None) is not None:
            self.quarantined += 1

    def merge(self, other: "AnalysisStore") -> MergeStats:
        """Fold ``other``'s entries into this store, deterministically.

        An online analysis is a function of its key, so two workers
        that analysed the same content hold equal entries — those count
        as ``duplicates`` and are skipped.  A same-key entry with
        *different* content counts as a ``conflict`` and the existing
        entry wins, so merging in task order makes the result
        independent of worker scheduling.

        ``other``'s quarantine count is carried over; hit/miss counters
        are left untouched (they describe this store's own traffic).
        """
        stats = MergeStats()
        for key, analysis in other.items():
            existing = self._entries.get(key)
            if existing is None:
                self._entries[key] = analysis
                stats.added += 1
            elif _analyses_equal(existing, analysis):
                stats.duplicates += 1
            else:
                stats.conflicts += 1
        self.quarantined += other.quarantined
        return stats

    def __len__(self) -> int:
        return len(self._entries)


def _analyses_equal(a: OnlineAnalysis, b: OnlineAnalysis) -> bool:
    """Content equality of two online analyses (numpy-aware); which
    launch was analysed (``kernel_name``) is a label, not content."""
    if a is b:
        return True
    return (a.n_warps == b.n_warps
            and list(a.sample_warp_ids) == list(b.sample_warp_ids)
            and a.sample_insts == b.sample_insts
            and a.mean_insts_per_warp == b.mean_insts_per_warp
            and a.bb_share == b.bb_share
            and a.type_counts == b.type_counts
            and {k: tuple(v) for k, v in a.type_bb_seq.items()}
            == {k: tuple(v) for k, v in b.type_bb_seq.items()}
            and a.type_insts == b.type_insts
            and a.dominant_type == b.dominant_type
            and a.dominant_rate == b.dominant_rate
            and np.array_equal(a.gpu_bbv, b.gpu_bbv))


class Photon(Methodology):
    """Sampled GPU simulator (the paper's contribution).

    One instance carries warm state across an application's kernels: the
    cache hierarchy, the kernel database, the instruction-latency table
    feeding the interval model, and an analysis store (the one given,
    or a private one), so a repeated launch is analysed once.
    ``watchdog`` bounds every internal simulation loop; ``fault_plan``
    deterministically injects failures (tests use it to prove the
    degradation paths).
    """

    name = "photon"

    def __init__(
        self,
        gpu_config: GpuConfig,
        config: Optional[PhotonConfig] = None,
        analysis_store: Optional[AnalysisStore] = None,
        watchdog: Optional[WatchdogConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        kernel_db: Optional[KernelDB] = None,
        bus: Optional[EventBus] = None,
        trace_cache: Optional[TraceCache] = None,
    ):
        super().__init__(gpu_config, watchdog, bus, trace_cache)
        self.config = config or PhotonConfig()
        self.projector = BBVProjector(self.config.bbv_dim)
        if kernel_db is not None:
            # injected warm database (offline reuse / parallel sweeps);
            # must match this simulator's matching parameters or the
            # similarity queries would be answered under foreign rules
            if (kernel_db.distance_threshold != self.config.kernel_distance
                    or kernel_db.n_cu != gpu_config.n_cu):
                raise ConfigError(
                    f"kernel_db parameters (threshold="
                    f"{kernel_db.distance_threshold}, n_cu="
                    f"{kernel_db.n_cu}) do not match the configuration "
                    f"(threshold={self.config.kernel_distance}, "
                    f"n_cu={gpu_config.n_cu})")
            self.kernel_db = kernel_db
        else:
            self.kernel_db = KernelDB(self.config.kernel_distance,
                                      gpu_config.n_cu)
        self.interval_model = IntervalModel(gpu_config)
        self.analysis_store = (analysis_store if analysis_store is not None
                               else AnalysisStore())
        self.fault_plan = fault_plan

    # -- public API --------------------------------------------------------------

    def simulate_kernel(self, kernel: Kernel) -> KernelResult:
        """Simulate one kernel launch with sampling; return its result.

        Recoverable failures inside a sampling level degrade to the next
        level of the chain (ultimately full detailed simulation); each
        degradation is recorded in the result's error ledger.
        """
        t0 = _time.perf_counter()
        ledger: List[FallbackEvent] = []
        allow = {
            "kernel": self.config.enable_kernel_sampling,
            "warp": self.config.enable_warp_sampling,
            "bb": self.config.enable_bb_sampling,
        }
        attempt = 0
        while True:
            attempt += 1
            try:
                result = self._attempt_kernel(kernel, allow, ledger)
                break
            except _RECOVERABLE as exc:
                level = getattr(exc, "photon_level", None)
                if level not in allow or not allow[level]:
                    raise  # not attributable to a disableable level
                self._degrade(kernel, level, allow, ledger, exc)
                # a failed attempt may have half-warmed the cache
                # hierarchy; reset so the retry is deterministic
                self.hierarchy.reset_timing()
        result.errors.extend(ledger)
        result.wall_seconds = _time.perf_counter() - t0
        if attempt > 1:
            result.meta["degraded_attempts"] = attempt
        return result

    # -- degradation ladder ------------------------------------------------------

    def _record_fallback(self, ledger: List[FallbackEvent],
                         event: FallbackEvent) -> None:
        """Append to the ledger and mirror the step onto the bus."""
        ledger.append(event)
        self.bus.emit(RELIABILITY_FALLBACK, event.kernel, event.from_level,
                      event.to_level, event.error)
        self.bus.metrics.counter("photon.fallbacks").inc()

    def _degrade(self, kernel: Kernel, level: str, allow: Dict[str, bool],
                 ledger: List[FallbackEvent], exc: Exception) -> None:
        """Disable ``level`` (and finer levels) after a failure there."""
        idx = FALLBACK_CHAIN.index(level)
        for finer in FALLBACK_CHAIN[:idx + 1]:
            if finer in allow:
                allow[finer] = False
        to_level = next(
            (lv for lv in FALLBACK_CHAIN[idx + 1:-1] if allow.get(lv)),
            "full")
        self._record_fallback(ledger, FallbackEvent(
            kernel=kernel.name,
            from_level=level,
            to_level=to_level,
            error=type(exc).__name__,
            message=str(exc),
        ))

    # -- internals ------------------------------------------------------------------

    def _attempt_kernel(self, kernel: Kernel, allow: Dict[str, bool],
                        ledger: List[FallbackEvent]) -> KernelResult:
        """One pass through the sampling levels currently allowed."""
        analysis = self._get_analysis(kernel, ledger)

        if allow["kernel"]:
            if self.fault_plan is not None:
                self.fault_plan.arm("level.kernel", kernel=kernel.name,
                                    level="kernel")
            prediction = self.kernel_db.lookup(
                analysis.gpu_bbv, kernel.n_warps, analysis.sample_insts)
            if prediction is not None:
                self.kernel_db.add(KernelRecord(
                    name=kernel.name,
                    gpu_bbv=analysis.gpu_bbv,
                    n_warps=kernel.n_warps,
                    total_insts=prediction.predicted_insts,
                    sample_insts=analysis.sample_insts,
                    sim_time=prediction.predicted_time,
                ))
                result = KernelResult(
                    kernel_name=kernel.name,
                    sim_time=prediction.predicted_time,
                    wall_seconds=0.0,
                    n_insts=int(prediction.predicted_insts),
                    mode="kernel",
                    detail_insts=0,
                )
                result.meta["matched_kernel"] = prediction.matched.name
                return result

        result = self._simulate_intra_kernel(kernel, analysis, allow)
        self.kernel_db.add(KernelRecord(
            name=kernel.name,
            gpu_bbv=analysis.gpu_bbv,
            n_warps=kernel.n_warps,
            total_insts=float(result.n_insts),
            sample_insts=analysis.sample_insts,
            sim_time=result.sim_time,
        ))
        return result

    def _get_analysis(self, kernel: Kernel,
                      ledger: List[FallbackEvent]) -> OnlineAnalysis:
        store = self.analysis_store
        key = analysis_key(kernel, self.config)
        try:
            if self.fault_plan is not None:
                self.fault_plan.arm("analysis.store",
                                    kernel=kernel.name, level="store")
            cached = store.get(key)
        except _RECOVERABLE as exc:
            # corrupt cached entry: quarantine it and re-analyse
            store.discard(key)
            self._record_fallback(ledger, FallbackEvent(
                kernel=kernel.name,
                from_level="store",
                to_level="analysis",
                error=type(exc).__name__,
                message=str(exc),
            ))
            cached = None
        self.bus.metrics.counter("analysis.store_misses" if cached is None
                                 else "analysis.store_hits").inc()
        if cached is None:
            cached = analyze_kernel(kernel, self.config, self.projector,
                                    executor=self.executor(kernel))
            store.insert(key, cached)
        return cached

    def _simulate_intra_kernel(
        self, kernel: Kernel, analysis: OnlineAnalysis,
        allow: Dict[str, bool],
    ) -> KernelResult:
        engine = self.engine(kernel, collect_latency=True)
        capacity = self.gpu_config.n_cu * self.gpu_config.max_warps_per_cu
        bb_detector = BBSamplingDetector(analysis, self.config,
                                         warp_capacity=capacity,
                                         fault_plan=self.fault_plan)
        warp_detector = WarpSamplingDetector(analysis, self.config,
                                             fault_plan=self.fault_plan)
        # a detector that cannot fire on this kernel subscribes nothing
        # (``watch`` returns False): the run is then the full-detail one
        bb_listens = allow["bb"] and bb_detector.watch(engine)
        if allow["warp"]:
            warp_detector.watch(engine)

        detailed = engine.run()
        self.interval_model.update(detailed.latency_table)

        if detailed.stopped and detailed.undispatched:
            remaining = detailed.undispatched
            if warp_detector.switched:
                return self._finish_warp_sampling(
                    kernel, analysis, detailed, warp_detector, remaining)
            if bb_detector.switched:
                return self._finish_bb_sampling(
                    kernel, analysis, detailed, bb_detector, remaining)

        # no switch (or nothing left to predict): full detailed result
        result = KernelResult(
            kernel_name=kernel.name,
            sim_time=detailed.end_time,
            wall_seconds=0.0,
            n_insts=detailed.n_insts,
            mode="full",
            detail_insts=detailed.n_insts,
        )
        if bb_listens:
            result.meta["stable_bb_rate"] = bb_detector.stable_rate
        elif allow["bb"]:
            result.meta["bb_detector"] = "cannot_fire"
        return result

    def _finish_warp_sampling(self, kernel, analysis, detailed,
                              detector, remaining) -> KernelResult:
        if self.fault_plan is not None:
            self.fault_plan.arm("level.warp", kernel=kernel.name,
                                level="warp")
        mean = detector.mean_warp_duration()
        durations = {warp_id: mean for warp_id in remaining}
        fast = schedule_only(
            kernel, remaining, durations, self.gpu_config,
            start_time=detailed.stop_time,
            cu_slot_free=detailed.cu_slot_free,
        )
        predicted_insts = analysis.mean_insts_per_warp * len(remaining)
        result = KernelResult(
            kernel_name=kernel.name,
            sim_time=max(detailed.end_time, fast.end_time),
            wall_seconds=0.0,
            n_insts=int(detailed.n_insts + predicted_insts),
            mode="warp",
            detail_insts=detailed.n_insts,
        )
        result.meta["warps_predicted"] = len(remaining)
        result.meta["mean_warp_duration"] = mean
        return result

    def _finish_bb_sampling(self, kernel, analysis, detailed,
                            detector, remaining) -> KernelResult:
        if self.fault_plan is not None:
            self.fault_plan.arm("level.bb", kernel=kernel.name, level="bb")
        table = detector.bb_time_table()
        interval_cache: Dict[int, float] = {}
        duration_cache: Dict[Tuple[int, ...], float] = {}
        program = kernel.program
        # fast-forward the remaining warps in one CONTROL fill
        traces = self.control_traces(kernel, remaining)

        def bb_time(pc: int) -> float:
            known = table.get(pc)
            if known is not None:
                return known
            estimated = interval_cache.get(pc)
            if estimated is None:
                estimated = self.interval_model.bb_time(
                    program, program.block_by_pc(pc))
                interval_cache[pc] = estimated
            return estimated

        durations: Dict[int, float] = {}
        predicted_insts = 0
        for warp_id in remaining:
            trace = traces[warp_id]
            predicted_insts += trace.n_insts
            seq = tuple(trace.bb_seq)
            duration = duration_cache.get(seq)
            if duration is None:
                duration = sum(bb_time(pc) for pc in seq)
                duration_cache[seq] = duration
            durations[warp_id] = duration

        fast = schedule_only(
            kernel, remaining, durations, self.gpu_config,
            start_time=detailed.stop_time,
            cu_slot_free=detailed.cu_slot_free,
        )
        result = KernelResult(
            kernel_name=kernel.name,
            sim_time=max(detailed.end_time, fast.end_time),
            wall_seconds=0.0,
            n_insts=detailed.n_insts + predicted_insts,
            mode="bb",
            detail_insts=detailed.n_insts,
        )
        result.meta["warps_predicted"] = len(remaining)
        result.meta["rare_bbs"] = sorted(interval_cache)
        result.meta["stable_bb_rate"] = detector.stable_rate
        return result
