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

That fallback is the only one: it follows from what the detectors
observed, never from an error.  An error raised inside any level (a
:class:`~repro.errors.ReproError` such as an out-of-bounds access of a
kernel, a timing-model inconsistency or a watchdog trip) propagates out
of :meth:`Photon.simulate_kernel`; the evaluation harness turns it into
a failed row, and ``repro sweep --resume`` re-runs that task.

The controller also supports the paper's online/offline trade-off
(Section 6.3): online-analysis results are microarchitecture-agnostic
and are keyed by what the analysis reads (``analysis_key``), so a
repeated launch is analysed once, with the same result — within a run
through the :class:`AnalysisStore` memo, across processes through the
trace store (``--trace-store``), which keeps them beside the kernel's
bundles.
"""

from __future__ import annotations

import time as _time
from typing import Dict, Optional, Tuple

from ..config.gpu_configs import GpuConfig
from ..functional.kernel import Kernel
from ..obs import EventBus
from ..reliability.watchdog import WatchdogConfig
from ..timing.fastmodel import schedule_only
from ..timing.simulator import KernelResult, Methodology
from ..timing.tracecache import TraceCache
from ..tracestore import TraceStore
from .bbv import BBVProjector
from .config import PhotonConfig
from .detectors import BBSamplingDetector, WarpSamplingDetector
from .interval import IntervalModel
from .kerneldb import KernelDB, KernelRecord
from .online import OnlineAnalysis, analysis_key, analyze_kernel


class AnalysisStore:
    """In-memory memo of online-analysis results for one run (§6.3);
    across processes they persist in the trace store."""

    def __init__(self) -> None:
        self._entries: Dict[str, OnlineAnalysis] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[OnlineAnalysis]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def insert(self, key: str, analysis: OnlineAnalysis) -> None:
        self._entries[key] = analysis

    def __len__(self) -> int:
        return len(self._entries)


class Photon(Methodology):
    """Sampled GPU simulator (the paper's contribution).

    One instance carries warm state across an application's kernels: the
    cache hierarchy, the kernel database, the instruction-latency table
    feeding the interval model, and an analysis memo (the one given, or
    a private one), so a repeated launch is analysed once.  With a
    store-backed ``trace_cache`` a memo miss reads the trace store's
    analysis of the launch before analysing afresh, and a fresh one is
    written there.
    ``watchdog`` bounds every internal simulation loop.
    """

    name = "photon"

    def __init__(
        self,
        gpu_config: GpuConfig,
        config: Optional[PhotonConfig] = None,
        analysis_store: Optional[AnalysisStore] = None,
        watchdog: Optional[WatchdogConfig] = None,
        bus: Optional[EventBus] = None,
        trace_cache: Optional[TraceCache] = None,
    ):
        super().__init__(gpu_config, watchdog, bus, trace_cache)
        self.config = config or PhotonConfig()
        self.projector = BBVProjector(self.config.bbv_dim)
        self.kernel_db = KernelDB(self.config.kernel_distance,
                                  gpu_config.n_cu)
        self.interval_model = IntervalModel(gpu_config)
        self.analysis_store = (analysis_store if analysis_store is not None
                               else AnalysisStore())

    # -- public API --------------------------------------------------------------

    def simulate_kernel(self, kernel: Kernel) -> KernelResult:
        """Simulate one kernel launch with sampling; return its result."""
        t0 = _time.perf_counter()
        config = self.config
        analysis = self._get_analysis(kernel)

        result = None
        if config.enable_kernel_sampling:
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
        if result is None:
            result = self._simulate_intra_kernel(kernel, analysis)
            self.kernel_db.add(KernelRecord(
                name=kernel.name,
                gpu_bbv=analysis.gpu_bbv,
                n_warps=kernel.n_warps,
                total_insts=float(result.n_insts),
                sample_insts=analysis.sample_insts,
                sim_time=result.sim_time,
            ))
        result.wall_seconds = _time.perf_counter() - t0
        return result

    # -- internals ------------------------------------------------------------------

    def _get_analysis(self, kernel: Kernel) -> OnlineAnalysis:
        """The memo's analysis, else the trace store's, else a fresh one
        (then written to the store)."""
        memo = self.analysis_store
        store = (self.trace_cache.backing_store
                 if self.trace_cache is not None else None)
        akey = analysis_key(kernel, self.config)
        cached = memo.get(akey)
        metrics = self.bus.metrics
        metrics.counter("analysis.store_misses" if cached is None
                        else "analysis.store_hits").inc()
        if cached is not None:
            return cached
        if store is not None:
            with metrics.span("trace_io"):
                cached = self._stored_analysis(store, kernel, akey)
        if cached is not None:
            metrics.counter("analysis.trace_store_hits").inc()
        else:
            cached = analyze_kernel(kernel, self.config, self.projector,
                                    executor=self.executor(kernel))
            if store is not None:
                with metrics.span("trace_io"):
                    store.put_analysis(kernel, akey, cached.to_record())
        memo.insert(akey, cached)
        return cached

    @staticmethod
    def _stored_analysis(store: TraceStore, kernel: Kernel,
                         akey: str) -> Optional[OnlineAnalysis]:
        """The store's analysis ``akey`` of ``kernel``; a malformed one
        is quarantined (a miss), as a corrupt one is by the store."""
        record = store.get_analysis(kernel, akey)
        if record is None:
            return None
        try:
            return OnlineAnalysis.from_record(record, kernel.name)
        except (KeyError, TypeError, ValueError):
            store.quarantined += 1
            return None

    def _simulate_intra_kernel(self, kernel: Kernel,
                               analysis: OnlineAnalysis) -> KernelResult:
        config = self.config
        engine = self.engine(kernel, collect_latency=True)
        capacity = self.gpu_config.n_cu * self.gpu_config.max_warps_per_cu
        bb_detector = BBSamplingDetector(analysis, config,
                                         warp_capacity=capacity)
        warp_detector = WarpSamplingDetector(analysis, config)
        # a detector that cannot fire on this kernel subscribes nothing
        # (``watch`` returns False): the run is then the full-detail one
        bb_listens = config.enable_bb_sampling and bb_detector.watch(engine)
        if config.enable_warp_sampling:
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
        elif config.enable_bb_sampling:
            result.meta["bb_detector"] = "cannot_fire"
        return result

    def _finish_warp_sampling(self, kernel, analysis, detailed,
                              detector, remaining) -> KernelResult:
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
        table = detector.bb_time_table()
        interval_cache: Dict[int, float] = {}
        duration_cache: Dict[Tuple[int, ...], float] = {}
        program = kernel.program

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
        # fast-forward the remaining warps, folding each fill as it comes
        for warp_id, trace in self.control_traces(kernel, remaining):
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
