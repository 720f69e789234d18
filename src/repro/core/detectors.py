"""Engine observers implementing Photon's online switch criteria.

Both detectors watch the detailed engine from kernel start and run in
parallel (paper Section 4: "the warp-sampling detector runs in parallel
and Photon switches to warp-sampling when the criteria are satisfied").
Whichever fires first stops workgroup dispatch; the controller then
predicts the remaining warps with the corresponding fast path.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obs import DETECTOR_SWITCH, ENGINE_BB, ENGINE_WARP_RETIRE
from ..reliability.faults import FaultPlan
from ..timing.engine import DetailedEngine
from .config import PhotonConfig
from .lsq import StabilityDetector
from .online import OnlineAnalysis


class BBSamplingDetector:
    """Switches to basic-block-sampling (paper Section 4.1, Figure 7).

    Tracks a :class:`StabilityDetector` per basic-block type over the
    (issue, next-issue) times reported by the engine.  The share of
    dynamic instructions belonging to currently-stable block types —
    weighted by the online-analysis distribution, so blocks that have not
    yet appeared in detailed mode still count against the threshold — is
    compared against ``stable_bb_rate`` (95%).
    """

    def __init__(self, analysis: OnlineAnalysis, config: PhotonConfig,
                 warp_capacity: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.analysis = analysis
        self.config = config
        self.fault_plan = fault_plan
        self._detectors: Dict[int, StabilityDetector] = {}
        self._stable: Dict[int, bool] = {}
        self._stable_rate = 0.0
        self._engine: Optional[DetailedEngine] = None
        self.switched = False
        self.switch_time: Optional[float] = None
        capacity = warp_capacity if warp_capacity else analysis.n_warps
        self.retire_gate = min(
            capacity,
            max(1, int(analysis.n_warps * config.bb_retire_gate_fraction)),
        )
        self._retired = 0

    def watch(self, engine: DetailedEngine) -> None:
        """Observe ``engine``'s run; the switch stops its dispatch."""
        self._engine = engine
        engine.subscribe(ENGINE_BB, self.on_bb_complete)
        engine.subscribe(ENGINE_WARP_RETIRE, self.on_warp_retired)

    def on_warp_retired(self, warp_id: int, dispatch: float,
                        retire: float) -> None:
        self._retired += 1
        if (not self.switched and self._retired >= self.retire_gate
                and self._stable_rate >= self.config.stable_bb_rate):
            self._switch(retire)

    @property
    def stable_rate(self) -> float:
        """Current instruction-share of stable basic-block types."""
        return self._stable_rate

    def on_bb_complete(self, warp_id: int, bb_pc: int, start: float,
                       end: float) -> None:
        if self.switched:
            return
        detector = self._detectors.get(bb_pc)
        if detector is None:
            detector = StabilityDetector(
                self.config.bb_window, self.config.delta,
                self.config.mean_check, self.config.mean_delta)
            self._detectors[bb_pc] = detector
            self._stable[bb_pc] = False
        detector.add(start, end)
        now_stable = detector.is_stable()
        if now_stable != self._stable[bb_pc]:
            self._stable[bb_pc] = now_stable
            share = self.analysis.bb_share.get(bb_pc, 0.0)
            self._stable_rate += share if now_stable else -share
            if (now_stable and self._retired >= self.retire_gate
                    and self._stable_rate >= self.config.stable_bb_rate):
                self._switch(end)

    def _switch(self, time: float) -> None:
        if self.fault_plan is not None:
            # a misfire here models the detector erroring exactly when it
            # decides to switch, mid detailed run
            self.fault_plan.arm("detector.bb",
                                kernel=self.analysis.kernel_name,
                                level="bb")
        self.switched = True
        self.switch_time = time
        if self._engine is not None:
            self._engine.bus.emit(DETECTOR_SWITCH,
                                  self.analysis.kernel_name, "bb", time)
            self._engine.bus.metrics.counter("detector.bb_switches").inc()
            self._engine.request_stop()

    def bb_time_table(self) -> Dict[int, float]:
        """Mean execution time per sufficiently-observed block type.

        Blocks with fewer than ``rare_bb_min_samples`` observations are
        omitted; the controller predicts those with the interval model.
        """
        table = {}
        for pc, detector in self._detectors.items():
            if detector.observations >= self.config.rare_bb_min_samples:
                table[pc] = detector.mean_duration()
        return table


class WarpSamplingDetector:
    """Switches to warp-sampling (paper Section 4.2, Figure 10).

    Only armed when the online analysis found a dominant warp type
    (share >= ``dominant_warp_rate``).  Feeds every retired warp's
    (issue, retired) pair into one stability detector; once stable, stops
    dispatch — the controller predicts all remaining warps as the mean
    duration of the last ``warp_window`` warps and simulates only the
    scheduler.
    """

    def __init__(self, analysis: OnlineAnalysis, config: PhotonConfig,
                 fault_plan: Optional[FaultPlan] = None):
        self.analysis = analysis
        self.config = config
        self.fault_plan = fault_plan
        self.armed = analysis.dominant_rate >= config.dominant_warp_rate
        self._detector = StabilityDetector(
            config.warp_window, config.delta, config.mean_check,
            config.mean_delta)
        self._engine: Optional[DetailedEngine] = None
        self.switched = False
        self.switch_time: Optional[float] = None

    def watch(self, engine: DetailedEngine) -> None:
        """Observe ``engine``'s run; the switch stops its dispatch."""
        self._engine = engine
        engine.subscribe(ENGINE_WARP_RETIRE, self.on_warp_retired)

    def on_warp_retired(self, warp_id: int, dispatch: float,
                        retire: float) -> None:
        if not self.armed or self.switched:
            return
        self._detector.add(dispatch, retire)
        if self._detector.is_stable():
            if self.fault_plan is not None:
                self.fault_plan.arm("detector.warp",
                                    kernel=self.analysis.kernel_name,
                                    level="warp")
            self.switched = True
            self.switch_time = retire
            if self._engine is not None:
                self._engine.bus.emit(DETECTOR_SWITCH,
                                      self.analysis.kernel_name, "warp",
                                      retire)
                self._engine.bus.metrics.counter(
                    "detector.warp_switches").inc()
                self._engine.request_stop()

    def mean_warp_duration(self) -> float:
        """Predictor for remaining warps: mean of the last window."""
        return self._detector.mean_duration()
