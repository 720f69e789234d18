"""Engine observers implementing Photon's online switch criteria.

Both detectors watch the detailed engine from kernel start and run in
parallel (paper Section 4: "the warp-sampling detector runs in parallel
and Photon switches to warp-sampling when the criteria are satisfied").
Whichever fires first stops workgroup dispatch; the controller then
predicts the remaining warps with the corresponding fast path.

A detector that provably cannot fire on a kernel does not listen to it:
``watch`` subscribes nothing, counts ``detector.{bb,warp}_elided``,
emits one ``detector.elided`` event, and the run is the full-detail run
(DESIGN.md, calibration finding 6, has the argument).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..isa.program import Program
from ..obs import (DETECTOR_ELIDED, DETECTOR_SWITCH, ENGINE_BB,
                   ENGINE_WARP_RETIRE)
from ..reliability.faults import FaultPlan
from ..timing.engine import DetailedEngine
from .config import PhotonConfig
from .lsq import StabilityDetector, observations_needed
from .online import OnlineAnalysis


class _Detector:
    """What the two levels share: the switch and the elision record."""

    level: str

    def __init__(self, analysis: OnlineAnalysis, config: PhotonConfig,
                 fault_plan: Optional[FaultPlan]):
        self.analysis = analysis
        self.config = config
        self.fault_plan = fault_plan
        self._engine: Optional[DetailedEngine] = None
        self.switched = False
        self.switch_time: Optional[float] = None

    def _stream(self, window: int) -> StabilityDetector:
        return StabilityDetector(window, self.config.delta,
                                 self.config.mean_check,
                                 self.config.mean_delta)

    def _switch(self, time: float) -> None:
        engine = self._engine
        # name the launch: a store hit serves an earlier launch's analysis
        name = (engine.kernel.name if engine is not None
                else self.analysis.kernel_name)
        if self.fault_plan is not None:
            # a misfire here models the detector erroring exactly when it
            # decides to switch, mid detailed run
            self.fault_plan.arm(f"detector.{self.level}", kernel=name,
                                level=self.level)
        self.switched = True
        self.switch_time = time
        if engine is not None:
            engine.bus.emit(DETECTOR_SWITCH, name, self.level, time)
            engine.bus.metrics.counter(
                f"detector.{self.level}_switches").inc()
            engine.request_stop()

    def _elide(self, engine: DetailedEngine, reachable: float,
               need: float) -> bool:
        """Record that this detector does not listen to ``engine``."""
        engine.bus.emit(DETECTOR_ELIDED, engine.kernel.name,
                        self.level, reachable, need)
        engine.bus.metrics.counter(f"detector.{self.level}_elided").inc()
        return False


class BBSamplingDetector(_Detector):
    """Switches to basic-block-sampling (paper Section 4.1, Figure 7).

    Tracks a :class:`StabilityDetector` per basic-block type over the
    (issue, next-issue) times reported by the engine.  The share of
    dynamic instructions belonging to currently-stable block types —
    weighted by the online-analysis distribution, so blocks that have not
    yet appeared in detailed mode still count against the threshold — is
    compared against ``stable_bb_rate`` (95%).  No switch can happen before
    ``retire_gate`` warps have retired: until then blocks wait, to be judged
    in one replay when the gate opens or the state is read, to the last bit
    as if judged on arrival.
    """

    level = "bb"

    def __init__(self, analysis: OnlineAnalysis, config: PhotonConfig,
                 warp_capacity: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None):
        super().__init__(analysis, config, fault_plan)
        self._detectors: Dict[int, StabilityDetector] = {}
        self._stable: Dict[int, bool] = {}
        self._stable_rate = 0.0
        capacity = warp_capacity if warp_capacity else analysis.n_warps
        self.retire_gate = min(
            capacity,
            max(1, int(analysis.n_warps * config.bb_retire_gate_fraction)),
        )
        self._retired = 0
        self._pending = []  # flat (pc, start, end) triples

    @property
    def stable_rate(self) -> float:
        """Current instruction share of the stable basic-block types."""
        self._settle()
        return self._stable_rate

    def reachable_share(self, program: Program) -> float:
        """Instruction share of the block types that can ever be judged.

        A block no warp runs twice is observed at most ``n_warps``
        times, so in a smaller grid than a verdict needs it stays
        unstable.  The weights are those :meth:`on_bb_complete` adds
        up: a total below ``stable_bb_rate`` is a proof.
        """
        every = self.analysis.n_warps >= observations_needed(
            self.config.bb_window, self.config.mean_check)
        once = program.once_per_warp_pcs
        return sum((share for pc, share in self.analysis.bb_share.items()
                    if every or pc not in once), 0.0)

    def watch(self, engine: DetailedEngine) -> bool:
        """Observe ``engine``'s run (the switch stops its dispatch), or
        return False when the detector cannot fire on its kernel."""
        reachable = self.reachable_share(engine.kernel.program)
        # 1e-9: ``stable_rate`` is a running float sum of these weights
        if reachable < self.config.stable_bb_rate - 1e-9:
            return self._elide(engine, reachable,
                               self.config.stable_bb_rate)
        self._engine = engine
        engine.subscribe(ENGINE_BB, self.on_bb_complete)
        engine.subscribe(ENGINE_WARP_RETIRE, self.on_warp_retired)
        return True

    def on_warp_retired(self, warp_id: int, dispatch: float,
                        retire: float) -> None:
        self._retired += 1
        if (not self.switched and self._retired >= self.retire_gate
                and self.stable_rate >= self.config.stable_bb_rate):
            self._switch(retire)

    def on_bb_complete(self, warp_id: int, bb_pc: int, start: float,
                       end: float) -> None:
        if self._retired < self.retire_gate:
            self._pending.extend((bb_pc, start, end))
        elif not self.switched and self._flip(
                bb_pc, self._block(bb_pc).observe(start, end)) and (
                self._stable_rate >= self.config.stable_bb_rate):
            self._switch(end)

    def _block(self, pc: int) -> StabilityDetector:
        return self._detectors.get(pc) or self._detectors.setdefault(
            pc, self._stream(self.config.bb_window))

    def _flip(self, pc: int, now_stable: bool) -> bool:
        """Record block type ``pc``'s verdict; whether it became stable."""
        if now_stable == self._stable.get(pc, False):
            return False
        self._stable[pc] = now_stable
        share = self.analysis.bb_share.get(pc, 0.0)
        self._stable_rate += share if now_stable else -share
        return now_stable

    def _settle(self) -> None:
        """Judge the waiting observations in one replay."""
        if not self._pending:
            return
        events, self._pending = np.array(self._pending).reshape(-1, 3), []
        if self._engine is not None:
            counter = self._engine.bus.metrics.counter
            counter("detector.bb_replays").inc()
            counter("detector.bb_replayed_obs").inc(len(events))
        order = np.argsort(events[:, 0], kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(events[order, 0])) + 1)
        flips = []  # (event index, pc, verdict) of every verdict change
        for rows in sorted(groups, key=lambda g: g[0]):  # as they appeared
            pc = int(events[rows[0], 0])
            verdicts = self._block(pc).observe_many(*events[rows, 1:].T)
            was = np.append(self._stable.get(pc, False), verdicts[:-1])
            changed = np.flatnonzero(verdicts != was).tolist()
            flips += [(rows[k], pc, verdicts[k]) for k in changed]
        for _, pc, now_stable in sorted(flips):  # the rate sums in order
            self._flip(pc, bool(now_stable))

    def bb_time_table(self) -> Dict[int, float]:
        """Mean execution time per sufficiently-observed block type.

        Blocks with fewer than ``rare_bb_min_samples`` observations are
        omitted; the controller predicts those with the interval model.
        """
        self._settle()
        table = {}
        for pc, detector in self._detectors.items():
            if detector.observations >= self.config.rare_bb_min_samples:
                table[pc] = detector.mean_duration()
        return table


class WarpSamplingDetector(_Detector):
    """Switches to warp-sampling (paper Section 4.2, Figure 10).

    Only armed when the online analysis found a dominant warp type
    (share >= ``dominant_warp_rate``) and the grid has as many warps as
    a verdict needs observations.  Feeds every retired warp's
    (issue, retired) pair into one stability detector; once stable, stops
    dispatch — the controller predicts all remaining warps as the mean
    duration of the last ``warp_window`` warps and simulates only the
    scheduler.
    """

    level = "warp"

    def __init__(self, analysis: OnlineAnalysis, config: PhotonConfig,
                 fault_plan: Optional[FaultPlan] = None):
        super().__init__(analysis, config, fault_plan)
        self._need = observations_needed(config.warp_window,
                                         config.mean_check)
        self.armed = (analysis.dominant_rate >= config.dominant_warp_rate
                      and analysis.n_warps >= self._need)
        self._detector = self._stream(config.warp_window)

    def watch(self, engine: DetailedEngine) -> bool:
        """Observe ``engine``'s run (the switch stops its dispatch), or
        return False when not armed."""
        if not self.armed:
            if self.analysis.n_warps < self._need:
                self._elide(engine, self.analysis.n_warps, self._need)
            return False
        self._engine = engine
        engine.subscribe(ENGINE_WARP_RETIRE, self.on_warp_retired)
        return True

    def on_warp_retired(self, warp_id: int, dispatch: float,
                        retire: float) -> None:
        if not self.switched and self._detector.observe(dispatch, retire):
            self._switch(retire)

    def mean_warp_duration(self) -> float:
        """Predictor for remaining warps: mean of the last window."""
        return self._detector.mean_duration()
