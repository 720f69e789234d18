"""Measurement probes for the detailed engine.

These probes are used by the observation-figure reproductions (Figures
1–4 of the paper) and by the tests; the sampling methodologies have their
own monitors in :mod:`repro.core` and :mod:`repro.baselines`.  Like
those, a probe is a plain class whose ``watch(engine)`` names the events
it consumes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs import ENGINE_BB, ENGINE_WARP_RETIRE
from .engine import DetailedEngine


class BBProbe:
    """Records every dynamic basic-block execution.

    ``records[bb_pc]`` is a list of ``(issue_time, end_time)`` tuples in
    retirement order — the data behind Figures 2 and 3.  The *execution
    time* of a dynamic block is ``end - issue``, i.e. the interval between
    the issue of its first instruction and the issue of the next block's
    first instruction, matching the paper's definition.
    """

    def __init__(self, track_pcs: Optional[set] = None):
        self.track_pcs = track_pcs
        self.records: Dict[int, List[Tuple[float, float]]] = {}

    def watch(self, engine: DetailedEngine) -> None:
        engine.subscribe(ENGINE_BB, self.on_bb_complete)

    def on_bb_complete(self, warp_id: int, bb_pc: int, start: float,
                       end: float) -> None:
        if self.track_pcs is not None and bb_pc not in self.track_pcs:
            return
        self.records.setdefault(bb_pc, []).append((start, end))

    def dominating_pc(self) -> int:
        """PC of the block with the largest total execution time.

        Ties break toward the smallest pc so the answer never depends
        on dict insertion (i.e. retirement) order.
        """
        if not self.records:
            raise ValueError("no basic blocks recorded")
        return min(
            self.records,
            key=lambda pc: (-sum(e - s for s, e in self.records[pc]), pc),
        )

    def exec_times(self, bb_pc: int) -> List[float]:
        """Execution times of block ``bb_pc`` in retirement order."""
        return [e - s for s, e in self.records.get(bb_pc, [])]


class WarpProbe:
    """Records per-warp (issue, retired) times — data behind Figure 4."""

    def __init__(self) -> None:
        self.times: List[Tuple[int, float, float]] = []

    def watch(self, engine: DetailedEngine) -> None:
        engine.subscribe(ENGINE_WARP_RETIRE, self.on_warp_retired)

    def on_warp_retired(self, warp_id: int, dispatch: float,
                        retire: float) -> None:
        self.times.append((warp_id, dispatch, retire))

    def issue_retire_pairs(self) -> List[Tuple[float, float]]:
        """(issue, retired) pairs in retirement order."""
        return [(d, r) for _, d, r in self.times]


def ipc_over_time(series: List[int], bucket: float) -> List[Tuple[float, float]]:
    """Convert an engine's retired-instruction histogram to an IPC curve.

    Returns ``(time, ipc)`` points, one per bucket — the data behind
    Figure 1.
    """
    return [
        ((idx + 0.5) * bucket, count / bucket)
        for idx, count in enumerate(series)
    ]
