"""Kernel database for kernel-sampling (paper Section 4.3, Figure 12).

Every kernel Photon actually simulates (in any intra-kernel mode) is
recorded here with its GPU BBV, warp count, instruction count, the
instruction count of its online-analysis sample, and its simulated time.
A new kernel launch is matched against the database:

1. candidates: prior kernels whose GPU-BBV distance is below the
   threshold;
2. among candidates, the one with the closest warp count wins
   ("kernels with a similar number of warps usually have similar IPC");
3. small kernels (fewer warps than the GPU has compute units) must match
   the warp count exactly — they see less resource competition and less
   parallelism, so their IPC does not transfer across sizes.

Prediction: the new kernel's total instruction count is extrapolated
through the sample ratio, and its time is that count divided by the
matched kernel's IPC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .bbv import bbv_distance


@dataclass
class KernelRecord:
    """One previously-simulated kernel."""

    name: str
    gpu_bbv: np.ndarray
    n_warps: int
    total_insts: float
    sample_insts: int
    sim_time: float

    @property
    def ipc(self) -> float:
        if self.sim_time <= 0:
            return 0.0
        return self.total_insts / self.sim_time


@dataclass
class KernelPrediction:
    """Outcome of a kernel-sampling hit."""

    matched: KernelRecord
    predicted_insts: float
    predicted_time: float


class KernelDB:
    """Stores kernel records and answers similarity queries."""

    def __init__(self, distance_threshold: float, n_cu: int):
        self.distance_threshold = distance_threshold
        self.n_cu = n_cu
        self._records: List[KernelRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def add(self, record: KernelRecord) -> None:
        """Record a simulated kernel for future matches."""
        self._records.append(record)

    def lookup(
        self,
        gpu_bbv: np.ndarray,
        n_warps: int,
        sample_insts: int,
    ) -> Optional[KernelPrediction]:
        """Find a similar prior kernel and predict time; None on miss."""
        best: Optional[KernelRecord] = None
        best_warp_gap = None
        for record in self._records:
            if record.gpu_bbv.shape != gpu_bbv.shape:
                continue
            if bbv_distance(record.gpu_bbv, gpu_bbv) >= self.distance_threshold:
                continue
            small = n_warps < self.n_cu or record.n_warps < self.n_cu
            if small and record.n_warps != n_warps:
                continue
            gap = abs(record.n_warps - n_warps)
            if best is None or gap < best_warp_gap:
                best = record
                best_warp_gap = gap
        if best is None or best.ipc <= 0 or best.sample_insts <= 0:
            return None
        predicted_insts = best.total_insts * sample_insts / best.sample_insts
        predicted_time = predicted_insts / best.ipc
        return KernelPrediction(
            matched=best,
            predicted_insts=predicted_insts,
            predicted_time=predicted_time,
        )
