"""Online analysis: functional simulation of a sample of warps.

Photon requires no up-front profiling.  Instead, at each kernel launch it
functionally simulates a small sample (1% by default) of the kernel's
warps in fast-forward mode and derives from their control traces:

* the basic-block distribution (instruction-count share per block) —
  used by basic-block-sampling to weight the stable-rate threshold and to
  identify rare blocks (Figure 8 shows a 1% sample suffices);
* the warp-type distribution — used to gate warp-sampling on a dominant
  type (Figure 11) and to build the GPU BBV;
* the kernel's GPU BBV — used by kernel-sampling (Figure 12);
* the sampled instruction count — used to extrapolate total instruction
  counts across similar kernels.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..functional.batch import control_traces
from ..functional.executor import FunctionalExecutor
from ..functional.kernel import Kernel
from .bbv import BBVProjector, gpu_bbv, warp_type_key
from .config import PhotonConfig


@dataclass
class OnlineAnalysis:
    """Everything the sampling levels need, derived from the sample."""

    kernel_name: str   # the launch analysed (a store hit serves others)
    n_warps: int
    sample_warp_ids: List[int]
    sample_insts: int  # dynamic instructions across the sample
    mean_insts_per_warp: float
    # basic-block distribution: instruction-count share per bb pc
    bb_share: Dict[int, float] = field(default_factory=dict)
    # warp types
    type_counts: Dict[int, int] = field(default_factory=dict)
    type_bb_seq: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    type_insts: Dict[int, int] = field(default_factory=dict)
    dominant_type: int = 0
    dominant_rate: float = 0.0
    gpu_bbv: np.ndarray = field(default_factory=lambda: np.zeros(1))

    @property
    def n_types(self) -> int:
        return len(self.type_counts)


def select_sample(n_warps: int, fraction: float, minimum: int) -> List[int]:
    """Evenly-spread sample of warp ids (stratified over the grid)."""
    count = max(minimum, int(round(n_warps * fraction)))
    count = min(count, n_warps)
    if count == n_warps:
        return list(range(n_warps))
    step = n_warps / count
    return sorted({int(i * step) for i in range(count)})


def analysis_key(kernel: Kernel, config: PhotonConfig) -> str:
    """sha256 of what :func:`analyze_kernel` reads: program, grid, step
    cap, the control slice's registers in each sample warp and, with an
    ``s_load`` on the slice, memory — not pointers the slice ignores."""
    executor = FunctionalExecutor(kernel)
    program = kernel.program
    cut = program.control_slice
    sample = select_sample(kernel.n_warps, config.sample_fraction,
                           config.min_sample_warps)
    digest = hashlib.sha256(repr((
        program.fingerprint, kernel.n_warps, kernel.wg_size,
        executor.max_steps, config.bbv_dim, config.gpu_bbv_clusters, sample,
        [[row[r] for r in cut.sregs]
         for row in map(executor.initial_sregs, sample)],
    )).encode("utf-8"))
    if cut.loads:
        digest.update(kernel.memory.image())
    return digest.hexdigest()


def analyze_kernel(
    kernel: Kernel,
    config: PhotonConfig,
    projector: BBVProjector,
    executor: "FunctionalExecutor | None" = None,
) -> OnlineAnalysis:
    """Run the online analysis for one kernel launch (its CONTROL fill
    on ``executor``, by default a fresh one on the current bus)."""
    sample = select_sample(
        kernel.n_warps, config.sample_fraction, config.min_sample_warps
    )
    program = kernel.program
    bb_insts: Dict[int, int] = {}
    type_counts: Dict[int, int] = {}
    type_bb_seq: Dict[int, Tuple[int, ...]] = {}
    type_insts: Dict[int, int] = {}
    total_insts = 0

    traces = control_traces(kernel, sample, executor=executor)
    for warp_id in sample:
        trace = traces[warp_id]
        total_insts += trace.n_insts
        seq = tuple(trace.bb_seq)
        key = warp_type_key(seq)
        type_counts[key] = type_counts.get(key, 0) + 1
        if key not in type_bb_seq:
            type_bb_seq[key] = seq
            type_insts[key] = trace.n_insts
        for pc in seq:
            length = program.block_by_pc(pc).length
            bb_insts[pc] = bb_insts.get(pc, 0) + length

    bb_share = (
        {pc: insts / total_insts for pc, insts in bb_insts.items()}
        if total_insts
        else {}
    )
    dominant_type = max(type_counts, key=lambda k: type_counts[k])
    dominant_rate = type_counts[dominant_type] / len(sample)

    type_bbvs = {
        key: projector.project(_counts_of(seq), program)
        for key, seq in type_bb_seq.items()
    }
    vector = gpu_bbv(type_bbvs, type_counts, config.gpu_bbv_clusters)

    return OnlineAnalysis(
        kernel_name=kernel.name,
        n_warps=kernel.n_warps,
        sample_warp_ids=sample,
        sample_insts=total_insts,
        mean_insts_per_warp=total_insts / len(sample),
        bb_share=bb_share,
        type_counts=type_counts,
        type_bb_seq=type_bb_seq,
        type_insts=type_insts,
        dominant_type=dominant_type,
        dominant_rate=dominant_rate,
        gpu_bbv=vector,
    )


def _counts_of(seq: Tuple[int, ...]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for pc in seq:
        counts[pc] = counts.get(pc, 0) + 1
    return counts
