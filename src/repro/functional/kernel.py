"""Kernel and application definitions.

A :class:`Kernel` bundles everything one GPU kernel launch needs: the
program, the grid geometry (number of warps, warps per workgroup), the
global memory it operates on, and an argument-setup callback that loads
kernel arguments into scalar registers per warp — the moral equivalent of
the kernarg segment on GCN.

An :class:`Application` is an ordered list of kernel launches, which is
how real workloads (VGG, ResNet, PageRank iterations) appear to the
simulator and to Photon's kernel-sampling level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import WorkloadError
from ..isa.program import Program
from .memory import GlobalMemory

# Scalar registers with fixed meanings, preset by the executor before the
# argument callback runs (mirrors GCN's SGPR initialisation).
SREG_WARP_ID = 0
SREG_WORKGROUP_ID = 1
SREG_WARP_IN_WG = 2
FIRST_ARG_SREG = 4

DEFAULT_WARP_SIZE = 64

ArgSetup = Callable[[int], Dict[int, float]]


@dataclass
class Kernel:
    """One kernel launch description.

    Parameters
    ----------
    program:
        The assembled kernel program.
    n_warps:
        Total number of warps in the grid (the paper defines problem sizes
        by warp count).
    wg_size:
        Warps per workgroup (1–16 on real GPUs); workgroups share LDS and
        barriers and are dispatched to a single compute unit.
    memory:
        The global-memory arena the kernel reads and writes.
    args:
        ``args(warp_id) -> {sreg_index: value}`` loads per-warp kernel
        arguments into scalar registers (indices >= FIRST_ARG_SREG).
    """

    program: Program
    n_warps: int
    wg_size: int
    memory: GlobalMemory
    args: Optional[ArgSetup] = None
    warp_size: int = DEFAULT_WARP_SIZE
    name: str = ""
    # free-form metadata (layer name, problem size, ...) used in reports
    meta: Dict[str, object] = field(default_factory=dict)
    # per-warp dynamic-path signatures recorded by the interpreter's
    # finished batches: warps sharing a token took an identical
    # path, so a CONTROL fast-forward's grouping pre-partitions later
    # FULL fills instead of being re-derived.  Purely a performance
    # hint — a stale entry only costs a mid-batch split.
    path_memo: Dict[int, object] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_warps <= 0:
            raise WorkloadError(f"kernel needs >= 1 warp, got {self.n_warps}")
        if self.wg_size <= 0:
            raise WorkloadError(f"wg_size must be positive: {self.wg_size}")
        if self.warp_size <= 0:
            raise WorkloadError(f"warp_size must be positive: {self.warp_size}")
        if not self.name:
            self.name = self.program.name

    @property
    def n_workgroups(self) -> int:
        """Number of workgroups (last one may be partially filled)."""
        return -(-self.n_warps // self.wg_size)

    def workgroup_of(self, warp_id: int) -> int:
        """Workgroup index of global warp ``warp_id``."""
        if not 0 <= warp_id < self.n_warps:
            raise WorkloadError(
                f"warp id {warp_id} outside [0, {self.n_warps})"
            )
        return warp_id // self.wg_size

    def warps_in_workgroup(self, wg_id: int) -> range:
        """Global warp ids belonging to workgroup ``wg_id``."""
        start = wg_id * self.wg_size
        end = min(start + self.wg_size, self.n_warps)
        return range(start, end)


@dataclass
class Application:
    """A named, ordered sequence of kernel launches."""

    name: str
    kernels: List[Kernel] = field(default_factory=list)

    def launch(self, kernel: Kernel) -> None:
        """Append a kernel launch."""
        self.kernels.append(kernel)

    def extend(self, kernels: Sequence[Kernel]) -> None:
        """Append several kernel launches in order."""
        self.kernels.extend(kernels)

    @property
    def n_kernels(self) -> int:
        return len(self.kernels)

    @property
    def total_warps(self) -> int:
        """Total warps across all launches."""
        return sum(k.n_warps for k in self.kernels)

    def __iter__(self):
        return iter(self.kernels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Application({self.name!r}, {self.n_kernels} kernels)"
