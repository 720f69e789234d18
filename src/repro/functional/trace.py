"""Trace containers produced by the functional simulator.

Two fidelities exist, matching the two uses inside a sampled simulator:

* :class:`WarpTrace` (FULL mode) — everything the detailed timing model
  needs: per-dynamic-instruction opcode class and producer dependency,
  and the coalesced lines of each memory instruction.  Expensive to
  produce (per-lane emulation).
* :class:`ControlTrace` (CONTROL mode) — only what sampling analysis
  needs: the basic-block sequence, instruction count, and BBV.  Cheap to
  produce because vector lane values are never materialised.  This is the
  "functional simulation" Photon runs for the remaining warps during
  basic-block-sampling and for the 1% online-analysis sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class WarpTrace:
    """Full-fidelity dynamic trace of one warp.

    Parallel arrays, one entry per dynamic instruction:

    ``static_idx``  index into ``program.instructions``
    ``opclass``     int(OpClass) — timing dispatch key
    ``opcode``      int id of the opcode (latency-table key)
    ``dep``         dynamic index of the youngest producer of any source
                    register, or -1 when none
    ``is_store``    True for stores (write-through behaviour in the caches)

    and one per memory instruction (vector or scalar), in issue order:

    ``mem_pos``     its dynamic index
    ``mem_lines``   the sorted cache lines it touched (``()``: no lane)

    Warps of one path group share every list but ``mem_lines`` (the
    store's path / line blob split); one fill shares equal records.
    """

    warp_id: int
    static_idx: List[int] = field(default_factory=list)
    opclass: List[int] = field(default_factory=list)
    opcode: List[int] = field(default_factory=list)
    dep: List[int] = field(default_factory=list)
    mem_lines: List[Tuple[int, ...]] = field(default_factory=list)
    is_store: List[bool] = field(default_factory=list)
    # (bb_pc, first_dynamic_index) per executed basic block, in order
    bb_seq: List[Tuple[int, int]] = field(default_factory=list)
    mem_pos: List[int] = field(default_factory=list)

    @property
    def n_insts(self) -> int:
        """Dynamic instruction count."""
        return len(self.static_idx)


@dataclass
class ControlTrace:
    """Control-flow-only trace of one warp (cheap fast-forward mode)."""

    warp_id: int
    bb_seq: List[int] = field(default_factory=list)  # bb PCs, in order
    n_insts: int = 0

    def bb_counts(self) -> Dict[int, int]:
        """Execution count per basic-block PC."""
        counts: Dict[int, int] = {}
        for pc in self.bb_seq:
            counts[pc] = counts.get(pc, 0) + 1
        return counts
