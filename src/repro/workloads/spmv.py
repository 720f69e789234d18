"""Sparse Matrix-Vector multiplication (SHOC): the paper's canonical
irregular workload.

CSR SpMV with one row per warp: lanes sweep 64 nonzeros per iteration,
so a row of length L takes ceil(L/64) loop trips.  Row lengths follow a
heavy-tailed distribution, giving many warp types (different trip
counts) and irregular gathers of ``x[col]`` — the combination that
defeats warp-sampling and IPC-stability methods but that
basic-block-sampling handles (Figures 13f and 15f).

The final result-writeback block executes once per warp — the "rare
basic block" case handled by the interval model (Figure 9).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import WorkloadError
from ..functional.kernel import Kernel
from ..functional.memory import GlobalMemory
from ..isa.builder import KernelBuilder
from ..isa.instructions import MemAddr
from ..isa.opcodes import s, v
from .base import (
    WARP_SIZE,
    alloc_drawn,
    alloc_normal,
    check_n_warps,
    default_rng,
    register,
)


def build_spmv_program() -> KernelBuilder:
    """The CSR SpMV kernel program (one row per warp).

    args: s4 = rowptr base, s5 = colidx base, s6 = values base,
          s7 = x base, s8 = y base.
    """
    b = KernelBuilder("spmv")
    b.s_add(s(9), s(4), s(0))
    b.s_load(s(10), MemAddr(base=s(9)))  # row start
    b.s_load(s(11), MemAddr(base=s(9), offset=1))  # row end
    b.v_mov(v(4), 0.0)  # accumulator
    b.label("nnz_loop")
    b.s_cmp_ge(s(10), s(11))
    b.s_cbranch_scc1("writeback")
    b.v_lane(v(0))
    b.v_add(v(0), v(0), s(10))  # nonzero index
    b.v_cmp_lt(v(0), s(11))
    b.s_exec_from_vcc()  # mask the ragged tail
    b.v_load(v(1), MemAddr(base=s(5), index=v(0)))  # column indices
    b.s_waitcnt()
    b.v_load(v(2), MemAddr(base=s(7), index=v(1)))  # gather x[col]
    b.v_load(v(3), MemAddr(base=s(6), index=v(0)))  # values
    b.s_waitcnt()
    b.v_mac(v(4), v(2), v(3))
    b.s_exec_all()
    b.s_add(s(10), s(10), WARP_SIZE)
    b.s_branch("nnz_loop")
    b.label("writeback")
    # lane-0 store of the row result (rare basic block)
    b.v_lane(v(0))
    b.v_cmp_eq(v(0), 0)
    b.s_exec_from_vcc()
    b.s_add(s(12), s(8), s(0))
    b.v_store(v(4), MemAddr(base=s(12)))
    b.s_exec_all()
    b.s_endpgm()
    return b


def make_row_lengths(n_rows: int, rng: np.random.Generator,
                     mean_nnz: int = 192, max_nnz: int = 2048) -> np.ndarray:
    """Heavy-tailed row lengths (Pareto body + clip), >= 1 nonzero."""
    raw = (rng.pareto(1.8, n_rows) + 0.25) * mean_nnz
    return np.clip(raw.astype(np.int64), 1, max_nnz)


@register("spmv")
def build_spmv(
    n_warps: int,
    memory: Optional[GlobalMemory] = None,
    wg_size: int = 4,
    mean_nnz: int = 192,
    seed: int = 6,
) -> Kernel:
    """CSR SpMV with ``n_warps`` rows (one row per warp)."""
    check_n_warps(n_warps)
    rng = default_rng(seed)
    lengths = make_row_lengths(n_warps, rng, mean_nnz=mean_nnz)
    rowptr = np.zeros(n_warps + 1, dtype=np.int64)
    np.cumsum(lengths, out=rowptr[1:])
    nnz = int(rowptr[-1])
    n_cols = max(WARP_SIZE, n_warps * WARP_SIZE // 8)
    if memory is None:
        memory = GlobalMemory(capacity_words=2 * nnz + n_cols
                              + 2 * n_warps + 256)
    base_rowptr = memory.alloc("spmv_rowptr", rowptr.astype(np.float64))
    base_colidx = alloc_drawn(memory, "spmv_colidx", nnz,
                              lambda count: rng.integers(0, n_cols, count))
    base_vals = alloc_normal(memory, "spmv_vals", nnz, rng)
    base_x = alloc_normal(memory, "spmv_x", n_cols, rng)
    base_y = memory.alloc("spmv_y", n_warps)
    program = build_spmv_program().build()

    def args(warp_id: int):
        return {4: base_rowptr, 5: base_colidx, 6: base_vals,
                7: base_x, 8: base_y}

    return Kernel(
        program=program,
        n_warps=n_warps,
        wg_size=wg_size,
        memory=memory,
        args=args,
        name="spmv",
        meta={"nnz": nnz, "n_cols": n_cols, "mean_nnz": mean_nnz},
    )
