"""Matrix Multiplication (AMD APP SDK): the paper's canonical large
regular kernel.

Classic LDS-tiled GEMM: each warp computes 64 consecutive elements of
one row of ``C``; the workgroup cooperatively stages a ``T×64`` tile of
``B`` into LDS between two ``s_barrier``s, then accumulates over the
tile.  Barriers end basic blocks (Observation 3), so the kernel has many
block types with large dynamic counts, and the inter-warp
synchronisation gives it the fluctuating IPC of Figure 1b.

Problem size: ``n_warps`` warps ⇒ an ``N×N`` matrix with
``N = 8·sqrt(n_warps)`` rounded up to a multiple of 64.
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import WorkloadError
from ..functional.kernel import Kernel
from ..functional.memory import GlobalMemory
from ..isa.builder import KernelBuilder
from ..isa.instructions import MemAddr
from ..isa.opcodes import s, v
from .base import (
    WARP_SIZE,
    alloc_normal,
    check_n_warps,
    default_rng,
    register,
)

TILE = 16  # K-tile staged in LDS per barrier epoch


def build_mm_program(wg_size: int) -> KernelBuilder:
    """The tiled-GEMM kernel program.

    args: s4 = N, s5 = K, s6 = A base, s7 = B base, s8 = C base,
          s9 = row r, s10 = column base c (per-warp, set by args callback).
    """
    if TILE % wg_size:
        raise WorkloadError(f"wg_size {wg_size} must divide tile {TILE}")
    rows_per_warp = TILE // wg_size
    b = KernelBuilder("mm")
    b.v_lane(v(0))
    b.v_mov(v(2), 0.0)  # accumulator
    b.s_mov(s(11), 0)  # k = 0
    b.label("tile_loop")
    # --- cooperative tile load: this warp stages rows_per_warp rows of B
    b.s_mov(s(12), 0)  # tt = 0
    b.label("tload_loop")
    b.s_mul(s(13), s(2), rows_per_warp)
    b.s_add(s(13), s(13), s(11))
    b.s_add(s(13), s(13), s(12))  # staged row = k + wslot*rpw + tt
    b.s_mul(s(15), s(13), s(4))  # row * N
    b.s_add(s(15), s(15), s(7))
    b.s_add(s(15), s(15), s(10))  # B + row*N + c
    b.v_load(v(5), MemAddr(base=s(15), index=v(0)))
    b.s_waitcnt()
    b.s_mul(s(17), s(2), rows_per_warp)
    b.s_add(s(17), s(17), s(12))
    b.s_mul(s(17), s(17), WARP_SIZE)  # LDS slot base
    b.v_add(v(6), v(0), s(17))
    b.ds_write(v(6), v(5))
    b.s_add(s(12), s(12), 1)
    b.s_cmp_lt(s(12), rows_per_warp)
    b.s_cbranch_scc1("tload_loop")
    b.s_barrier()
    # --- accumulate over the staged tile
    b.s_mov(s(14), 0)  # t = 0
    b.label("inner_loop")
    b.s_mul(s(15), s(9), s(5))  # r * K
    b.s_add(s(15), s(15), s(11))
    b.s_add(s(15), s(15), s(14))
    b.s_add(s(15), s(15), s(6))  # A + r*K + k + t
    b.s_load(s(16), MemAddr(base=s(15)))
    b.s_mul(s(17), s(14), WARP_SIZE)
    b.v_add(v(6), v(0), s(17))
    b.ds_read(v(4), v(6))
    b.v_mac(v(2), v(4), s(16))
    b.s_add(s(14), s(14), 1)
    b.s_cmp_lt(s(14), TILE)
    b.s_cbranch_scc1("inner_loop")
    b.s_barrier()
    b.s_add(s(11), s(11), TILE)
    b.s_cmp_lt(s(11), s(5))
    b.s_cbranch_scc1("tile_loop")
    # --- write back C[r, c:c+64]
    b.s_mul(s(15), s(9), s(4))
    b.s_add(s(15), s(15), s(10))
    b.s_add(s(15), s(15), s(8))
    b.v_store(v(2), MemAddr(base=s(15), index=v(0)))
    b.s_endpgm()
    return b


def matrix_dim(n_warps: int) -> int:
    """Matrix edge N for a requested problem size (multiple of 64)."""
    n = int(math.sqrt(n_warps * WARP_SIZE))
    return max(WARP_SIZE, -(-n // WARP_SIZE) * WARP_SIZE)


@register("mm")
def build_mm(
    n_warps: int,
    memory: Optional[GlobalMemory] = None,
    wg_size: int = 4,
    seed: int = 4,
) -> Kernel:
    """Tiled GEMM sized to approximately ``n_warps`` warps.

    The actual warp count is ``N²/64`` for the rounded matrix dimension
    (recorded in ``kernel.meta``).
    """
    check_n_warps(n_warps)
    n = matrix_dim(n_warps)
    k_dim = n
    warps_per_row = n // WARP_SIZE
    actual_warps = n * n // WARP_SIZE
    if memory is None:
        memory = GlobalMemory(capacity_words=3 * n * n + 256)
    rng = default_rng(seed)
    a = alloc_normal(memory, "mm_a", n * k_dim, rng)
    b_buf = alloc_normal(memory, "mm_b", k_dim * n, rng)
    c = memory.alloc("mm_c", n * n)
    program = build_mm_program(wg_size).build()

    def args(warp_id: int):
        row = warp_id // warps_per_row
        col = (warp_id % warps_per_row) * WARP_SIZE
        return {4: n, 5: k_dim, 6: a, 7: b_buf, 8: c, 9: row, 10: col}

    return Kernel(
        program=program,
        n_warps=actual_warps,
        wg_size=wg_size,
        memory=memory,
        args=args,
        name="mm",
        meta={"N": n, "K": k_dim, "requested_warps": n_warps},
    )
