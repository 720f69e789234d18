"""Simple Convolution (AMD APP SDK): 2-D stencil over an image.

Each lane computes one output pixel as the weighted sum of a ``k × k``
neighbourhood.  The doubly-nested mask loop produces a moderate number
of basic blocks with large dynamic counts; the paper uses SC as its
regular-workload running example (Figures 8 and 11).
"""

from __future__ import annotations

import math
from typing import Optional

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

DEFAULT_MASK = 3


def build_sc_program() -> KernelBuilder:
    """The simple-convolution kernel program.

    args: s4 = image width, s5 = mask size k, s6 = mask base,
          s7 = input base, s8 = output base.
    Each warp covers 64 consecutive pixels of the padded output.
    registers: s9 = i (mask row), s10 = j (mask col), s11 = mask addr,
               s12 = mask value, s13 = row offset; v0 = pixel index,
               v1 = acc, v2 = neighbour index.
    """
    b = KernelBuilder("sc")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), WARP_SIZE)
    b.v_add(v(0), v(0), s(3))  # output pixel index
    b.v_mov(v(1), 0.0)
    b.s_mov(s(9), 0)  # i = 0
    b.label("row_loop")
    b.s_mov(s(10), 0)  # j = 0
    b.s_mul(s(13), s(9), s(4))  # i * width
    b.label("col_loop")
    b.s_mul(s(11), s(9), s(5))
    b.s_add(s(11), s(11), s(10))
    b.s_add(s(11), s(11), s(6))
    b.s_load(s(12), MemAddr(base=s(11)))  # mask[i][j]
    b.v_add(v(2), v(0), s(13))
    b.v_add(v(2), v(2), s(10))  # neighbour = pixel + i*width + j
    b.v_load(v(3), MemAddr(base=s(7), index=v(2)))
    b.s_waitcnt()
    b.v_mac(v(1), v(3), s(12))
    b.s_add(s(10), s(10), 1)
    b.s_cmp_lt(s(10), s(5))
    b.s_cbranch_scc1("col_loop")
    b.s_add(s(9), s(9), 1)
    b.s_cmp_lt(s(9), s(5))
    b.s_cbranch_scc1("row_loop")
    b.v_store(v(1), MemAddr(base=s(8), index=v(0)))
    b.s_endpgm()
    return b


@register("sc")
def build_sc(
    n_warps: int,
    memory: Optional[GlobalMemory] = None,
    wg_size: int = 4,
    mask_size: int = DEFAULT_MASK,
    seed: int = 3,
) -> Kernel:
    """Simple convolution over ``n_warps * 64`` output pixels."""
    check_n_warps(n_warps)
    n = n_warps * WARP_SIZE
    width = max(64, 1 << int(math.ceil(math.log2(math.sqrt(n)))))
    pad = mask_size * width + mask_size  # widest neighbour reach
    if memory is None:
        memory = GlobalMemory(capacity_words=2 * n + pad + mask_size ** 2 + 192)
    rng = default_rng(seed)
    mask = alloc_normal(memory, "sc_mask", mask_size ** 2, rng)
    image = alloc_normal(memory, "sc_in", n + pad, rng)
    out = memory.alloc("sc_out", n)
    program = build_sc_program().build()
    return Kernel(
        program=program,
        n_warps=n_warps,
        wg_size=wg_size,
        memory=memory,
        args=lambda w: {4: width, 5: mask_size, 6: mask, 7: image, 8: out},
        name="sc",
        meta={"width": width, "mask": mask_size},
    )
