"""FIR filter (Hetero-Mark): small regular kernel with a short loop.

Each lane computes one output sample: ``y[i] = Σ_k h[k] * x[i + k]``
over ``n_taps`` taps.  The tap loop gives the kernel a handful of basic
blocks executed many times — the regime where basic-block-sampling
shines (Figure 15).
"""

from __future__ import annotations

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
    emit_global_index,
    register,
)

DEFAULT_TAPS = 16


def build_fir_program() -> KernelBuilder:
    """The FIR kernel program.

    args: s4 = n_taps, s5 = coeff base, s6 = input base, s7 = output base.
    registers: s8 = k, s9 = coeff addr, s10 = h[k];
               v0 = output index, v1 = acc, v2 = input index, v3 = x value.
    """
    b = KernelBuilder("fir")
    emit_global_index(b, dst_vreg=0, tmp_sreg=3)
    b.v_mov(v(1), 0.0)  # accumulator
    b.s_mov(s(8), 0)  # k = 0
    b.label("tap_loop")
    b.s_add(s(9), s(5), s(8))
    b.s_load(s(10), MemAddr(base=s(9)))  # h[k]
    b.v_add(v(2), v(0), s(8))  # input index i + k
    b.v_load(v(3), MemAddr(base=s(6), index=v(2)))
    b.s_waitcnt()
    b.v_mac(v(1), v(3), s(10))
    b.s_add(s(8), s(8), 1)
    b.s_cmp_lt(s(8), s(4))
    b.s_cbranch_scc1("tap_loop")
    b.v_store(v(1), MemAddr(base=s(7), index=v(0)))
    b.s_endpgm()
    return b


@register("fir")
def build_fir(
    n_warps: int,
    memory: Optional[GlobalMemory] = None,
    wg_size: int = 4,
    n_taps: int = DEFAULT_TAPS,
    seed: int = 2,
) -> Kernel:
    """FIR filter over ``n_warps * 64`` output samples."""
    check_n_warps(n_warps)
    n = n_warps * WARP_SIZE
    if memory is None:
        memory = GlobalMemory(capacity_words=2 * n + n_taps + 128)
    rng = default_rng(seed)
    coeff = alloc_normal(memory, "fir_h", n_taps, rng)
    x = alloc_normal(memory, "fir_x", n + n_taps, rng)
    y = memory.alloc("fir_y", n)
    program = build_fir_program().build()
    return Kernel(
        program=program,
        n_warps=n_warps,
        wg_size=wg_size,
        memory=memory,
        args=lambda w: {4: n_taps, 5: coeff, 6: x, 7: y},
        name="fir",
        meta={"n_taps": n_taps, "n_samples": n},
    )
