"""ReLU (DNNMark): rectified linear unit, the paper's canonical small
regular kernel.

Each warp clamps 64 consecutive elements at zero.  The kernel has very
few basic blocks (the paper notes "ReLU only has two basic blocks so the
threshold of basic-block sampling is easier to satisfy") and exactly one
warp type, so it exercises both basic-block- and warp-sampling.
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


def build_relu_program() -> "KernelBuilder":
    """The ReLU kernel program.

    args: s4 = element count, s5 = input base, s6 = output base.
    """
    b = KernelBuilder("relu")
    emit_global_index(b, dst_vreg=0, tmp_sreg=3)
    b.s_cmp_ge(s(3), s(4))  # warp entirely past the end?
    b.s_cbranch_scc1("done")
    b.v_load(v(1), MemAddr(base=s(5), index=v(0)))
    b.s_waitcnt()
    b.v_max(v(1), v(1), 0.0)
    b.v_store(v(1), MemAddr(base=s(6), index=v(0)))
    b.label("done")
    b.s_endpgm()
    return b


@register("relu")
def build_relu(
    n_warps: int,
    memory: Optional[GlobalMemory] = None,
    wg_size: int = 4,
    seed: int = 1,
) -> Kernel:
    """ReLU over ``n_warps * 64`` elements."""
    check_n_warps(n_warps)
    n = n_warps * WARP_SIZE
    if memory is None:
        memory = GlobalMemory(capacity_words=2 * n + 64)
    rng = default_rng(seed)
    x = alloc_normal(memory, "relu_x", n, rng)
    y = memory.alloc("relu_y", n)
    program = build_relu_program().build()
    return Kernel(
        program=program,
        n_warps=n_warps,
        wg_size=wg_size,
        memory=memory,
        args=lambda w: {4: n, 5: x, 6: y},
        name="relu",
        meta={"n_elements": n},
    )
