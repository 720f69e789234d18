"""N-body (AMD APP SDK): tiled all-pairs force accumulation.

The canonical compute-bound GPU kernel: each warp stages a tile of
body positions into LDS, synchronises at a barrier, then runs a long
uniform arithmetic loop over the staged tile before moving to the
next one.  Between barriers every resident warp executes the same
fixed-latency instruction sequence, which keeps warps phase-aligned —
the regime where the timing engine's vector rounds pay off (see
docs/performance.md).

Because LDS is a per-warp scratchpad in this simulator (see
:mod:`repro.functional.batch`), each warp stages every tile it reads
itself; results are exact.

The O(N^2) interaction loop is truncated to a fixed window of
``n_tiles`` tiles (a cutoff radius in the usual formulation) so the
instruction count scales linearly with the problem size.
"""

from __future__ import annotations

from typing import Optional

from ..functional.kernel import Kernel
from ..functional.memory import GlobalMemory
from ..isa.builder import KernelBuilder
from ..isa.instructions import MemAddr
from ..isa.opcodes import s, v
from ..errors import WorkloadError
from .base import (
    WARP_SIZE,
    alloc_normal,
    check_n_warps,
    default_rng,
    register,
)

DEFAULT_TILES = 4
SOFTENING = 0.5


def build_nbody_program(n_tiles: int = DEFAULT_TILES) -> KernelBuilder:
    """The n-body kernel program.

    args: s4 = position base, s5 = force output base.
    registers: s8 = tile, s9 = tile base addr, s10 = body index t;
               v0 = body index i, v1 = x_i, v2 = lane (LDS slot),
               v3 = staged tile value, v5..v7 = scratch, v8 = acc.
    """
    b = KernelBuilder("nbody")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), WARP_SIZE)
    b.v_add(v(0), v(0), s(3))  # global body index i
    b.v_load(v(1), MemAddr(base=s(4), index=v(0)))  # x_i
    b.s_waitcnt()
    b.v_mov(v(8), 0.0)  # force accumulator
    b.v_lane(v(2))  # LDS staging slot
    b.s_mov(s(8), 0)  # tile = 0
    b.label("tile_loop")
    # stage this tile's 64 bodies into LDS
    b.s_mul(s(9), s(8), WARP_SIZE)
    b.s_add(s(9), s(9), s(4))
    b.v_load(v(3), MemAddr(base=s(9), index=v(2)))
    b.s_waitcnt()
    b.ds_write(v(2), v(3))
    b.s_barrier()
    # interact with every staged body
    b.s_mov(s(10), 0)  # t = 0
    b.label("body_loop")
    b.ds_read(v(5), s(10))  # x_j (broadcast)
    b.v_sub(v(6), v(5), v(1))  # dx
    b.v_mul(v(7), v(6), v(6))  # dx^2
    b.v_add(v(7), v(7), SOFTENING)
    b.v_max(v(7), v(7), 1.0)  # clamped inverse-square stand-in
    b.v_mac(v(8), v(6), v(7))  # acc += dx * w
    b.s_add(s(10), s(10), 1)
    b.s_cmp_lt(s(10), WARP_SIZE)
    b.s_cbranch_scc1("body_loop")
    b.s_barrier()
    b.s_add(s(8), s(8), 1)
    b.s_cmp_lt(s(8), n_tiles)
    b.s_cbranch_scc1("tile_loop")
    b.v_store(v(8), MemAddr(base=s(5), index=v(0)))
    b.s_endpgm()
    return b


@register("nbody")
def build_nbody(
    n_warps: int,
    memory: Optional[GlobalMemory] = None,
    wg_size: int = 4,
    n_tiles: int = DEFAULT_TILES,
    seed: int = 17,
) -> Kernel:
    """N-body over ``n_warps * 64`` bodies, ``n_tiles`` tiles each."""
    check_n_warps(n_warps)
    if n_tiles <= 0 or n_tiles > n_warps:
        raise WorkloadError(
            f"n_tiles must be in [1, n_warps], got {n_tiles}")
    n = n_warps * WARP_SIZE
    if memory is None:
        memory = GlobalMemory(capacity_words=2 * n + 64)
    rng = default_rng(seed)
    x = alloc_normal(memory, "nbody_x", n, rng)
    out = memory.alloc("nbody_out", n)
    program = build_nbody_program(n_tiles).build()
    return Kernel(
        program=program,
        n_warps=n_warps,
        wg_size=wg_size,
        memory=memory,
        args=lambda w: {4: x, 5: out},
        name="nbody",
        meta={"n_bodies": n, "n_tiles": n_tiles},
    )
