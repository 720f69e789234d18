"""K-means distance phase (Rodinia): nearest-centroid search.

Each warp owns 64 points; the centroid table is staged into LDS once,
then a long uniform loop computes the squared distance of every point
to every centroid and keeps the minimum.  Like :mod:`nbody`, the loop
body is pure fixed-latency arithmetic after one barrier, so resident
warps stay phase-aligned — a stress case for the timing engine's
vector rounds.

LDS is a per-warp scratchpad in this simulator, so every warp stages
the full centroid table itself (64 slots for x, 64 for y).
"""

from __future__ import annotations

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

DEFAULT_CLUSTERS = 32
_BIG = 1e30


def build_kmeans_program(n_clusters: int = DEFAULT_CLUSTERS) -> KernelBuilder:
    """The k-means distance kernel program.

    args: s4 = point-x base, s5 = point-y base, s6 = centroid-x base,
          s7 = centroid-y base, s10 = output base.
    registers: s8 = k, s9 = LDS slot of centroid-y; v0 = point index,
               v1/v2 = point coords, v3 = lane, v4/v5 = staged
               centroids, v7 = best distance, v8..v10 = scratch.
    """
    if n_clusters <= 0 or n_clusters > WARP_SIZE:
        raise WorkloadError(
            f"n_clusters must be in [1, {WARP_SIZE}], got {n_clusters}")
    b = KernelBuilder("kmeans")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), WARP_SIZE)
    b.v_add(v(0), v(0), s(3))  # global point index
    b.v_load(v(1), MemAddr(base=s(4), index=v(0)))  # px
    b.v_load(v(2), MemAddr(base=s(5), index=v(0)))  # py
    # stage the centroid table: lane k holds centroid k
    b.v_lane(v(3))
    b.v_load(v(4), MemAddr(base=s(6), index=v(3)))
    b.v_load(v(5), MemAddr(base=s(7), index=v(3)))
    b.s_waitcnt()
    b.ds_write(v(3), v(4))  # lds[k]             = cx_k
    b.v_add(v(6), v(3), WARP_SIZE)
    b.ds_write(v(6), v(5))  # lds[WARP_SIZE + k] = cy_k
    b.s_barrier()
    b.v_mov(v(7), _BIG)  # best squared distance
    b.s_mov(s(8), 0)  # k = 0
    b.label("k_loop")
    b.ds_read(v(8), s(8))  # cx (broadcast)
    b.s_add(s(9), s(8), WARP_SIZE)
    b.ds_read(v(9), s(9))  # cy
    b.v_sub(v(8), v(8), v(1))  # dx
    b.v_sub(v(9), v(9), v(2))  # dy
    b.v_mul(v(10), v(8), v(8))
    b.v_mac(v(10), v(9), v(9))  # dx^2 + dy^2
    b.v_min(v(7), v(7), v(10))
    b.s_add(s(8), s(8), 1)
    b.s_cmp_lt(s(8), n_clusters)
    b.s_cbranch_scc1("k_loop")
    b.v_store(v(7), MemAddr(base=s(10), index=v(0)))
    b.s_endpgm()
    return b


@register("kmeans")
def build_kmeans(
    n_warps: int,
    memory: Optional[GlobalMemory] = None,
    wg_size: int = 4,
    n_clusters: int = DEFAULT_CLUSTERS,
    seed: int = 23,
) -> Kernel:
    """K-means distances for ``n_warps * 64`` points."""
    check_n_warps(n_warps)
    n = n_warps * WARP_SIZE
    if memory is None:
        memory = GlobalMemory(capacity_words=3 * n + 2 * WARP_SIZE + 64)
    rng = default_rng(seed)
    px = alloc_normal(memory, "kmeans_px", n, rng)
    py = alloc_normal(memory, "kmeans_py", n, rng)
    cx = alloc_normal(memory, "kmeans_cx", WARP_SIZE, rng)
    cy = alloc_normal(memory, "kmeans_cy", WARP_SIZE, rng)
    out = memory.alloc("kmeans_out", n)
    program = build_kmeans_program(n_clusters).build()
    return Kernel(
        program=program,
        n_warps=n_warps,
        wg_size=wg_size,
        memory=memory,
        args=lambda w: {4: px, 5: py, 6: cx, 7: cy, 10: out},
        name="kmeans",
        meta={"n_points": n, "n_clusters": n_clusters},
    )
