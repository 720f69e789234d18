"""PageRank (Hetero-Mark, "PR-X" with X nodes): a real-world multi-kernel
application.

Each iteration launches one SpMV-flavoured kernel over the transposed
graph: ``rank'[v] = (1-d)/N + d * Σ_{u→v} rank[u] / deg(u)``.  All
iterations run the *same binary* with swapped rank buffers, so from the
second launch onward Photon's kernel-sampling recognises the GPU BBV and
skips detailed simulation entirely — the effect behind the large PR-X
speedups in Figure 16.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import WorkloadError
from ..functional.kernel import Application, Kernel
from ..functional.memory import GlobalMemory
from ..isa.builder import KernelBuilder
from ..isa.instructions import MemAddr
from ..isa.opcodes import s, v
from .base import WARP_SIZE, alloc_drawn, default_rng
from .spmv import make_row_lengths

DAMPING = 0.85


def build_pagerank_program() -> KernelBuilder:
    """One PageRank iteration (one destination node per warp).

    args: s4 = rowptr base (in-edges), s5 = src-node-id base,
          s6 = inv-out-degree base, s7 = rank-in base, s8 = rank-out
          base, s13 = base rank term (1-d)/N.
    """
    b = KernelBuilder("pagerank")
    b.s_add(s(9), s(4), s(0))
    b.s_load(s(10), MemAddr(base=s(9)))  # in-edge start
    b.s_load(s(11), MemAddr(base=s(9), offset=1))  # in-edge end
    b.v_mov(v(4), 0.0)
    b.label("edge_loop")
    b.s_cmp_ge(s(10), s(11))
    b.s_cbranch_scc1("writeback")
    b.v_lane(v(0))
    b.v_add(v(0), v(0), s(10))
    b.v_cmp_lt(v(0), s(11))
    b.s_exec_from_vcc()
    b.v_load(v(1), MemAddr(base=s(5), index=v(0)))  # source node ids
    b.s_waitcnt()
    b.v_load(v(2), MemAddr(base=s(7), index=v(1)))  # rank[src]
    b.v_load(v(3), MemAddr(base=s(6), index=v(1)))  # 1/deg(src)
    b.s_waitcnt()
    b.v_mul(v(2), v(2), v(3))
    b.v_add(v(4), v(4), v(2))
    b.s_exec_all()
    b.s_add(s(10), s(10), WARP_SIZE)
    b.s_branch("edge_loop")
    b.label("writeback")
    b.v_lane(v(0))
    b.v_cmp_eq(v(0), 0)
    b.s_exec_from_vcc()
    b.v_mul(v(4), v(4), DAMPING)
    b.v_add(v(4), v(4), s(13))
    b.s_add(s(12), s(8), s(0))
    b.v_store(v(4), MemAddr(base=s(12)))
    b.s_exec_all()
    b.s_endpgm()
    return b


def build_pagerank(
    n_nodes: int,
    iterations: int = 8,
    memory: Optional[GlobalMemory] = None,
    wg_size: int = 4,
    mean_degree: int = 96,
    seed: int = 7,
) -> Application:
    """PR-``n_nodes``: one kernel launch per PageRank iteration."""
    if n_nodes <= 0:
        raise WorkloadError(f"n_nodes must be positive, got {n_nodes}")
    if iterations <= 0:
        raise WorkloadError(f"iterations must be positive: {iterations}")
    rng = default_rng(seed)
    in_degrees = make_row_lengths(n_nodes, rng, mean_nnz=mean_degree,
                                  max_nnz=1024)
    rowptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(in_degrees, out=rowptr[1:])
    n_edges = int(rowptr[-1])
    if memory is None:
        memory = GlobalMemory(
            capacity_words=n_edges + 5 * n_nodes + 256)
    base_rowptr = memory.alloc("pr_rowptr", rowptr.astype(np.float64))
    degree = np.zeros(n_nodes, dtype=np.int64)

    def draw_sources(count: int) -> np.ndarray:
        sources = rng.integers(0, n_nodes, count)
        degree[:] += np.bincount(sources, minlength=n_nodes)
        return sources

    base_src = alloc_drawn(memory, "pr_src", n_edges, draw_sources)
    out_degree = degree.astype(np.float64)
    out_degree[out_degree == 0] = 1.0
    base_invdeg = memory.alloc("pr_invdeg", 1.0 / out_degree)
    base_rank = [memory.alloc("pr_rank0", n_nodes),
                 memory.alloc("pr_rank1", n_nodes)]
    memory.view("pr_rank0").fill(1.0 / n_nodes)
    program = build_pagerank_program().build()
    base_term = (1.0 - DAMPING) / n_nodes

    app = Application(name=f"pr-{n_nodes}")
    for it in range(iterations):
        rank_in = base_rank[it % 2]
        rank_out = base_rank[(it + 1) % 2]

        def args(warp_id: int, _in=rank_in, _out=rank_out):
            return {4: base_rowptr, 5: base_src, 6: base_invdeg,
                    7: _in, 8: _out, 13: base_term}

        app.launch(Kernel(
            program=program,
            n_warps=n_nodes,
            wg_size=wg_size,
            memory=memory,
            args=args,
            name=f"pagerank_iter{it}",
            meta={"iteration": it, "n_edges": n_edges},
        ))
    return app
