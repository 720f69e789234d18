"""Shared infrastructure for the benchmark workloads (paper Table 2).

Each workload module exposes a ``build_<name>(n_warps, ...) -> Kernel``
factory (or an ``Application`` factory for multi-kernel workloads).  All
kernels follow the register conventions of
:mod:`repro.functional.kernel`: ``s0`` = warp id, ``s1`` = workgroup id,
``s2`` = warp index within the workgroup; kernel arguments are loaded
from ``s4`` upward by the argument callback.

Problem sizes are defined by the number of warps, exactly as in the
paper's evaluation ("we run all benchmarks using various problem sizes,
which are defined by the number of warps").
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..errors import WorkloadError
from ..functional.kernel import DEFAULT_WARP_SIZE, Kernel
from ..functional.memory import GlobalMemory
from ..isa.builder import KernelBuilder
from ..isa.opcodes import s, v

WARP_SIZE = DEFAULT_WARP_SIZE

# factory registry filled by the workload modules; the harness sweeps it
REGISTRY: Dict[str, Callable[..., Kernel]] = {}


def register(name: str):
    """Decorator adding a kernel factory to the sweep registry."""

    def wrap(fn):
        REGISTRY[name] = fn
        return fn

    return wrap


def check_n_warps(n_warps: int) -> None:
    """Validate a problem size."""
    if n_warps <= 0:
        raise WorkloadError(f"n_warps must be positive, got {n_warps}")


def emit_global_index(builder: KernelBuilder, dst_vreg: int = 0,
                      tmp_sreg: int = 3) -> None:
    """Emit ``v[dst] = warp_id * WARP_SIZE + lane`` (global element id)."""
    builder.v_lane(v(dst_vreg))
    builder.s_mul(s(tmp_sreg), s(0), WARP_SIZE)
    builder.v_add(v(dst_vreg), v(dst_vreg), s(tmp_sreg))


def default_rng(seed: int) -> np.random.Generator:
    """Deterministic per-workload random generator."""
    return np.random.default_rng(seed)


#: words per call of :func:`alloc_drawn` (a 512 KB temporary)
DRAW_CHUNK = 1 << 16


def alloc_normal(memory: GlobalMemory, name: str, size: int,
                 rng: np.random.Generator) -> int:
    """Allocate ``size`` words as ``name`` and draw standard normals into
    them in place: the words ``rng.standard_normal(size)`` would give."""
    base = memory.alloc(name, size)
    rng.standard_normal(out=memory.view(name))
    return base


def alloc_drawn(memory: GlobalMemory, name: str, size: int,
                draw: Callable[[int], np.ndarray]) -> int:
    """Allocate ``size`` words as ``name`` and fill them from
    ``draw(count)`` calls of at most :data:`DRAW_CHUNK` words: the
    words of one ``draw(size)`` for draws that buffer nothing between
    calls (``rng.integers``, ``rng.uniform``)."""
    base = memory.alloc(name, size)
    view = memory.view(name)
    for lo in range(0, size, DRAW_CHUNK):
        view[lo:lo + DRAW_CHUNK] = draw(min(DRAW_CHUNK, size - lo))
    return base
