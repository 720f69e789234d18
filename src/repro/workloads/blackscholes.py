"""Black-Scholes option pricing (CUDA SDK): implied-vol refinement.

The canonical pure-compute GPU kernel: each thread owns one option and
runs a long uniform arithmetic loop — a cubic CND polynomial in the
volatility (Horner form, Abramowitz-Stegun constants) followed by a
clamped fixed-point update driving the volatility toward the target
price.  There is no LDS staging and no barrier; with only fixed-latency
vector ALU work in the loop, resident warps stay phase-aligned through
the uniform latencies alone — the best case for the timing engine's
vector rounds (nbody/kmeans need a barrier to re-align; this kernel
never de-aligns).

The closed-form Black-Scholes price is replaced by the cubic polynomial
model (the usual erf/exp terms have no ISA equivalent here), and the
Newton step by a clamped gradient step — the instruction mix (long
Horner chains of fused multiply-adds) is what the real kernel's CND
evaluation executes.
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
    alloc_drawn,
    check_n_warps,
    default_rng,
    emit_global_index,
    register,
)

DEFAULT_ITERS = 64

# Abramowitz-Stegun CND polynomial constants (every GPU-SDK
# BlackScholes sample carries these), Horner order high-to-low
A3 = 1.781477937
A2 = -0.356563782
A1 = 0.31938153
A0 = 0.2316419

LEARN_RATE = 0.05
TARGET_RATIO = 0.25   # target price as a fraction of spot
SIGMA0 = 0.5
SIGMA_MIN = 0.05
SIGMA_MAX = 2.0


def build_blackscholes_program(n_iters: int = DEFAULT_ITERS) -> KernelBuilder:
    """The Black-Scholes implied-volatility kernel program.

    args: s4 = spot base, s5 = strike base, s6 = output base.
    registers: s8 = iteration; v0 = option index, v1 = spot S,
               v2 = strike K, v3 = moneyness S-K, v4 = sigma,
               v5 = Horner accumulator, v6 = model price,
               v7 = residual, v8 = target price.
    """
    if n_iters <= 0:
        raise WorkloadError(f"n_iters must be positive, got {n_iters}")
    b = KernelBuilder("blackscholes")
    emit_global_index(b)
    b.v_load(v(1), MemAddr(base=s(4), index=v(0)))  # S
    b.v_load(v(2), MemAddr(base=s(5), index=v(0)))  # K
    b.s_waitcnt()
    b.v_sub(v(3), v(1), v(2))          # moneyness
    b.v_mul(v(8), v(1), TARGET_RATIO)  # target price
    b.v_mov(v(4), SIGMA0)
    b.s_mov(s(8), 0)
    b.label("iter_loop")
    # cubic CND polynomial in sigma, Horner form
    b.v_mov(v(5), A3)
    b.v_fma(v(5), v(5), v(4), A2)
    b.v_fma(v(5), v(5), v(4), A1)
    b.v_fma(v(5), v(5), v(4), A0)
    b.v_mul(v(6), v(5), v(3))          # model price
    b.v_sub(v(7), v(6), v(8))          # residual
    b.v_mac(v(4), v(7), -LEARN_RATE)   # sigma -= lr * residual
    b.v_max(v(4), v(4), SIGMA_MIN)
    b.v_min(v(4), v(4), SIGMA_MAX)
    b.s_add(s(8), s(8), 1)
    b.s_cmp_lt(s(8), n_iters)
    b.s_cbranch_scc1("iter_loop")
    b.v_store(v(4), MemAddr(base=s(6), index=v(0)))
    b.s_endpgm()
    return b


@register("blackscholes")
def build_blackscholes(
    n_warps: int,
    memory: Optional[GlobalMemory] = None,
    wg_size: int = 4,
    n_iters: int = DEFAULT_ITERS,
    seed: int = 29,
) -> Kernel:
    """Implied volatilities for ``n_warps * 64`` options."""
    check_n_warps(n_warps)
    n = n_warps * WARP_SIZE
    if memory is None:
        memory = GlobalMemory(capacity_words=3 * n + 64)
    rng = default_rng(seed)
    spot = alloc_drawn(memory, "bs_spot", n,
                       lambda count: rng.uniform(10.0, 100.0, count))
    strike = alloc_drawn(memory, "bs_strike", n,
                         lambda count: rng.uniform(10.0, 100.0, count))
    out = memory.alloc("bs_out", n)
    program = build_blackscholes_program(n_iters).build()
    return Kernel(
        program=program,
        n_warps=n_warps,
        wg_size=wg_size,
        memory=memory,
        args=lambda w: {4: spot, 5: strike, 6: out},
        name="blackscholes",
        meta={"n_options": n, "n_iters": n_iters},
    )
