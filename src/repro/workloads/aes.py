"""AES-256 encryption (Hetero-Mark): a long straight-line kernel.

Unlike SC/MM, whose dynamic instruction counts come from loops, AES is a
long *sequence* — roughly 400 instructions covering the rounds of the
cipher — so all the work sits in very few huge basic blocks.  The paper
notes this is the regime where warp-sampling provides most of the
speedup (Figure 15) and where PKA's partial-kernel IPC extrapolation
fails ("it does not collect all instructions inside the kernel").

Each lane encrypts one 4-word block; T-table lookups are per-lane
gathers whose addresses depend on the evolving cipher state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

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
    register,
)

ROUNDS = 10
TTABLE_WORDS = 256
STATE_WORDS = 4  # state registers v1..v4


def build_aes_program() -> KernelBuilder:
    """The AES kernel program (straight line, ~400 instructions).

    args: s4 = T-table base, s5..s8 = input word bases (one per state
    word), s9..s12 = output word bases, s13 = round-key base.
    """
    b = KernelBuilder("aes")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), WARP_SIZE)
    b.v_add(v(0), v(0), s(3))  # global block index
    for word in range(STATE_WORDS):
        b.v_load(v(1 + word), MemAddr(base=s(5 + word), index=v(0)))
    b.s_waitcnt()
    for rnd in range(ROUNDS):
        # add round key: four scalar loads + xors
        for word in range(STATE_WORDS):
            b.s_load(s(14 + word),
                     MemAddr(base=s(13), offset=rnd * STATE_WORDS + word))
            b.v_xor(v(1 + word), v(1 + word), s(14 + word))
        # sub-bytes/mix via T-table gathers on the low byte of each word
        for word in range(STATE_WORDS):
            state = v(1 + word)
            b.v_and(v(5), state, TTABLE_WORDS - 1)
            b.v_load(v(6), MemAddr(base=s(4), index=v(5)))
            b.s_waitcnt()
            b.v_xor(state, state, v(6))
            b.v_lshr(v(7), state, 8)
            b.v_xor(state, state, v(7))
        # shift-rows flavoured cross-word mixing
        b.v_xor(v(1), v(1), v(2))
        b.v_xor(v(2), v(2), v(3))
        b.v_xor(v(3), v(3), v(4))
        b.v_xor(v(4), v(4), v(1))
    for word in range(STATE_WORDS):
        b.v_store(v(1 + word), MemAddr(base=s(9 + word), index=v(0)))
    b.s_endpgm()
    return b


@register("aes")
def build_aes(
    n_warps: int,
    memory: Optional[GlobalMemory] = None,
    wg_size: int = 4,
    seed: int = 5,
) -> Kernel:
    """AES over ``n_warps * 64`` independent blocks."""
    check_n_warps(n_warps)
    n = n_warps * WARP_SIZE
    if memory is None:
        memory = GlobalMemory(
            capacity_words=2 * STATE_WORDS * n + TTABLE_WORDS
            + ROUNDS * STATE_WORDS + 512
        )
    rng = default_rng(seed)
    def draw(count: int) -> np.ndarray:
        return rng.integers(0, 1 << 24, count)

    ttable = alloc_drawn(memory, "aes_t", TTABLE_WORDS, draw)
    round_keys = alloc_drawn(memory, "aes_rk", ROUNDS * STATE_WORDS, draw)
    inputs = [alloc_drawn(memory, f"aes_in{word}", n, draw)
              for word in range(STATE_WORDS)]
    outputs = [
        memory.alloc(f"aes_out{word}", n) for word in range(STATE_WORDS)
    ]
    program = build_aes_program().build()

    def args(warp_id: int):
        values = {4: ttable, 13: round_keys}
        for word in range(STATE_WORDS):
            values[5 + word] = inputs[word]
            values[9 + word] = outputs[word]
        return values

    return Kernel(
        program=program,
        n_warps=n_warps,
        wg_size=wg_size,
        memory=memory,
        args=args,
        name="aes",
        meta={"blocks": n, "rounds": ROUNDS},
    )
