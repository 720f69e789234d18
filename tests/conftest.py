"""Shared fixtures: a tiny GPU and small hand-built kernels."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.config import R9_NANO
from repro.core import PhotonConfig
from repro.functional import GlobalMemory, Kernel
from repro.isa import KernelBuilder, MemAddr, s, v
from repro.obs import ENGINE_BB
from repro.timing import batch as timing_batch


@pytest.fixture
def tiny_gpu():
    """A 4-CU GPU: fast to simulate, still has real contention."""
    return R9_NANO.scaled(4)


@pytest.fixture
def fast_photon_config():
    """Detector windows sized for tests with hundreds of warps."""
    return PhotonConfig(
        bb_window=32, warp_window=16, min_sample_warps=4,
        mean_delta=0.3, bb_retire_gate_fraction=0.1,
    )


@contextmanager
def vec_thresholds(value):
    """Pin both of the engine's vector-round thresholds for the
    enclosed runs: 2 vectorizes every round with two members,
    ``float("inf")`` replays every round member by member."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timing_batch, "VEC_THRESHOLD", value)
        patch.setattr(timing_batch, "VEC_THRESHOLD_OBS", value)
        yield


def request_stop_after_bbs(engine, n: int) -> None:
    """``engine.request_stop()`` from inside the ``n``-th basic-block
    event of the run."""
    seen = [0]

    def on_bb(warp, pc, t0, t1):
        seen[0] += 1
        if seen[0] == n:
            engine.request_stop()

    engine.bus.subscribe(ENGINE_BB, on_bb)


def make_vecadd(n_warps: int = 8, wg_size: int = 2) -> Kernel:
    """z = x + y over n_warps*64 elements; single basic block + guard."""
    n = n_warps * 64
    mem = GlobalMemory(capacity_words=3 * n + 64)
    x = mem.alloc("x", np.arange(n, dtype=np.float64))
    y = mem.alloc("y", np.ones(n))
    z = mem.alloc("z", n)
    b = KernelBuilder("vecadd")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), 64)
    b.v_add(v(0), v(0), s(3))
    b.v_load(v(1), MemAddr(base=s(4), index=v(0)))
    b.v_load(v(2), MemAddr(base=s(5), index=v(0)))
    b.s_waitcnt()
    b.v_add(v(1), v(1), v(2))
    b.v_store(v(1), MemAddr(base=s(6), index=v(0)))
    b.s_endpgm()
    return Kernel(program=b.build(), n_warps=n_warps, wg_size=wg_size,
                  memory=mem, args=lambda w: {4: x, 5: y, 6: z},
                  name="vecadd")


def make_loop_kernel(n_warps: int = 8, trips_of=lambda w: 4,
                     wg_size: int = 2) -> Kernel:
    """Per-warp loop with a data-driven trip count (from memory)."""
    mem = GlobalMemory(capacity_words=65 * n_warps + 128)
    trips = mem.alloc(
        "trips", np.array([trips_of(w) for w in range(n_warps)],
                          dtype=np.float64))
    out = mem.alloc("out", n_warps * 64)
    b = KernelBuilder("loopy")
    b.s_add(b_reg := s(3), s(4), s(0))
    b.s_load(s(5), MemAddr(base=b_reg))  # trip count for this warp
    b.v_lane(v(0))
    b.v_mov(v(1), 0.0)
    b.s_mov(s(6), 0)
    b.label("loop")
    b.v_add(v(1), v(1), 1.0)
    b.s_add(s(6), s(6), 1)
    b.s_cmp_lt(s(6), s(5))
    b.s_cbranch_scc1("loop")
    b.s_mul(s(7), s(0), 64)
    b.v_add(v(0), v(0), s(7))
    b.v_store(v(1), MemAddr(base=s(8), index=v(0)))
    b.s_endpgm()
    return Kernel(program=b.build(), n_warps=n_warps, wg_size=wg_size,
                  memory=mem, args=lambda w: {4: trips, 8: out},
                  name="loopy")


def make_barrier_kernel(n_warps: int = 8, wg_size: int = 4) -> Kernel:
    """Two phases separated by an s_barrier (tests workgroup sync)."""
    mem = GlobalMemory(capacity_words=n_warps * 64 + 64)
    out = mem.alloc("out", n_warps * 64)
    b = KernelBuilder("barriered")
    b.v_lane(v(0))
    b.v_mul(v(1), v(0), 2.0)
    b.ds_write(v(0), v(1))
    b.s_barrier()
    b.ds_read(v(2), v(0))
    b.s_mul(s(3), s(0), 64)
    b.v_add(v(0), v(0), s(3))
    b.v_store(v(2), MemAddr(base=s(4), index=v(0)))
    b.s_endpgm()
    return Kernel(program=b.build(), n_warps=n_warps, wg_size=wg_size,
                  memory=mem, args=lambda w: {4: out}, name="barriered")
