"""Shared fixtures: a tiny GPU and small hand-built kernels."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import R9_NANO
from repro.core import PhotonConfig
from repro.functional import GlobalMemory, Kernel
from repro.isa import KernelBuilder, MemAddr, s, v
from repro.obs import (
    ENGINE_BARRIER,
    ENGINE_BB,
    ENGINE_WARP_DISPATCH,
    ENGINE_WARP_RETIRE,
    ENGINE_WG_DISPATCH,
)


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


def write_golden(path, records: dict) -> None:
    """Write a golden JSON file, one record per line: a changed case is
    a one-line diff (the re-record entry points of the golden suites)."""
    path.parent.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(rec, sort_keys=True)}"
        for key, rec in records.items()) + "\n}\n")
    print(f"wrote {len(records)} records to {path}")


def old_records(name: str):
    """``(records, plan)``: a run's records written with fields since
    retired (``tests/golden/<name>.json``: a journal prefix and the
    table it produced; the ``fleet_manifest`` / ``host_journal`` entries
    are inert records of the retired multi-host fleet), and the sweep
    plan its ``plan`` entry describes, planned today."""
    from repro.parallel import plan_sweep
    from repro.reliability import WatchdogConfig

    path = Path(__file__).parent / "golden" / f"{name}.json"
    records = json.loads(path.read_text())
    spec = records["plan"]
    watchdog = spec.get("watchdog")
    return records, plan_sweep(
        spec["workloads"], sizes=spec["sizes"], methods=spec["methods"],
        seed=spec["seed"],
        watchdog=WatchdogConfig(**watchdog) if watchdog else None)


def fail_method(monkeypatch, method: str, error: Exception) -> None:
    """Make ``method``'s entry of the method table raise ``error`` when
    the evaluation builds its simulator (a ``run``-stage failure)."""
    from repro.harness import runner

    def build(*args, **kwargs):
        raise error

    monkeypatch.setitem(runner.METHODS, method, build)


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


def make_split_kernel(n_warps: int = 8, threshold: int = 4,
                      wg_size: int = 2) -> Kernel:
    """Warps below ``threshold`` run an extra segment (two path groups)."""
    mem = GlobalMemory(capacity_words=n_warps * 64 + 64)
    out = mem.alloc("out", n_warps * 64)
    b = KernelBuilder("split")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), 64)
    b.v_add(v(0), v(0), s(3))
    b.v_mov(v(1), 1.0)
    b.s_cmp_lt(s(0), threshold)
    b.s_cbranch_scc0("join")
    b.v_mul(v(1), v(1), 3.0)
    b.v_add(v(1), v(1), v(0))
    b.label("join")
    b.v_store(v(1), MemAddr(base=s(4), index=v(0)))
    b.s_endpgm()
    return Kernel(program=b.build(), n_warps=n_warps, wg_size=wg_size,
                  memory=mem, args=lambda w: {4: out}, name="split")


def make_faulting_kernel(n_warps: int = 6, bad_warp: int = 2,
                         wg_size: int = 2) -> Kernel:
    """One warp branches to an out-of-bounds store; the rest are fine."""
    mem = GlobalMemory(capacity_words=n_warps * 64 + 64)
    out = mem.alloc("out", n_warps * 64)
    b = KernelBuilder("faulty")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), 64)
    b.v_add(v(0), v(0), s(3))
    b.v_mov(v(1), 1.0)
    b.s_cmp_eq(s(0), bad_warp)
    b.s_cbranch_scc0("safe")
    b.v_store(v(1), MemAddr(base=s(9), index=v(0)))  # s9 is OOB
    b.label("safe")
    b.v_store(v(1), MemAddr(base=s(4), index=v(0)))
    b.s_endpgm()
    oob = mem.capacity * 4
    return Kernel(program=b.build(), n_warps=n_warps, wg_size=wg_size,
                  memory=mem, args=lambda w: {4: out, 9: oob},
                  name="faulty")


def make_inplace_faulting_kernel(n_warps: int = 6, bad_warp: int = 2,
                                 wg_size: int = 2) -> Kernel:
    """``x += 1`` in place, then a store through a per-warp pointer that
    is out of bounds for ``bad_warp`` only.  Every warp takes the same
    path, so the fault hits a batch that has already written ``x``:
    executing any warp twice shows as ``x == 3``."""
    mem = GlobalMemory(capacity_words=2 * n_warps * 64 + 64)
    x = mem.alloc("x", np.ones(n_warps * 64))
    out = mem.alloc("out", n_warps * 64)
    b = KernelBuilder("inplace")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), 64)
    b.v_add(v(0), v(0), s(3))
    b.v_load(v(1), MemAddr(base=s(4), index=v(0)))
    b.s_waitcnt()
    b.v_add(v(1), v(1), 1.0)
    b.v_store(v(1), MemAddr(base=s(4), index=v(0)))
    b.v_store(v(1), MemAddr(base=s(9), index=v(0)))
    b.s_endpgm()
    oob = mem.capacity * 4
    return Kernel(program=b.build(), n_warps=n_warps, wg_size=wg_size,
                  memory=mem,
                  args=lambda w: {4: x, 9: oob if w == bad_warp else out},
                  name="inplace")


# -- random well-formed programs (property suite + golden corpus) ----------

_VOPS = ("v_add", "v_sub", "v_mul", "v_max", "v_min", "v_xor")
_SOPS = ("s_add", "s_sub", "s_mul", "s_min", "s_max")


# the light engine channels: they fire on dispatch / barrier / retire
# only, so a journal of them leaves ``engine.inst`` without a subscriber
LIGHT_CHANNELS = (ENGINE_WG_DISPATCH, ENGINE_WARP_DISPATCH,
                  ENGINE_BARRIER, ENGINE_WARP_RETIRE)


def _draw_ops(src, pool, lo, hi):
    return [(src.choice(pool), src.integers(1, 7))
            for _ in range(src.integers(lo, hi))]


def _emit_ops(b, seq):
    """Each op accumulates into v1 (vector) or s5 (scalar)."""
    for name, operand in seq:
        if name.startswith("v_"):
            getattr(b, name)(v(1), v(1), float(operand))
        else:
            getattr(b, name)(s(5), s(5), operand)


def _one_buffer_factory(program, n_warps, wg_size, name):
    """Zero-arg factory: a fresh launch of ``program`` over one buffer
    of ones passed in s4."""
    def factory():
        mem = GlobalMemory(capacity_words=n_warps * 64 + 256)
        buf = mem.alloc("buf", np.ones(n_warps * 64))
        return Kernel(program=program, n_warps=n_warps, wg_size=wg_size,
                      memory=mem, args=lambda w: {4: buf}, name=name)

    return factory


class RandomSource:
    """``random.Random`` behind the draw interface of
    :func:`random_kernel_factory` (the property suite wraps hypothesis'
    ``draw`` the same way)."""

    def __init__(self, rng):
        self.integers = rng.randint
        self.choice = rng.choice
        self.booleans = lambda: rng.random() < 0.5


class DrawSource:
    """Hypothesis' ``draw`` behind the same interface (the property
    suites call the generators below from ``@st.composite``)."""

    def __init__(self, draw):
        from hypothesis import strategies as st

        self.integers = lambda lo, hi: draw(st.integers(lo, hi))
        self.choice = lambda seq: draw(st.sampled_from(seq))
        self.booleans = lambda: draw(st.booleans())


def random_kernel_factory(src, scalar_chains=False):
    """A zero-arg factory building a random well-formed kernel.

    ``src`` supplies ``integers(lo, hi)``, ``booleans()`` and
    ``choice(seq)``.  The program is straight-line vector/scalar
    arithmetic with an optional warp-divergent scalar branch, an
    optional lane-divergent segment under a partial exec mask, counted
    loops and memory traffic.  Returning a *factory* lets one example
    run the same launch several times from identical initial state —
    an execution-driven run applies the kernel's stores to its arena.

    ``scalar_chains`` (extra draws, so off for the recorded golden
    corpus) mixes scalar chains on and off the control slice: memory
    goes through a base register computed by scalar address math no
    branch reads, loop bounds may come from a per-warp chain a branch
    does read, and loop bodies may feed slice registers into off-slice
    ones.
    """
    n_warps = src.integers(1, 12)
    wg_size = src.choice((1, 2, 4))
    n_loops = src.integers(0, 2)

    b = KernelBuilder("random")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), 64)
    b.v_add(v(0), v(0), s(3))
    segments = [_draw_ops(src, _VOPS + _SOPS, 1, 6)
                for _ in range(n_loops + 1)]
    b.v_mov(v(1), 0.0)
    b.s_mov(s(5), 1)
    base = s(4)
    if scalar_chains:
        base, delta = s(6), src.integers(1, 9)
        b.s_add(base, s(4), delta)
        b.s_mul(s(12), s(0), delta)    # read by nothing but the vector side
        b.s_sub(base, base, delta)
        b.v_add(v(1), v(1), s(12))
    _emit_ops(b, segments[0])

    # optional warp-divergent scalar branch: s0 is the warp id, so warps
    # on either side of the threshold follow different basic-block paths
    # (this is what splits a lockstep batch)
    if src.booleans():
        threshold = src.integers(0, 12)
        extra = _draw_ops(src, _VOPS + _SOPS, 1, 4)
        b.s_cmp_lt(s(0), threshold)
        b.s_cbranch_scc0("skip_warp_div")
        _emit_ops(b, extra)
        b.label("skip_warp_div")

    # optional lane divergence: run a segment under a partial exec mask,
    # optionally with an LDS round trip, then merge with v_cndmask
    if src.booleans():
        masked = _draw_ops(src, _VOPS, 1, 4)
        b.v_lane(v(3))
        b.v_cmp_lt(v(3), float(src.integers(1, 63)))
        b.s_exec_from_vcc()
        _emit_ops(b, masked)
        if src.booleans():
            b.ds_write(v(3), v(1))
            b.s_waitcnt()
            b.ds_read(v(2), v(3))
            b.s_waitcnt()
        b.s_exec_all()
        b.v_cndmask(v(1), v(1), v(2))

    for loop_idx in range(n_loops):
        trips = src.integers(1, 5)
        counter = s(8 + loop_idx)
        if scalar_chains and src.booleans():
            # a per-warp bound in 1..4: a scalar chain on the slice
            trips = s(10 + loop_idx)
            b.s_and(trips, s(0), 3)
            b.s_add(trips, trips, 1)
        b.s_mov(counter, 0)
        b.label(f"loop{loop_idx}")
        _emit_ops(b, segments[loop_idx + 1])
        if scalar_chains and src.booleans():
            # a slice register feeding an off-slice chain
            b.s_add(s(13), counter, s(12))
            b.v_add(v(1), v(1), s(13))
        if src.booleans():
            b.v_load(v(2), MemAddr(base=base, index=v(0)))
            b.s_waitcnt()
        b.s_add(counter, counter, 1)
        b.s_cmp_lt(counter, trips)
        b.s_cbranch_scc1(f"loop{loop_idx}")
    if src.booleans():
        b.v_store(v(1), MemAddr(base=base, index=v(0)))
    b.s_endpgm()
    return _one_buffer_factory(b.build(), n_warps, wg_size, "random")


def timing_kernel_factory(src):
    """A zero-arg factory building a random timing-shaped kernel.

    Same ``src`` interface as :func:`random_kernel_factory`.  Compared
    to that generator this one leans on the mechanisms the *engine*
    cares about: barriers (workgroup synchronisation), waitcnt joins,
    LDS latency, divergent path groups of different lengths, and enough
    warps to cause CU contention.
    """
    n_warps = src.integers(1, 16)
    wg_size = src.choice((1, 2, 4))
    n_loops = src.integers(0, 2)

    b = KernelBuilder("timing_random")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), 64)
    b.v_add(v(0), v(0), s(3))
    b.v_mov(v(1), 0.0)
    b.s_mov(s(5), 1)

    _emit_ops(b, _draw_ops(src, _VOPS + _SOPS, 1, 6))

    # barrier on the common path: every warp of a workgroup must arrive
    if src.booleans():
        b.s_barrier()

    # warp-divergent scalar branch (s0 = warp id) -> path groups of
    # different dynamic lengths, which desynchronises the rounds
    if src.booleans():
        threshold = src.integers(0, 15)
        extra = _draw_ops(src, _VOPS + _SOPS, 1, 5)
        b.s_cmp_lt(s(0), threshold)
        b.s_cbranch_scc0("skip_warp_div")
        _emit_ops(b, extra)
        if src.booleans():
            b.v_load(v(2), MemAddr(base=s(4), index=v(0)))
            b.s_waitcnt()
        b.label("skip_warp_div")
        # optional barrier after reconvergence: warps arrive at
        # different times, so barrier release ordering is exercised
        if wg_size > 1 and src.booleans():
            b.s_barrier()

    # lane divergence with an LDS round trip under a partial exec mask
    if src.booleans():
        b.v_lane(v(3))
        b.v_cmp_lt(v(3), float(src.integers(1, 63)))
        b.s_exec_from_vcc()
        _emit_ops(b, _draw_ops(src, _VOPS, 1, 3))
        if src.booleans():
            b.ds_write(v(3), v(1))
            b.s_waitcnt()
            b.ds_read(v(2), v(3))
            b.s_waitcnt()
        b.s_exec_all()
        b.v_cndmask(v(1), v(1), v(2))

    for loop_idx in range(n_loops):
        trips = src.integers(1, 4)
        counter = s(8 + loop_idx)
        b.s_mov(counter, 0)
        b.label(f"loop{loop_idx}")
        _emit_ops(b, _draw_ops(src, _VOPS + _SOPS, 1, 4))
        if src.booleans():
            b.v_load(v(2), MemAddr(base=s(4), index=v(0)))
            b.s_waitcnt()
        b.s_add(counter, counter, 1)
        b.s_cmp_lt(counter, trips)
        b.s_cbranch_scc1(f"loop{loop_idx}")

    if src.booleans():
        b.v_store(v(1), MemAddr(base=s(4), index=v(0)))
    b.s_endpgm()
    return _one_buffer_factory(b.build(), n_warps, wg_size, "timing_random")
