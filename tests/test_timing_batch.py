"""Differential property suite for the engine's vector rounds.

A vector round is purely a performance optimisation of the round
engine in ``timing/batch.py``: it must be *bitwise* indistinguishable
from replaying the same round member by member.  Hypothesis generates
random programs across the shapes that exercise every engine mechanism
— warp-divergent branches, workgroup barriers, LDS round trips under
partial exec masks, counted loops, and global-memory traffic — and each
example runs the same launch twice, each on its own :class:`EventBus`:

* the **reference** with both vector thresholds at ``inf``, so every
  round replays member by member (the semantics
  ``tests/test_timing_golden.py`` pins against the retired heap loop);
* the **side under test** with both thresholds at 2, so these 1-16 warp
  kernels execute fully-vector rounds, hybrid rounds (specials replayed
  between bulk commits) and same-port collisions.

It compares:

* end-to-end simulated cycles and per-warp dispatch/retire times;
* the **full materialised event sequence** across every engine channel
  (kind, per-bus sequence number, and all fields) — a ``MemorySink``
  subscribes to ``engine.inst``, which makes vector rounds replay every
  member, so each example also runs a *no-sink* lane where plain
  members are bulk-committed and only the dispatch / barrier / retire
  channels are journalled;
* ``request_stop`` snapshots — stop time, resident-warp retire times,
  undispatched warps, and CU slot-release times;
* optional accounting surfaces (``ipc_series``, ``latency_table``,
  ``mem_stats``).

Every property asserts that its examples really ran vector rounds
(``engine.batch.rounds > 0`` in total).  The quick lanes run in the
fast CI job; the ``slow``-marked lanes rerun the same properties at 200
examples in the nightly job.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import R9_NANO
from repro.functional import GlobalMemory, Kernel
from repro.harness.runner import workload_factory
from repro.isa import KernelBuilder, MemAddr, s, v
from repro.harness.defaults import EVAL_R9NANO
from repro.obs import (
    ENGINE_BARRIER,
    ENGINE_WARP_DISPATCH,
    ENGINE_WARP_RETIRE,
    ENGINE_WG_DISPATCH,
    EventBus,
    MemorySink,
)
from repro.timing import DetailedEngine, EngineListener

from conftest import request_stop_after_bbs, vec_thresholds

GPU = R9_NANO.scaled(4)

_VOPS = ("v_add", "v_sub", "v_mul", "v_max", "v_min", "v_xor")
_SOPS = ("s_add", "s_sub", "s_mul", "s_min", "s_max")


@st.composite
def timing_kernel_factories(draw):
    """A zero-arg factory building a random timing-shaped kernel.

    Compared to the functional property generator this one leans on the
    mechanisms the *engine* cares about: barriers (workgroup
    synchronisation), waitcnt joins, LDS latency, divergent path groups
    of different lengths, and enough warps to cause CU contention.
    """
    n_warps = draw(st.integers(1, 16))
    wg_size = draw(st.sampled_from([1, 2, 4]))
    n_loops = draw(st.integers(0, 2))

    b = KernelBuilder("timing_random")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), 64)
    b.v_add(v(0), v(0), s(3))
    b.v_mov(v(1), 0.0)
    b.s_mov(s(5), 1)

    def emit_ops(ops):
        for name, operand in ops:
            if name.startswith("v_"):
                getattr(b, name)(v(1), v(1), float(operand))
            else:
                getattr(b, name)(s(5), s(5), operand)

    emit_ops(draw(st.lists(
        st.tuples(st.sampled_from(_VOPS + _SOPS), st.integers(1, 7)),
        min_size=1, max_size=6)))

    # barrier on the common path: every warp of a workgroup must arrive
    if draw(st.booleans()):
        b.s_barrier()

    # warp-divergent scalar branch (s0 = warp id) -> path groups of
    # different dynamic lengths, which is what desynchronises the
    # lockstep rounds and forces partial-retire handling
    if draw(st.booleans()):
        threshold = draw(st.integers(0, 15))
        extra = draw(st.lists(
            st.tuples(st.sampled_from(_VOPS + _SOPS), st.integers(1, 7)),
            min_size=1, max_size=5))
        b.s_cmp_lt(s(0), threshold)
        b.s_cbranch_scc0("skip_warp_div")
        emit_ops(extra)
        if draw(st.booleans()):
            b.v_load(v(2), MemAddr(base=s(4), index=v(0)))
            b.s_waitcnt()
        b.label("skip_warp_div")
        # optional barrier after reconvergence: warps arrive at
        # different times, so barrier release ordering is exercised
        if wg_size > 1 and draw(st.booleans()):
            b.s_barrier()

    # lane divergence with an LDS round trip under a partial exec mask
    if draw(st.booleans()):
        b.v_lane(v(3))
        b.v_cmp_lt(v(3), float(draw(st.integers(1, 63))))
        b.s_exec_from_vcc()
        emit_ops(draw(st.lists(
            st.tuples(st.sampled_from(_VOPS), st.integers(1, 7)),
            min_size=1, max_size=3)))
        if draw(st.booleans()):
            b.ds_write(v(3), v(1))
            b.s_waitcnt()
            b.ds_read(v(2), v(3))
            b.s_waitcnt()
        b.s_exec_all()
        b.v_cndmask(v(1), v(1), v(2))

    for loop_idx in range(n_loops):
        trips = draw(st.integers(1, 4))
        counter = s(8 + loop_idx)
        b.s_mov(counter, 0)
        b.label(f"loop{loop_idx}")
        emit_ops(draw(st.lists(
            st.tuples(st.sampled_from(_VOPS + _SOPS), st.integers(1, 7)),
            min_size=1, max_size=4)))
        if draw(st.booleans()):
            b.v_load(v(2), MemAddr(base=s(4), index=v(0)))
            b.s_waitcnt()
        b.s_add(counter, counter, 1)
        b.s_cmp_lt(counter, trips)
        b.s_cbranch_scc1(f"loop{loop_idx}")

    if draw(st.booleans()):
        b.v_store(v(1), MemAddr(base=s(4), index=v(0)))
    b.s_endpgm()
    program = b.build()

    def factory():
        mem = GlobalMemory(capacity_words=n_warps * 64 + 256)
        buf = mem.alloc("buf", np.ones(n_warps * 64))
        return Kernel(program=program, n_warps=n_warps, wg_size=wg_size,
                      memory=mem, args=lambda w: {4: buf},
                      name="timing_random")

    return factory


# -- the differential harness ------------------------------------------------

MEMBER_ONLY = float("inf")  # no round is ever this wide
VECTOR = 2                  # every round with two members vectorizes


# channels that fire only on members a vector round replays anyway
_LIGHT_CHANNELS = (ENGINE_WG_DISPATCH, ENGINE_WARP_DISPATCH,
                   ENGINE_BARRIER, ENGINE_WARP_RETIRE)


def _run_once(factory, sink=True, stop_after_bbs=None, gpu=GPU,
              **engine_kwargs):
    """One engine run on a private bus.

    Returns ``(result, events, counters)``.  With ``sink`` the events
    are every engine event, materialised; without, nothing subscribes
    to ``engine.inst`` and the events are a journal of the light
    channels.
    """
    kernel = factory()
    bus = EventBus()
    journal = []
    if sink:
        memory = bus.add_sink(MemorySink())
    else:
        for etype in _LIGHT_CHANNELS:
            bus.subscribe(
                etype, lambda *args, kind=etype.name: journal.append(
                    (kind,) + args))
    engine = DetailedEngine(kernel, gpu, bus=bus, **engine_kwargs)
    if stop_after_bbs is not None:
        request_stop_after_bbs(engine, stop_after_bbs)
    result = engine.run()
    events = [e.to_dict() for e in memory.events] if sink else journal
    return result, events, bus.metrics.snapshot()["counters"]


def _assert_results_identical(ref, got):
    assert got.end_time == ref.end_time
    assert got.n_insts == ref.n_insts
    assert got.warp_times == ref.warp_times
    assert got.stopped == ref.stopped
    assert got.stop_time == ref.stop_time
    assert got.undispatched == ref.undispatched
    assert got.cu_slot_free == ref.cu_slot_free
    assert got.mem_stats == ref.mem_stats
    assert got.ipc_series == ref.ipc_series
    assert got.latency_table == ref.latency_table


def _differential(factory, **run_kwargs):
    """Member-only reference vs the current thresholds; returns the
    latter's counters."""
    with vec_thresholds(MEMBER_ONLY):
        ref, ref_events, ref_counters = _run_once(factory, **run_kwargs)
    assert ref_counters["engine.batch.rounds"] == 0
    got, got_events, counters = _run_once(factory, **run_kwargs)
    _assert_results_identical(ref, got)
    assert got_events == ref_events
    return counters


def _check_property(max_examples, stop_after=st.none(), **engine_kwargs):
    """Run the differential over generated kernels, with and without a
    sink; each lane's examples must, between them, have executed vector
    rounds."""
    vector_rounds = Counter()

    @settings(max_examples=max_examples, deadline=None)
    @given(timing_kernel_factories(), stop_after)
    def prop(factory, stop_after_bbs):
        for sink in (True, False):
            with vec_thresholds(VECTOR):
                counters = _differential(
                    factory, sink=sink, stop_after_bbs=stop_after_bbs,
                    **engine_kwargs)
            vector_rounds[sink] += counters["engine.batch.rounds"]

    prop()
    assert vector_rounds[True] > 0 and vector_rounds[False] > 0


def test_timing_batched_equivalence_quick():
    """Fast-lane slice: vector vs member-only, full event-sequence
    compare."""
    _check_property(40)


@pytest.mark.slow
def test_timing_batched_equivalence_full():
    """Full 200-example run (nightly lane)."""
    _check_property(200)


def test_timing_batched_stop_snapshot_quick():
    """``request_stop`` mid-run from an event callback: the snapshot
    (stop time, resident retires, undispatched, slot frees) is bitwise
    identical with and without vector rounds."""
    _check_property(20, stop_after=st.integers(1, 30))


@pytest.mark.slow
def test_timing_batched_stop_snapshot_full():
    _check_property(200, stop_after=st.integers(1, 60))


def test_timing_batched_accounting_surfaces():
    """ipc_series buckets and the opcode latency table match exactly."""
    _check_property(10, ipc_bucket=25.0, collect_latency=True)
    # an ipc_bucket makes vector rounds replay every member; without
    # one the latency table accumulates through bulk np.add.at commits
    _check_property(10, collect_latency=True)


@pytest.mark.parametrize("workload,size", [
    ("nbody", 512), ("kmeans", 1024), ("blackscholes", 512)])
def test_natural_width_vector_rounds(workload, size):
    """At the shipped thresholds, on the evaluation GPU, the barrier-
    and latency-aligned compute kernels reach vector rounds on their
    own, and those rounds change nothing."""
    counters = _differential(workload_factory(workload, size), sink=False,
                             gpu=EVAL_R9NANO)
    assert counters["engine.batch.rounds"] > 0


# -- attach-order regression pin --------------------------------------------


class _Recorder(EngineListener):
    """Records every callback into a shared journal, tagged by name."""

    def __init__(self, tag, journal):
        self.tag = tag
        self.journal = journal

    def on_warp_dispatched(self, warp_id, t):
        self.journal.append((self.tag, "dispatch", warp_id, t))

    def on_bb_complete(self, warp_id, pc, t0, t1):
        self.journal.append((self.tag, "bb", warp_id, pc, t0, t1))

    def on_warp_retired(self, warp_id, dispatch, retire):
        self.journal.append((self.tag, "retire", warp_id, dispatch, retire))


def _listener_journal(threshold):
    journal = []
    engine = DetailedEngine(_attach_order_kernel(), GPU, bus=EventBus())
    # attach order is part of the observable contract: listener "a"
    # must see every event before listener "b" does
    engine.attach(_Recorder("a", journal))
    engine.attach(_Recorder("b", journal))
    with vec_thresholds(threshold):
        engine.run()
    return journal


def _attach_order_kernel():
    b = KernelBuilder("attach_order")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), 64)
    b.v_add(v(0), v(0), s(3))
    b.v_mov(v(1), 2.0)
    b.s_cmp_lt(s(0), 3)
    b.s_cbranch_scc0("skip")
    b.v_mul(v(1), v(1), 3.0)
    b.label("skip")
    b.s_barrier()
    b.v_add(v(1), v(1), 1.0)
    b.s_endpgm()
    mem = GlobalMemory(capacity_words=1024)
    return Kernel(program=b.build(), n_warps=6, wg_size=2, memory=mem,
                  args=lambda w: {}, name="attach_order")


def test_attach_order_pinned_across_engines():
    """Two listeners attached a-then-b observe the identical interleaved
    callback journal whether rounds are vectorized or replayed member
    by member."""
    member_only = _listener_journal(MEMBER_ONLY)
    vector = _listener_journal(VECTOR)
    assert member_only, "journal must not be empty"
    assert vector == member_only
    # and within any single event, "a" fires before "b"
    for i in range(0, len(vector) - 1, 1):
        tag, *rest = vector[i]
        if tag == "a" and i + 1 < len(vector):
            nxt_tag, *nxt_rest = vector[i + 1]
            if nxt_rest == rest:
                assert nxt_tag == "b"
