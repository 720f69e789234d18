"""Invariant property suite for the timing engine's round loop.

The engine has one loop and no twin to be compared against, so random
programs are held to what the *model* promises instead (ROADMAP 5a).
Hypothesis draws ``conftest.timing_kernel_factory`` programs — warp-
divergent branches, workgroup barriers, LDS round trips under partial
exec masks, counted loops, global-memory traffic — and every example
runs on a private :class:`EventBus` with a subscriber on every engine
channel.  From the result, the event log and the warps' functional
traces it checks:

* **conservation** — warps dispatched = warps retired, dispatched and
  undispatched partition the grid, ``n_insts`` = the retired warps'
  trace lengths, ``warp_times`` = the dispatch/retire events,
  ``dispatch <= retire`` and ``end_time`` = the latest retire;
* **cache accounting** — per level, ``hits + misses`` = the accesses
  the level above issued (L1V: coalesced lines of the vector memory
  instructions; L1K: scalar loads; L2: L1 misses; DRAM: L2 misses);
* **the instruction stream** — each warp issues its trace in order, no
  earlier than one ``issue_interval`` after its previous instruction
  and no earlier than its producer retired; two instructions never
  share an issue port within one ``issue_interval``; a barrier releases
  one cycle after its last arrival and nobody runs ahead of it;
* **observer independence** — the run without an ``engine.inst``
  subscriber returns the identical result and dispatch / barrier /
  retire journal, and so does a repeat of the same run;
* **trace-supply independence** — ``PackProvider`` chunks of 1, 2-5 and
  the whole grid give the identical result;
* **stop snapshots** (8-slot GPU) — a ``request_stop`` from the *n*-th
  basic-block event dispatches nothing more, reports exactly the warps
  not yet dispatched, drains the resident ones and lists their retire
  times per CU in ``cu_slot_free``;
* **accounting surfaces** — ``ipc_series`` is the histogram of retire
  (for barriers, release) times and ``latency_table`` the mean of
  ``retire - issue`` per *memory* opcode (the fixed-latency classes
  are not accounted), both recomputed from the event log in emission
  order, so they must match to the bit.

The lanes keep the names they had when this file compared numpy-
batched rounds with member-by-member replay; what that comparison
pinned now lives in ``tests/golden/timing_engine.json``.  The quick
lanes run in the fast CI job; the ``slow``-marked lanes rerun the same
properties at 200 examples in the nightly job.
"""

import dataclasses
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import R9_NANO
from repro.functional import GlobalMemory, Kernel
from repro.functional.batch import PackProvider, WarpPackExecutor
from repro.isa import KernelBuilder, s, v
from repro.isa.opcodes import OpClass
from repro.obs import (
    ENGINE_BB,
    ENGINE_INST,
    ENGINE_WARP_DISPATCH,
    ENGINE_WARP_RETIRE,
    EventBus,
)
from repro.timing import DetailedEngine

from conftest import LIGHT_CHANNELS, DrawSource, timing_kernel_factory

GPU = R9_NANO.scaled(4)
# 8 resident slots: most generated grids still have workgroups queued
# when a stop arrives
STOP_GPU = dataclasses.replace(R9_NANO.scaled(2), max_warps_per_cu=4)

_SCALAR_PORT = {OpClass.SCALAR_ALU, OpClass.SCALAR_MEM, OpClass.BRANCH,
                OpClass.BARRIER, OpClass.WAITCNT, OpClass.END}


@st.composite
def timing_kernel_factories(draw):
    """Hypothesis draws behind ``conftest.timing_kernel_factory`` (the
    golden corpus feeds the same generator from ``random.Random``)."""
    return timing_kernel_factory(DrawSource(draw))


# -- one observed run --------------------------------------------------------


def _events(log, kind):
    """The field tuples of one kind's events, in emission order."""
    return [e[1:] for e in log if e[0] == kind]


def _observe(factory, gpu, insts=True, stop_after_bbs=None, **engine_kwargs):
    """One engine run on a private bus.

    Returns ``(result, log, resident_at_stop)``: ``log`` is every event
    of the light channels (plus ``engine.inst`` with ``insts``) as
    ``(kind, *fields)`` in emission order; ``resident_at_stop`` the
    warps dispatched but not retired when the stop was requested.
    """
    bus = EventBus()
    log = []
    for etype in LIGHT_CHANNELS + ((ENGINE_INST,) if insts else ()):
        bus.subscribe(etype, lambda *args, kind=etype.name: log.append(
            (kind,) + args))
    engine = DetailedEngine(factory(), gpu, bus=bus, **engine_kwargs)
    resident_at_stop = None
    if stop_after_bbs is not None:
        seen = [0]

        def on_bb(warp, pc, t0, t1):
            nonlocal resident_at_stop
            seen[0] += 1
            if seen[0] == stop_after_bbs:
                resident_at_stop = (
                    {w for w, _ in _events(log, "engine.warp_dispatch")}
                    - {w for w, _, _ in _events(log, "engine.warp_retire")})
                engine.request_stop()

        bus.subscribe(ENGINE_BB, on_bb)
    return engine.run(), log, resident_at_stop


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


# -- the oracles ------------------------------------------------------------


def _check_conservation(kernel, result, log, traces):
    dispatched = _events(log, "engine.warp_dispatch")
    retired = _events(log, "engine.warp_retire")
    dispatch_t = dict(dispatched)
    assert len(dispatch_t) == len(dispatched), "a warp dispatched twice"
    assert len({w for w, _, _ in retired}) == len(retired)
    assert set(dispatch_t) == {w for w, _, _ in retired}
    assert sorted(list(dispatch_t) + result.undispatched) == list(
        range(kernel.n_warps))
    if not result.stopped:
        assert result.undispatched == []
    assert result.warp_times == {w: (t0, t1) for w, t0, t1 in retired}
    for w, t0, t1 in retired:
        assert t0 == dispatch_t[w] and t0 <= t1
    assert result.end_time == max(t1 for _, _, t1 in retired)
    assert result.n_insts == sum(traces[w].n_insts for w in dispatch_t)
    assert sum(n for _, _, _, n in _events(
        log, "engine.wg_dispatch")) == len(dispatched)


def _check_cache_accounting(result, traces):
    mem = result.mem_stats
    vector_lines = scalar_loads = 0
    for w in result.warp_times:
        trace = traces[w]
        for pos, lines in zip(trace.mem_pos, trace.mem_lines):
            cls = trace.opclass[pos]
            if cls == OpClass.VECTOR_MEM and lines:
                vector_lines += len(lines)
            elif cls == OpClass.SCALAR_MEM:
                scalar_loads += 1
    assert mem["l1v_hits"] + mem["l1v_misses"] == vector_lines
    assert mem["l1k_hits"] + mem["l1k_misses"] == scalar_loads
    assert mem["l2_hits"] + mem["l2_misses"] == (
        mem["l1v_misses"] + mem["l1k_misses"])
    assert mem["dram_accesses"] == mem["l2_misses"]


def _placement(kernel, gpu, log):
    """warp -> (cu, issue port of its SIMD), replayed from the dispatch
    events: the k-th warp placed on a CU takes SIMD ``k % simd_per_cu``."""
    cu_of_wg = {wg: cu for wg, cu, _, _ in _events(log, "engine.wg_dispatch")}
    placed = Counter()
    where = {}
    for w, _ in _events(log, "engine.warp_dispatch"):
        cu = cu_of_wg[w // kernel.wg_size]
        where[w] = (cu, ("simd", cu, placed[cu] % gpu.simd_per_cu))
        placed[cu] += 1
    return where


def _barrier_releases(kernel, log, stream):
    """``(wg, k) -> release time`` of each workgroup's k-th barrier,
    checked against the arrivals in ``stream`` (warp -> inst events)."""
    releases = {}
    nth = Counter()
    for wg, release, n_warps in _events(log, "engine.barrier"):
        warps = list(kernel.warps_in_workgroup(wg))
        assert n_warps == len(warps)
        k = nth[wg]
        nth[wg] += 1
        arrivals = [
            [t0 for cls, t0, _ in stream[w] if cls == OpClass.BARRIER][k]
            for w in warps]
        assert release == max(arrivals) + 1
        releases[wg, k] = release
    return releases


def _check_instruction_stream(kernel, gpu, result, log, traces):
    """Returns the time each logged instruction counts as retired at
    (its ``t1``; for a barrier, the release), in emission order."""
    interval = gpu.issue_interval
    insts = _events(log, "engine.inst")
    stream = defaultdict(list)
    for w, cls, t0, t1 in insts:
        stream[w].append((cls, t0, t1))
    assert sum(len(insts) for insts in stream.values()) == result.n_insts
    where = _placement(kernel, gpu, log)
    releases = _barrier_releases(kernel, log, stream)
    port_issues = defaultdict(list)
    for w, issued in stream.items():
        trace = traces[w]
        assert [cls for cls, _, _ in issued] == trace.opclass
        cu, simd_port = where[w]
        n_barriers = 0
        floor = result.warp_times[w][0]  # nothing issues before dispatch
        for i, (cls, t0, t1) in enumerate(issued):
            assert floor <= t0 <= t1, (w, i)
            dep = trace.dep[i]
            if dep >= 0:
                assert t0 >= issued[dep][2], (w, i, "issued before producer")
            floor = t0 + interval
            if cls == OpClass.BARRIER:
                release = releases[w // kernel.wg_size, n_barriers]
                n_barriers += 1
                assert t0 < release
                floor = release + 1
            port_issues[("scalar", cu) if cls in _SCALAR_PORT
                        else simd_port].append(t0)
        assert issued[-1][0] == OpClass.END
        assert issued[-1][2] == result.warp_times[w][1]
    for port, issues in port_issues.items():
        issues.sort()
        for a, b in zip(issues, issues[1:]):
            assert b - a >= interval, (port, a, b)

    counted_at = []
    n_barriers = Counter()
    for w, cls, _, t1 in insts:
        if cls == OpClass.BARRIER:
            t1 = releases[w // kernel.wg_size, n_barriers[w]]
            n_barriers[w] += 1
        counted_at.append(t1)
    return counted_at


def _check_accounting(result, log, traces, counted_at):
    bucket = result.ipc_bucket
    series = [0] * (int(max(counted_at) // bucket) + 1)
    for t in counted_at:
        series[int(t // bucket)] += 1
    assert result.ipc_series == series

    lat_sum, lat_cnt, cursor = Counter(), Counter(), Counter()
    for w, cls, t0, t1 in _events(log, "engine.inst"):
        code = traces[w].opcode[cursor[w]]
        cursor[w] += 1
        if cls in (OpClass.VECTOR_MEM, OpClass.SCALAR_MEM):
            lat_sum[code] += t1 - t0
            lat_cnt[code] += 1
    assert result.latency_table == {
        code: lat_sum[code] / lat_cnt[code] for code in sorted(lat_cnt)}


def _check_stop_snapshot(gpu, kernel, result, log, resident_at_stop):
    if resident_at_stop is None:
        assert not result.stopped and not result.cu_slot_free
        return
    assert result.stopped
    assert result.stop_time <= result.end_time
    # nothing is dispatched after the stop, and the report says so
    dispatched = {w for w, _ in _events(log, "engine.warp_dispatch")}
    assert result.undispatched == [
        w for w in range(kernel.n_warps) if w not in dispatched]
    assert resident_at_stop <= dispatched
    where = _placement(kernel, gpu, log)
    slot_free = defaultdict(list)
    for w, _, retire in _events(log, "engine.warp_retire"):
        if w in resident_at_stop:
            assert retire >= result.stop_time
            slot_free[where[w][0]].append(retire)
    assert result.cu_slot_free == dict(slot_free)


def _check_example(factory, gpu, stop_after_bbs=None, **engine_kwargs):
    kernel = factory()
    traces = WarpPackExecutor(factory()).run_warps_full(
        range(kernel.n_warps))
    result, log, resident_at_stop = _observe(
        factory, gpu, stop_after_bbs=stop_after_bbs, **engine_kwargs)
    _check_conservation(kernel, result, log, traces)
    _check_cache_accounting(result, traces)
    counted_at = _check_instruction_stream(kernel, gpu, result, log, traces)
    _check_stop_snapshot(gpu, kernel, result, log, resident_at_stop)
    if result.ipc_bucket is not None:
        _check_accounting(result, log, traces, counted_at)

    # observer independence, and a repeat is a replay
    light = [e for e in log if e[0] != "engine.inst"]
    for insts in (False, True):
        again, again_log, _ = _observe(
            factory, gpu, insts=insts, stop_after_bbs=stop_after_bbs,
            **engine_kwargs)
        _assert_results_identical(result, again)
        assert again_log == (log if insts else light)
    return result


def _check_chunk_invariance(factory, reference, mid_chunk):
    for chunk in (1, mid_chunk, factory().n_warps):
        kernel = factory()
        _assert_results_identical(reference, DetailedEngine(
            kernel, GPU, bus=EventBus(),
            trace_provider=PackProvider(kernel, chunk=chunk)).run())


# -- the lanes --------------------------------------------------------------


def _event_lane(max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(timing_kernel_factories(), st.integers(2, 5))
    def prop(factory, mid_chunk):
        result = _check_example(factory, GPU)
        _check_chunk_invariance(factory, result, mid_chunk)

    prop()


def _stop_lane(max_examples, max_bbs):
    outcomes = Counter()

    @settings(max_examples=max_examples, deadline=None)
    @given(timing_kernel_factories(), st.integers(1, max_bbs))
    def prop(factory, stop_after_bbs):
        result = _check_example(factory, STOP_GPU,
                                stop_after_bbs=stop_after_bbs)
        outcomes["stopped"] += result.stopped
        outcomes["left work"] += bool(result.undispatched)

    prop()
    # the lane is only about stops if some examples were really cut short
    assert outcomes["stopped"] and outcomes["left work"]


def test_timing_batched_equivalence_quick():
    """Fast-lane slice: conservation, cache accounting, the instruction
    stream, observer and trace-supply independence."""
    _event_lane(40)


@pytest.mark.slow
def test_timing_batched_equivalence_full():
    """Full 200-example run (nightly lane)."""
    _event_lane(200)


def test_timing_batched_stop_snapshot_quick():
    """``request_stop`` mid-run from an event callback: the snapshot
    (stop time, resident retires, undispatched, slot frees) is what the
    event log says it must be."""
    _stop_lane(20, max_bbs=30)


@pytest.mark.slow
def test_timing_batched_stop_snapshot_full():
    _stop_lane(200, max_bbs=60)


def test_timing_batched_accounting_surfaces():
    """ipc_series buckets and the opcode latency table are exactly what
    the instruction events add up to."""
    @settings(max_examples=20, deadline=None)
    @given(timing_kernel_factories())
    def prop(factory):
        _check_example(factory, GPU, ipc_bucket=25.0, collect_latency=True)

    prop()


# -- registration-order regression pin --------------------------------------


class _Recorder:
    """Records every delivery into a shared journal, tagged by name."""

    def __init__(self, tag, journal):
        self.tag = tag
        self.journal = journal

    def watch(self, engine):
        engine.subscribe(ENGINE_WARP_DISPATCH, self.on_warp_dispatched)
        engine.subscribe(ENGINE_BB, self.on_bb_complete)
        engine.subscribe(ENGINE_WARP_RETIRE, self.on_warp_retired)

    def on_warp_dispatched(self, warp_id, t):
        self.journal.append((self.tag, "dispatch", warp_id, t))

    def on_bb_complete(self, warp_id, pc, t0, t1):
        self.journal.append((self.tag, "bb", warp_id, pc, t0, t1))

    def on_warp_retired(self, warp_id, dispatch, retire):
        self.journal.append((self.tag, "retire", warp_id, dispatch, retire))


def _observer_journal():
    journal = []
    engine = DetailedEngine(_order_kernel(), GPU, bus=EventBus())
    # registration order is part of the observable contract: observer
    # "a" must see every event before observer "b" does
    _Recorder("a", journal).watch(engine)
    _Recorder("b", journal).watch(engine)
    engine.run()
    return journal


def _order_kernel():
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
    """Two observers registered a-then-b: every event reaches "a" and
    then "b", back to back, and a second engine built the same way
    delivers the identical interleaved journal."""
    journal = _observer_journal()
    assert journal, "journal must not be empty"
    assert _observer_journal() == journal
    assert len(journal) % 2 == 0
    for first, second in zip(journal[0::2], journal[1::2]):
        assert first[0] == "a" and second[0] == "b"
        assert first[1:] == second[1:]
