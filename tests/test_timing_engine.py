"""Detailed engine: causality, barriers, dispatch, stop/abort, probes."""

import dataclasses
import tracemalloc

import pytest

from repro.config import R9_NANO
from repro.errors import ConfigError, TimingError
from repro.functional import FunctionalExecutor
from repro.functional.batch import WarpPackExecutor
from repro.obs import (
    ENGINE_BB,
    ENGINE_WARP_DISPATCH,
    ENGINE_WARP_RETIRE,
    EventBus,
)
from repro.timing import BBProbe, DetailedEngine, WarpProbe

from conftest import make_barrier_kernel, make_loop_kernel, make_vecadd


def run(kernel, gpu, **kwargs):
    engine = DetailedEngine(kernel, gpu, **kwargs)
    return engine, engine.run()


def test_all_warps_complete(tiny_gpu):
    kernel = make_vecadd(n_warps=16)
    _, res = run(kernel, tiny_gpu)
    assert len(res.warp_times) == 16
    assert res.n_insts == 16 * 9
    assert res.end_time > 0


def test_warp_times_causal(tiny_gpu):
    kernel = make_loop_kernel(n_warps=12, trips_of=lambda w: 3 + w % 4)
    _, res = run(kernel, tiny_gpu)
    for warp_id, (dispatch, retire) in res.warp_times.items():
        assert retire > dispatch >= 0


def test_end_time_is_max_retire(tiny_gpu):
    kernel = make_vecadd(n_warps=8)
    _, res = run(kernel, tiny_gpu)
    assert res.end_time == max(r for _, r in res.warp_times.values())


def test_barrier_synchronises_workgroup(tiny_gpu):
    kernel = make_barrier_kernel(n_warps=8, wg_size=4)
    probe = BBProbe()
    engine = DetailedEngine(kernel, tiny_gpu)
    probe.watch(engine)
    res = engine.run()
    assert len(res.warp_times) == 8
    # the barrier splits the program into 2 blocks; both were observed
    assert len(probe.records) == 2


def test_oversized_workgroup_rejected(tiny_gpu):
    kernel = make_vecadd(n_warps=4)
    kernel.wg_size = tiny_gpu.max_warps_per_cu + 1
    with pytest.raises(ConfigError):
        DetailedEngine(kernel, tiny_gpu)


def test_deterministic_repeat(tiny_gpu):
    results = []
    for _ in range(2):
        kernel = make_vecadd(n_warps=16)
        _, res = run(kernel, tiny_gpu)
        results.append(res.end_time)
    assert results[0] == results[1]


def test_more_warps_take_longer(tiny_gpu):
    small = make_vecadd(n_warps=8)
    big = make_vecadd(n_warps=64)
    _, res_small = run(small, tiny_gpu)
    _, res_big = run(big, tiny_gpu)
    assert res_big.end_time > res_small.end_time


def test_ipc_series_totals_match(tiny_gpu):
    kernel = make_vecadd(n_warps=16)
    _, res = run(kernel, tiny_gpu, ipc_bucket=50.0)
    assert sum(res.ipc_series) == res.n_insts


def test_latency_table_collected(tiny_gpu):
    from repro.isa import Opcode

    kernel = make_vecadd(n_warps=8)
    _, res = run(kernel, tiny_gpu, collect_latency=True)
    # memory opcodes only: a fixed-latency class would read the
    # configuration back, which the interval model already falls back to
    assert Opcode.V_ADD.value not in res.latency_table
    # memory latencies at least the L1 hit latency
    assert res.latency_table[Opcode.V_LOAD.value] >= tiny_gpu.l1_lat


class _StopAfter:
    """Requests a dispatch stop after N warp retirements."""

    def __init__(self, n):
        self.n = n
        self.engine = None
        self.seen = 0

    def watch(self, engine):
        self.engine = engine
        engine.subscribe(ENGINE_WARP_RETIRE, self.on_warp_retired)

    def on_warp_retired(self, warp_id, dispatch, retire):
        self.seen += 1
        if self.seen == self.n:
            self.engine.request_stop()


def test_stop_reports_undispatched_and_slots(tiny_gpu):
    kernel = make_loop_kernel(n_warps=400, trips_of=lambda w: 8)
    engine = DetailedEngine(kernel, tiny_gpu)
    stopper = _StopAfter(5)
    stopper.watch(engine)
    res = engine.run()
    assert res.stopped
    assert res.undispatched  # something was left to predict
    assert res.stop_time > 0
    # warps detailed + undispatched = total
    assert len(res.warp_times) + len(res.undispatched) == 400
    # slot-release times recorded for draining warps
    assert sum(len(t) for t in res.cu_slot_free.values()) > 0
    for times in res.cu_slot_free.values():
        for t in times:
            assert t >= res.stop_time


def test_times_are_builtin_floats(tiny_gpu):
    """No numpy scalar escapes the engine's arrays: a leaked
    ``numpy.float64`` would flow on through every later add and compare
    of the run, and into the cache model's clocks."""
    from repro.obs import MemorySink, scoped_bus

    kernel = make_loop_kernel(n_warps=400, trips_of=lambda w: 8)
    with scoped_bus() as bus:
        sink = bus.add_sink(MemorySink())
        engine = DetailedEngine(kernel, tiny_gpu)
        _StopAfter(5).watch(engine)
        res = engine.run()
    times = [res.end_time, res.stop_time]
    for pair in res.warp_times.values():
        times.extend(pair)
    for slot_times in res.cu_slot_free.values():
        assert slot_times
        times.extend(slot_times)
    assert {type(t) for t in times} == {float}
    field_types = {type(value) for event in sink.events
                   if event.kind.startswith("engine.")
                   for value in event.fields.values()}
    assert field_types <= {float, int, str, bool}


def test_stop_with_everything_dispatched(tiny_gpu):
    kernel = make_vecadd(n_warps=4)  # fits entirely on the GPU
    engine = DetailedEngine(kernel, tiny_gpu)
    stopper = _StopAfter(1)
    stopper.watch(engine)
    res = engine.run()
    assert res.stopped
    assert res.undispatched == []
    assert len(res.warp_times) == 4


class _AbortAfter:
    def __init__(self, n):
        self.n = n
        self.engine = None
        self.seen = 0

    def watch(self, engine):
        self.engine = engine
        engine.subscribe(ENGINE_WARP_RETIRE, self.on_warp_retired)

    def on_warp_retired(self, warp_id, dispatch, retire):
        self.seen += 1
        if self.seen == self.n:
            self.engine.request_abort()


def test_abort_terminates_early(tiny_gpu):
    kernel = make_loop_kernel(n_warps=400, trips_of=lambda w: 8)
    engine = DetailedEngine(kernel, tiny_gpu)
    _AbortAfter(3).watch(engine)
    res = engine.run()
    assert res.stopped
    assert len(res.warp_times) < 400


def test_probes_capture_bb_and_warp_events(tiny_gpu):
    kernel = make_loop_kernel(n_warps=8, trips_of=lambda w: 4)
    bb_probe = BBProbe()
    warp_probe = WarpProbe()
    engine = DetailedEngine(kernel, tiny_gpu)
    bb_probe.watch(engine)
    warp_probe.watch(engine)
    res = engine.run()
    assert len(warp_probe.times) == 8
    loop_pc = kernel.program.blocks[1].pc
    assert len(bb_probe.records[loop_pc]) == 8 * 4
    assert bb_probe.dominating_pc() in bb_probe.records
    for start, end in bb_probe.records[loop_pc]:
        assert end >= start
    # probe data matches the engine's own accounting
    assert warp_probe.issue_retire_pairs() == [
        res.warp_times[w] for w, _, _ in warp_probe.times]


def test_simd_port_contention(tiny_gpu):
    """More vector work than SIMD issue slots stretches execution."""
    import dataclasses

    narrow = dataclasses.replace(tiny_gpu, simd_per_cu=1,
                                 name="narrow")
    kernel_a = make_vecadd(n_warps=32)
    kernel_b = make_vecadd(n_warps=32)
    _, wide_res = run(kernel_a, tiny_gpu)
    _, narrow_res = run(kernel_b, narrow)
    assert narrow_res.end_time > wide_res.end_time


def test_cp_dispatch_staggering(tiny_gpu):
    kernel = make_vecadd(n_warps=32, wg_size=2)
    _, res = run(kernel, tiny_gpu)
    dispatch_times = sorted(d for d, _ in res.warp_times.values())
    assert dispatch_times[0] == 0.0
    assert dispatch_times[-1] > 0.0  # staggered, not all at cycle 0


# ------------------------------------------------ observer semantics


class _Recorder:
    """Records every delivery as a tuple, in delivery order."""

    def __init__(self):
        self.events = []

    def watch(self, engine):
        engine.subscribe(ENGINE_WARP_DISPATCH, self.on_warp_dispatched)
        engine.subscribe(ENGINE_BB, self.on_bb_complete)
        engine.subscribe(ENGINE_WARP_RETIRE, self.on_warp_retired)

    def on_warp_dispatched(self, warp_id, t):
        self.events.append(("dispatch", warp_id, t))

    def on_bb_complete(self, warp_id, bb_pc, start, end):
        self.events.append(("bb", warp_id, bb_pc, start, end))

    def on_warp_retired(self, warp_id, dispatch, retire):
        self.events.append(("retire", warp_id, dispatch, retire))


def test_two_listeners_observe_identical_sequences(tiny_gpu):
    """The registration-order contract: every observer sees the same
    stream."""
    kernel = make_loop_kernel(n_warps=8, trips_of=lambda w: 3)
    first, second = _Recorder(), _Recorder()
    engine = DetailedEngine(kernel, tiny_gpu)
    first.watch(engine)
    second.watch(engine)
    engine.run()
    assert first.events
    assert first.events == second.events
    assert {e[0] for e in first.events} == {"dispatch", "bb", "retire"}


def test_duplicate_attach_rejected(tiny_gpu):
    engine = DetailedEngine(make_vecadd(n_warps=4), tiny_gpu)
    probe = BBProbe()
    probe.watch(engine)
    with pytest.raises(ConfigError, match="already subscribed"):
        probe.watch(engine)
    BBProbe().watch(engine)   # another probe's handler is another pair


def test_listener_sequences_repeat_across_runs(tiny_gpu):
    """Fresh engine, same kernel: the delivered stream is identical."""
    streams = []
    for _ in range(2):
        kernel = make_loop_kernel(n_warps=8, trips_of=lambda w: 3)
        recorder = _Recorder()
        engine = DetailedEngine(kernel, tiny_gpu)
        recorder.watch(engine)
        engine.run()
        streams.append(recorder.events)
    assert streams[0] == streams[1]


@pytest.mark.parametrize("extra, match", [
    (1, r"warp 2 of 'vecadd' ended with 4 memory records for 3 accesses"),
    (-1, r"warp 2 of 'vecadd' has only 2 memory records"),
], ids=["one-too-many", "one-too-few"])
def test_engine_checks_each_warps_record_count(tiny_gpu, extra, match):
    """A warp reads its records through a cursor; one record more than
    its memory instructions, or one fewer, is a TimingError, not a
    silently shifted cache access."""
    kernel = make_vecadd(n_warps=4)
    traces = WarpPackExecutor(kernel).run_warps_full(range(4))
    good = traces[2].mem_lines
    assert len(good) == 3
    records = good + [good[-1]] if extra > 0 else good[:-1]
    traces[2] = dataclasses.replace(traces[2], mem_lines=records)
    with pytest.raises(TimingError, match=match):
        DetailedEngine(kernel, tiny_gpu,
                       trace_provider=traces.__getitem__).run()


def test_retire_rows_stay_packed():
    """The run's peak Python heap is one retire ring per resident slot —
    ``K + 1`` 8-byte cells, ``K`` the smallest power of two above the
    path's longest dependency distance — plus each path's remapped
    dependency column and a fixed allowance for everything else.  A
    row per instruction, or rows of boxed floats (32 bytes per cell),
    blow it."""
    gpu = dataclasses.replace(R9_NANO.scaled(4), max_warps_per_cu=10)
    slots = gpu.n_cu * gpu.max_warps_per_cu
    kernel = make_loop_kernel(n_warps=200, trips_of=lambda w: 250 + w % 3)
    traces = WarpPackExecutor(kernel).run_warps_full(range(kernel.n_warps))
    longest = max(t.n_insts for t in traces.values())
    assert longest >= 1000
    far = max(i - d for t in traces.values()
              for i, d in enumerate(t.dep) if d >= 0)
    ring = 1 << far.bit_length()
    columns = {id(t.dep): len(t.dep) for t in traces.values()}
    bus = EventBus()
    engine = DetailedEngine(kernel, gpu, bus=bus,
                            trace_provider=traces.__getitem__)
    # tracing every allocation is slow, and the peak is reached once
    # every slot has been filled and recycled: stop there
    retired = []

    def on_retire(warp, t0, t1):
        retired.append(warp)
        if len(retired) == slots + 20:
            engine.request_abort()

    bus.subscribe(ENGINE_WARP_RETIRE, on_retire)
    tracemalloc.start()
    try:
        engine.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (8 * slots * (ring + 1) + 8 * sum(columns.values())
                    + 128 * 1024)
