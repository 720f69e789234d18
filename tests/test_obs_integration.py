"""Every layer emits through the bus: engine, executor, detectors,
reliability, and the sweep scheduler, observed end to end.

Also covers the run-scoped subscription contract: an observer
registered with :meth:`DetailedEngine.subscribe` and a plain function
subscribed straight to the corresponding bus channel must observe
identical event sequences, and the former leaves the bus with the run.
"""

import dataclasses
import gc
import json
import time
import weakref

import pytest

from repro.core import Photon
from repro.durable import durable_replace
from repro.errors import BudgetExceeded
from repro.functional import FunctionalExecutor
from repro.harness.defaults import EVAL_R9NANO
from repro.obs import (
    CORE_KINDS,
    DETECTOR_ELIDED,
    DETECTOR_SWITCH,
    ENGINE_BB,
    ENGINE_INST,
    ENGINE_KERNEL,
    ENGINE_WARP_RETIRE,
    EXEC_WARP,
    PARALLEL_TASK,
    EventBus,
    JsonlSink,
    MemorySink,
    scoped_bus,
)
from repro.parallel import plan_sweep, run_sweep
from repro.reliability import (FsFaultPlan, FsFaultSpec, Watchdog,
                               WatchdogConfig, scoped_fs_faults)
from repro.timing import (BBProbe, DetailedEngine, WarpProbe,
                          simulate_kernel_detailed)
from repro.workloads import build_relu

from conftest import make_barrier_kernel, make_loop_kernel, make_vecadd

# ------------------------------------------------------------ engine


def test_engine_emits_full_event_stream(tiny_gpu):
    bus = EventBus()
    sink = bus.add_sink(MemorySink())
    kernel = make_barrier_kernel(n_warps=8, wg_size=4)
    engine = DetailedEngine(kernel, tiny_gpu, bus=bus)
    res = engine.run()
    kinds = sink.kinds()
    assert kinds["engine.kernel"] == 1
    assert kinds["engine.warp_retire"] == 8
    assert kinds["engine.warp_dispatch"] == 8
    assert kinds["engine.wg_dispatch"] == 2
    assert kinds["engine.barrier"] == 2
    assert kinds["engine.bb"] == 8 * 2  # the barrier splits 2 blocks
    # one inst event per dynamic instruction
    assert kinds["engine.inst"] == res.n_insts
    summary = sink.of_kind("engine.kernel")[0]
    assert summary.fields["kernel"] == "barriered"
    assert summary.fields["t1"] == res.end_time
    assert summary.fields["n_insts"] == res.n_insts
    assert summary.fields["stopped"] is False
    # the stream is recorded in emission order: monotone seq
    seqs = [e.seq for e in sink.events]
    assert seqs == sorted(seqs)


def test_engine_detached_run_leaves_bus_silent(tiny_gpu):
    bus = EventBus()
    engine = DetailedEngine(make_vecadd(n_warps=8), tiny_gpu, bus=bus)
    engine.run()
    sink = bus.add_sink(MemorySink())
    assert sink.events == []  # nothing buffered, nothing replayed


def test_engine_waitcnt_events(tiny_gpu):
    bus = EventBus()
    sink = bus.add_sink(MemorySink(), kinds=["engine.waitcnt"])
    kernel = make_vecadd(n_warps=8)  # one s_waitcnt per warp
    engine = DetailedEngine(kernel, tiny_gpu, bus=bus)
    engine.run()
    assert len(sink.events) == 8
    warps = sorted(e.fields["warp"] for e in sink.events)
    assert warps == list(range(8))


def test_run_scoped_and_direct_subscribers_see_identical_sequences(
        tiny_gpu):
    bus = EventBus()
    direct = []
    bus.subscribe(ENGINE_BB,
                  lambda *args: direct.append(("bb", *args)))
    bus.subscribe(ENGINE_WARP_RETIRE,
                  lambda *args: direct.append(("retire", *args)))
    probe = BBProbe()
    warp_probe = WarpProbe()
    kernel = make_loop_kernel(n_warps=8, trips_of=lambda w: 4)
    engine = DetailedEngine(kernel, tiny_gpu, bus=bus)
    probe.watch(engine)
    warp_probe.watch(engine)
    engine.run()
    bb_stream = [e[1:] for e in direct if e[0] == "bb"]
    # per-pc bb streams match exactly, in delivery order
    for pc, times in probe.records.items():
        assert [(t0, t1) for _, p, t0, t1 in bb_stream
                if p == pc] == times
    assert sum(len(t) for t in probe.records.values()) == len(bb_stream)
    # the retire stream matches the probe's tuple for tuple
    assert [(w, d, r) for _, w, d, r in
            (e for e in direct if e[0] == "retire")] == warp_probe.times


def test_subscriptions_leave_the_bus_with_the_run(tiny_gpu):
    """Registered, not yet subscribed; subscribed for the run; gone after
    — and a bystander subscribed straight to the bus is left alone."""
    bus = EventBus()
    bystander = bus.subscribe(ENGINE_WARP_RETIRE, lambda *args: None)
    probe, warp_probe = BBProbe(), WarpProbe()
    engine = DetailedEngine(make_vecadd(n_warps=4), tiny_gpu, bus=bus)
    probe.watch(engine)
    warp_probe.watch(engine)
    assert not bus.channel(ENGINE_BB).active
    seen_during = []
    engine.subscribe(ENGINE_WARP_RETIRE, lambda *args: seen_during.append(
        list(bus.channel(ENGINE_WARP_RETIRE).subscribers)))
    engine.run()
    assert seen_during[0][:2] == [bystander, warp_probe.on_warp_retired]
    assert not bus.channel(ENGINE_BB).active
    assert bus.channel(ENGINE_WARP_RETIRE).subscribers == [bystander]


def test_engine_keeps_no_observer_after_the_run(tiny_gpu,
                                               fast_photon_config):
    """Gone after the run means the engine drops its observers too: a
    detector holds its engine, so an engine that still held the
    detector's handlers would keep itself — traces, caches — alive
    until a full garbage collection."""
    from repro.core import BBVProjector, analyze_kernel
    from repro.core.detectors import BBSamplingDetector

    kernel = make_loop_kernel(n_warps=64, trips_of=lambda w: 1 + w % 5)
    detector = BBSamplingDetector(
        analyze_kernel(kernel, fast_photon_config,
                       BBVProjector(fast_photon_config.bbv_dim)),
        fast_photon_config)
    engine = DetailedEngine(kernel, tiny_gpu, bus=EventBus())
    assert detector.watch(engine)
    engine.run()
    freed = weakref.ref(engine)
    gc.disable()
    try:
        del engine, detector
        assert freed() is None
    finally:
        gc.enable()


def test_per_instruction_stream_only_when_subscribed(tiny_gpu):
    bus = EventBus()
    sink = bus.add_sink(MemorySink(), kinds=[ENGINE_INST.name])
    kernel = make_vecadd(n_warps=4)
    engine = DetailedEngine(kernel, tiny_gpu, bus=bus)
    res = engine.run()
    assert len(sink.events) == res.n_insts
    for event in sink.events:
        assert event.fields["t1"] >= event.fields["t0"] >= 0


# ------------------------------------------------------------ executor


def test_executor_emits_warp_events(tiny_gpu):
    bus = EventBus()
    sink = bus.add_sink(MemorySink(), kinds=[EXEC_WARP.name])
    kernel = make_loop_kernel(n_warps=4, trips_of=lambda w: 3)
    executor = FunctionalExecutor(kernel, bus=bus)
    full = executor.run_warp_full(0)
    control = executor.run_warp_control(1)
    assert [e.fields["mode"] for e in sink.events] == ["full", "control"]
    assert sink.events[0].fields["n_insts"] == full.n_insts
    assert sink.events[1].fields["n_insts"] == control.n_insts
    for event in sink.events:
        assert event.fields["wall"] >= 0.0


# ------------------------------------------------------------ detectors


def test_detector_switch_event(tiny_gpu, fast_photon_config):
    from repro.core import BBVProjector, analyze_kernel
    from repro.core.detectors import WarpSamplingDetector

    bus = EventBus()
    sink = bus.add_sink(MemorySink(), kinds=[DETECTOR_SWITCH.name])
    kernel = make_loop_kernel(n_warps=700, trips_of=lambda w: 6)
    analysis = analyze_kernel(kernel, fast_photon_config,
                              BBVProjector(fast_photon_config.bbv_dim))
    detector = WarpSamplingDetector(analysis, fast_photon_config)
    engine = DetailedEngine(kernel, tiny_gpu, bus=bus)
    detector.watch(engine)
    engine.run()
    assert detector.switched
    assert len(sink.events) == 1
    switch = sink.events[0]
    assert switch.fields["level"] == "warp"
    assert switch.fields["kernel"] == "loopy"
    assert switch.fields["t"] == detector.switch_time
    assert bus.metrics.counter("detector.warp_switches").value == 1


def test_detector_elided_event_and_counters(tiny_gpu, fast_photon_config):
    """Pinned vocabulary of a detector that does not listen: one cold
    ``detector.elided`` event per level with what it could reach and
    what it needs, ``detector.{bb,warp}_elided`` counters, and the
    verdict on the result in place of a stable rate."""
    bus = EventBus()
    sink = bus.add_sink(MemorySink(), kinds=[DETECTOR_ELIDED.name])
    # 16 warps, no loop: fewer observations than either verdict needs
    result = Photon(tiny_gpu, fast_photon_config, bus=bus).simulate_kernel(
        make_vecadd(n_warps=16))
    assert [e.fields for e in sink.events] == [
        {"kernel": "vecadd", "level": "bb", "reachable": 0,
         "need": fast_photon_config.stable_bb_rate},
        {"kernel": "vecadd", "level": "warp", "reachable": 16,
         "need": 2 * fast_photon_config.warp_window},
    ]
    counters = bus.metrics.snapshot()["counters"]
    assert {name: value for name, value in counters.items()
            if name.startswith("detector.")} == {
        "detector.bb_elided": 1, "detector.warp_elided": 1}
    assert result.mode == "full"
    assert result.meta["bb_detector"] == "cannot_fire"
    assert "stable_bb_rate" not in result.meta
    assert DETECTOR_ELIDED.name in CORE_KINDS


def _replayed_run(gpu, config, kernel):
    """Run ``kernel`` under a listening BB detector; the detector, the
    bus counters, and how many blocks completed before the gate."""
    from repro.core import BBVProjector, analyze_kernel
    from repro.core.detectors import BBSamplingDetector

    bus = EventBus()
    analysis = analyze_kernel(kernel, config, BBVProjector(config.bbv_dim))
    detector = BBSamplingDetector(
        analysis, config, warp_capacity=gpu.n_cu * gpu.max_warps_per_cu)
    engine = DetailedEngine(kernel, gpu, bus=bus)
    assert detector.watch(engine)
    seen = {"retired": 0, "before_gate": 0}

    def on_bb(warp, pc, start, end):
        seen["before_gate"] += seen["retired"] < detector.retire_gate

    def on_retire(warp, dispatch, retire):
        seen["retired"] += 1

    engine.subscribe(ENGINE_BB, on_bb)
    engine.subscribe(ENGINE_WARP_RETIRE, on_retire)
    engine.run()
    counters = bus.metrics.snapshot()["counters"]
    return detector, counters, seen["before_gate"]


def test_detector_replay_counters(tiny_gpu, fast_photon_config):
    """``detector.bb_replays`` / ``detector.bb_replayed_obs``: the blocks
    that complete before the retire gate are judged in one replay when
    it opens.  The uniform loop kernel of the Photon golden, with the
    gate at the GPU's warp capacity, switches exactly there — so every
    observation its switch rests on was judged in that replay."""
    config = dataclasses.replace(fast_photon_config,
                                 bb_retire_gate_fraction=0.3)
    kernel = make_loop_kernel(n_warps=700, trips_of=lambda w: 6)
    detector, counters, before_gate = _replayed_run(tiny_gpu, config,
                                                    kernel)
    assert detector.retire_gate == tiny_gpu.n_cu * tiny_gpu.max_warps_per_cu
    assert detector.switched
    assert counters["detector.bb_switches"] == 1
    assert counters["detector.bb_replays"] == 1
    assert counters["detector.bb_replayed_obs"] == before_gate > 0
    assert sum(d.observations for d in detector._detectors.values()) == (
        before_gate)


def test_detector_replay_then_judges_on_arrival(tiny_gpu,
                                                fast_photon_config):
    """Past the gate each block is judged as it completes: on the
    irregular loop of the Photon golden the switch comes after it, and
    only the pre-gate blocks were replayed."""
    kernel = make_loop_kernel(n_warps=500, trips_of=lambda w: 1 + w % 7)
    detector, counters, before_gate = _replayed_run(
        tiny_gpu, fast_photon_config, kernel)
    assert detector.switched
    assert counters["detector.bb_replays"] == 1
    assert counters["detector.bb_replayed_obs"] == before_gate > 0
    assert sum(d.observations for d in detector._detectors.values()) > (
        before_gate)


# ------------------------------------------------------------ reliability


def test_watchdog_trip_emits_event():
    bus = EventBus()
    sink = bus.add_sink(MemorySink())
    dog = Watchdog("engine:test", "events", budget=5, bus=bus)
    dog.tick(5)
    with pytest.raises(BudgetExceeded):
        dog.tick(1)
    assert [e.kind for e in sink.events] == ["reliability.watchdog"]
    trip = sink.events[0]
    assert trip.fields == {"label": "engine:test", "unit": "events",
                           "ticks": 6, "reason": "budget"}
    assert bus.metrics.counter("watchdog.trips").value == 1


def test_watchdog_trip_lands_on_the_runs_bus():
    """A trip is announced on the bus of the run it stops — an engine's
    and a fill's alike — and nothing reaches the default bus."""
    run_bus = EventBus()
    run_trips = run_bus.add_sink(MemorySink(),
                                 kinds=["reliability.watchdog"])
    with scoped_bus() as default:
        default_trips = default.add_sink(MemorySink(),
                                         kinds=["reliability.watchdog"])
        with pytest.raises(BudgetExceeded):
            simulate_kernel_detailed(
                build_relu(256), EVAL_R9NANO,
                watchdog=WatchdogConfig(max_events=10), bus=run_bus)
        with pytest.raises(BudgetExceeded):
            FunctionalExecutor(make_vecadd(n_warps=4), bus=run_bus,
                               deadline=time.monotonic() - 1.0
                               ).run_warp_control(0)
    assert [e.fields["label"] for e in run_trips.events] == [
        "engine(relu)", "executor('vecadd' control, 1 warps)"]
    assert run_bus.metrics.counter("watchdog.trips").value == 2
    assert default_trips.events == []
    assert "watchdog.trips" not in default.metrics.snapshot()["counters"]


def test_fault_fire_emits_event(tmp_path):
    with scoped_bus() as bus:
        sink = bus.add_sink(MemorySink())
        plan = FsFaultPlan(FsFaultSpec(site="sweep.journal", mode="enospc"))
        with scoped_fs_faults(plan), pytest.raises(OSError):
            durable_replace(b"{}", tmp_path / "journal.jsonl",
                            site="sweep.journal")
        assert [e.kind for e in sink.events] == ["reliability.fault"]
        assert sink.events[0].fields == {"site": "sweep.journal",
                                         "error": "fs.enospc",
                                         "kernel": "journal.jsonl"}


def test_full_photon_run_under_scoped_bus(tiny_gpu, fast_photon_config):
    """One scoped bus observes the engine and the detectors of a Photon
    built inside it."""
    with scoped_bus() as bus:
        sink = bus.add_sink(MemorySink())
        photon = Photon(tiny_gpu, fast_photon_config)
        kernel = make_loop_kernel(n_warps=700, trips_of=lambda w: 6)
        result = photon.simulate_kernel(kernel)
        kinds = sink.kinds()
        assert result.mode == "warp"
        assert kinds["engine.kernel"] == 1
        assert kinds["detector.switch"] >= 1
        order = [e.kind for e in sink.events]
        assert (order.index("detector.switch")
                < order.index("engine.kernel"))


# ------------------------------------------------------------ parallel


def test_sweep_emits_task_events(tiny_gpu):
    with scoped_bus() as bus:
        sink = bus.add_sink(MemorySink(), kinds=[PARALLEL_TASK.name])
        tasks = plan_sweep(["relu"], sizes=(256,), methods=("photon",))
        result = run_sweep(tasks, jobs=1)
        assert len(sink.events) == len(tasks)
        by_index = [e.fields["index"] for e in sink.events]
        assert by_index == [t.index for t in tasks]
        for event, telemetry in zip(sink.events, result.report.tasks):
            assert event.fields["workload"] == telemetry.workload
            assert event.fields["method"] == telemetry.method
            assert event.fields["status"] == telemetry.status
            assert (event.fields["t1"] - event.fields["t0"]
                    == pytest.approx(telemetry.task_wall))
        assert bus.metrics.counter("sweep.tasks").value == len(tasks)


def test_forked_workers_write_nothing_to_the_parents_trace(tmp_path):
    """A forked worker starts on a fresh silent bus: the parent's open
    trace file receives the parent's events only."""
    path = tmp_path / "trace.jsonl"
    with scoped_bus() as bus:
        sink = bus.add_sink(JsonlSink(path))
        tasks = plan_sweep(["relu"], sizes=(256,), methods=("photon",))
        run_sweep(tasks, jobs=2)
        bus.remove_sink(sink)
        sink.close()
    kinds = [json.loads(line)["kind"]
             for line in path.read_text().splitlines()]
    assert kinds == ["parallel.task"] * len(tasks)


def test_parallel_sweep_keeps_parent_trace_clean(tiny_gpu):
    """Pool workers must not write into the parent's sinks."""
    with scoped_bus() as bus:
        sink = bus.add_sink(MemorySink())
        tasks = plan_sweep(["relu"], sizes=(256,), methods=("photon",))
        run_sweep(tasks, jobs=2)
        # only the parent-side re-emitted task events appear — no
        # engine/executor noise leaked across process boundaries
        assert set(sink.kinds()) == {"parallel.task"}
        assert len(sink.events) == len(tasks)


# ------------------------------------------------------------ phase spans


def test_metrics_phase_names_are_pinned(tiny_gpu, tmp_path):
    """``--metrics`` reports these phase names; renaming them breaks
    every dashboard and CI grep downstream, so the set is pinned here."""
    from repro.timing import TraceCache
    from repro.tracestore import TraceStore

    with scoped_bus() as bus:
        cache = TraceCache(backing_store=TraceStore(tmp_path))
        kernel = make_vecadd(n_warps=4)
        DetailedEngine(kernel, tiny_gpu,
                       trace_provider=cache.provider(kernel)).run()
        cache.flush()
        phases = bus.metrics.phases()
    assert set(phases) == {"functional", "timing", "trace_io"}
    assert phases["functional"] > 0.0
    assert phases["timing"] > 0.0
    assert phases["trace_io"] > 0.0


def test_exec_driven_run_has_no_trace_io_phase(tiny_gpu):
    with scoped_bus() as bus:
        DetailedEngine(make_vecadd(n_warps=4), tiny_gpu).run()
        phases = bus.metrics.phases()
    # the round loop runs directly under ``timing``: no nested span
    assert set(phases) == {"functional", "timing"}


_ENGINE_COUNTERS = {
    "engine.runs", "engine.insts", "engine.batch.runs",
    "engine.batch.scalar_rounds", "engine.batch.scalar_insts",
}


def test_timing_batch_metrics_vocabulary(tiny_gpu):
    """Pinned engine vocabulary: the ``timing`` span and exactly these
    ``engine.*`` counters are what sweeps/dashboards (and PhotonBench)
    read.  ``engine.batch.scalar_*`` count the rounds and members the
    loop replayed; the counters of the retired vector rounds are gone,
    not zero."""
    with scoped_bus() as bus:
        DetailedEngine(make_vecadd(n_warps=4), tiny_gpu).run()
        counters = bus.metrics.snapshot()["counters"]
        phases = bus.metrics.phases()
    assert set(phases) == {"functional", "timing"}
    assert {name for name in counters
            if name.startswith("engine.")} == _ENGINE_COUNTERS
    assert counters["engine.batch.runs"] == 1
    assert 0 < counters["engine.batch.scalar_rounds"] <= (
        counters["engine.batch.scalar_insts"])
    assert counters["engine.batch.scalar_insts"] == counters["engine.insts"]


def test_timing_fallback_metrics_vocabulary(tiny_gpu):
    """There is no fallback to name: an armed watchdog runs the same
    loop under the same span and publishes the same counters."""
    from repro.reliability.watchdog import WatchdogConfig

    with scoped_bus() as bus:
        engine = DetailedEngine(make_vecadd(n_warps=4), tiny_gpu,
                                watchdog=WatchdogConfig(max_events=10**9))
        engine.run()
        counters = bus.metrics.snapshot()["counters"]
        phases = bus.metrics.phases()
    assert set(phases) == {"functional", "timing"}
    assert {name for name in counters
            if name.startswith("engine.")} == _ENGINE_COUNTERS
    assert counters["engine.batch.scalar_insts"] == counters["engine.insts"]
