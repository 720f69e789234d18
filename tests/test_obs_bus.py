"""Unit tests for the SimScope observability layer (``repro.obs``)."""

import io
import json

import pytest

from repro import obs
from repro.obs import (
    ALL_TYPES,
    CORE_KINDS,
    ENGINE_BB,
    ENGINE_KERNEL,
    ENGINE_WARP_RETIRE,
    HOT_KINDS,
    PARALLEL_TASK,
    RELIABILITY_WATCHDOG,
    ChromeTraceSink,
    CountingSink,
    EventBus,
    JsonlSink,
    MemorySink,
    current_bus,
    open_trace,
    scoped_bus,
    set_default_bus,
    sink_for_path,
    to_chrome_trace,
)

# ------------------------------------------------------------ events


def test_event_type_record_and_to_dict():
    event = ENGINE_BB.record(7, (3, 0x40, 10.0, 12.5))
    assert event.kind == "engine.bb"
    assert event.seq == 7
    assert event.fields == {"warp": 3, "pc": 0x40, "t0": 10.0,
                            "t1": 12.5}
    assert event.to_dict() == {"kind": "engine.bb", "seq": 7, "warp": 3,
                               "pc": 0x40, "t0": 10.0, "t1": 12.5}


def test_taxonomy_is_consistent():
    assert set(CORE_KINDS) <= set(ALL_TYPES)
    assert HOT_KINDS <= set(ALL_TYPES)
    # core kinds are exactly the non-hot ones: safe for default accounting
    assert not (set(CORE_KINDS) & HOT_KINDS)
    for name, etype in ALL_TYPES.items():
        assert etype.name == name
        assert etype.fields  # every type carries at least one field


# ------------------------------------------------------------ bus


def test_subscribe_publish_positional_args():
    bus = EventBus()
    seen = []
    bus.subscribe(ENGINE_BB, lambda *args: seen.append(args))
    bus.emit(ENGINE_BB, 1, 0x10, 0.0, 5.0)
    assert seen == [(1, 0x10, 0.0, 5.0)]


def test_emit_without_subscribers_is_a_noop():
    bus = EventBus()
    bus.emit(ENGINE_KERNEL, "k", 0.0, 1.0, 10, False)  # must not raise
    assert not bus.channel(ENGINE_KERNEL).active


def test_delivery_order_is_subscription_order():
    bus = EventBus()
    order = []
    bus.subscribe(ENGINE_BB, lambda *a: order.append("first"))
    bus.subscribe(ENGINE_BB, lambda *a: order.append("second"))
    bus.emit(ENGINE_BB, 0, 0, 0.0, 1.0)
    assert order == ["first", "second"]


def test_unsubscribe_detaches():
    bus = EventBus()
    seen = []
    handle = bus.subscribe(ENGINE_BB, lambda *a: seen.append(a))
    bus.unsubscribe(ENGINE_BB, handle)
    bus.emit(ENGINE_BB, 0, 0, 0.0, 1.0)
    assert seen == []


def test_sink_receives_records_with_monotone_seq():
    bus = EventBus()
    sink = bus.add_sink(MemorySink())
    bus.emit(ENGINE_BB, 1, 0x10, 0.0, 5.0)
    bus.emit(ENGINE_WARP_RETIRE, 1, 0.0, 6.0)
    bus.emit(ENGINE_KERNEL, "k", 0.0, 6.0, 9, False)
    kinds = [e.kind for e in sink.events]
    assert kinds == ["engine.bb", "engine.warp_retire", "engine.kernel"]
    seqs = [e.seq for e in sink.events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_sink_kind_filter():
    bus = EventBus()
    sink = bus.add_sink(MemorySink(), kinds=[ENGINE_KERNEL.name])
    bus.emit(ENGINE_BB, 1, 0x10, 0.0, 5.0)
    bus.emit(ENGINE_KERNEL, "k", 0.0, 6.0, 9, False)
    assert [e.kind for e in sink.events] == ["engine.kernel"]
    # the filtered-out channel never became active
    assert not bus.channel(ENGINE_BB).active


def test_add_sink_rejects_unknown_kind():
    bus = EventBus()
    with pytest.raises(KeyError, match="unknown event kind"):
        bus.add_sink(MemorySink(), kinds=["engine.nonsense"])


def test_remove_sink_detaches_every_subscription():
    bus = EventBus()
    sink = bus.add_sink(MemorySink())
    bus.remove_sink(sink)
    assert bus.sinks == []
    bus.emit(ENGINE_BB, 1, 0x10, 0.0, 5.0)
    assert sink.events == []
    for name in ALL_TYPES:
        assert not bus._channels[name].active


def test_event_counts_merges_counting_sinks():
    bus = EventBus()
    a = bus.add_sink(CountingSink(), kinds=[ENGINE_BB.name])
    b = bus.add_sink(CountingSink(), kinds=[ENGINE_BB.name])
    bus.emit(ENGINE_BB, 1, 0x10, 0.0, 5.0)
    assert a.total == b.total == 1
    assert bus.event_counts() == {"engine.bb": 2}


# ------------------------------------------------------------ default bus


def test_scoped_bus_installs_and_restores():
    outer = current_bus()
    with scoped_bus() as inner:
        assert current_bus() is inner
        assert inner is not outer
    assert current_bus() is outer


def test_set_default_bus_returns_previous():
    outer = current_bus()
    fresh = EventBus()
    assert set_default_bus(fresh) is outer
    try:
        assert current_bus() is fresh
    finally:
        set_default_bus(outer)


# ------------------------------------------------------------ sinks


def test_memory_sink_kinds_and_of_kind():
    bus = EventBus()
    sink = bus.add_sink(MemorySink())
    bus.emit(ENGINE_BB, 1, 0x10, 0.0, 5.0)
    bus.emit(ENGINE_BB, 2, 0x10, 1.0, 6.0)
    bus.emit(ENGINE_KERNEL, "k", 0.0, 6.0, 9, False)
    assert sink.kinds() == {"engine.bb": 2, "engine.kernel": 1}
    assert len(sink.of_kind("engine.bb")) == 2
    assert len(sink) == 3


def test_jsonl_sink_writes_flat_lines():
    buffer = io.StringIO()
    bus = EventBus()
    sink = bus.add_sink(JsonlSink(buffer))
    bus.emit(ENGINE_BB, 1, 0x10, 0.0, 5.0)
    bus.emit(RELIABILITY_WATCHDOG, "engine:k", "events", 100, "budget")
    sink.close()  # non-owned handle stays open
    lines = [json.loads(line) for line in
             buffer.getvalue().splitlines()]
    assert sink.n_written == 2
    assert lines[0]["kind"] == "engine.bb"
    assert lines[0]["pc"] == 0x10
    assert lines[1] == {"kind": "reliability.watchdog", "seq": 2,
                        "label": "engine:k", "unit": "events",
                        "ticks": 100, "reason": "budget"}


def test_jsonl_sink_owns_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    bus = EventBus()
    sink = bus.add_sink(JsonlSink(str(path)))
    bus.emit(ENGINE_KERNEL, "k", 0.0, 6.0, 9, False)
    bus.remove_sink(sink)
    sink.close()
    record = json.loads(path.read_text())
    assert record["kernel"] == "k"


def test_chrome_sink_writes_document_on_close(tmp_path):
    path = tmp_path / "trace.json"
    bus = EventBus()
    sink = bus.add_sink(ChromeTraceSink(str(path)))
    bus.emit(ENGINE_BB, 1, 0x10, 0.0, 5.0)
    sink.close()
    sink.close()  # idempotent
    doc = json.loads(path.read_text())
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 1
    assert spans[0]["ts"] == 0.0 and spans[0]["dur"] == 5.0


def test_sink_for_path_picks_format(tmp_path):
    assert isinstance(sink_for_path(str(tmp_path / "a.json")),
                      ChromeTraceSink)
    assert isinstance(sink_for_path(str(tmp_path / "a.jsonl")), JsonlSink)


def test_open_trace_attaches_and_narrows(tmp_path):
    bus = EventBus()
    path = tmp_path / "t.jsonl"
    sink = open_trace(bus, str(path), kinds=[ENGINE_KERNEL.name])
    bus.emit(ENGINE_BB, 1, 0x10, 0.0, 5.0)
    bus.emit(ENGINE_KERNEL, "k", 0.0, 6.0, 9, False)
    bus.remove_sink(sink)
    sink.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "engine.kernel"


# ------------------------------------------------------------ metrics


def test_counter_and_snapshot():
    registry = obs.MetricsRegistry()
    registry.counter("runs").inc()
    registry.counter("runs").inc(2)
    registry.counter("insts").inc(100)
    snap = registry.snapshot()
    assert snap["counters"] == {"runs": 3, "insts": 100}


def test_timer_context_manager():
    registry = obs.MetricsRegistry()
    timer = registry.timer("phase")
    with timer:
        pass
    with timer:
        pass
    assert timer.count == 2
    assert timer.total >= 0.0
    assert timer.mean == pytest.approx(timer.total / 2)
    assert "phase" in registry.snapshot()["timers"]


def test_span_nesting_pauses_enclosing_timer():
    """Spans account *exclusive* time: entering a nested span pauses the
    enclosing one, so phase totals sum to wall time without double count."""
    registry = obs.MetricsRegistry()
    with registry.span("a"):
        with registry.span("b"):
            pass
        with registry.span("b"):
            pass
    # 'a' ran in three uninterrupted sections: before, between, after
    assert registry.timer("span.a").count == 3
    assert registry.timer("span.b").count == 2
    phases = registry.phases()
    assert set(phases) == {"a", "b"}
    assert all(total >= 0.0 for total in phases.values())


def test_phases_ignores_plain_timers():
    registry = obs.MetricsRegistry()
    with registry.span("io"):
        pass
    with registry.timer("not_a_phase"):
        pass
    assert set(registry.phases()) == {"io"}


# ------------------------------------------------------------ chrome export


def test_chrome_trace_spans_and_instants():
    events = [
        {"kind": "engine.wg_dispatch", "seq": 1, "wg": 0, "cu": 1,
         "t": 0.0, "n_warps": 4},
        {"kind": "engine.bb", "seq": 2, "warp": 3, "pc": 0x20,
         "t0": 1.0, "t1": 4.0},
        {"kind": "reliability.fault", "seq": 3, "site": "sweep.journal",
         "error": "fs.torn", "kernel": "journal.jsonl"},
        {"kind": "engine.kernel", "seq": 4, "kernel": "k", "t0": 0.0,
         "t1": 9.0, "n_insts": 42, "stopped": False},
    ]
    doc = to_chrome_trace(events)
    records = doc["traceEvents"]
    names = {e["name"] for e in records}
    assert "bb@32" in names and "k" in names
    # the clock-less fault instant is pinned to the last seen time
    fault = next(e for e in records if e["name"] == "fault@sweep.journal")
    assert fault["ph"] == "i"
    assert fault["ts"] == 4.0
    # per-process metadata present for Perfetto grouping
    assert any(e["ph"] == "M" for e in records)


def test_chrome_trace_skips_unknown_kinds():
    doc = to_chrome_trace([{"kind": "future.kind", "seq": 1}])
    assert all(e["ph"] == "M" for e in doc["traceEvents"])


def test_chrome_trace_task_spans_use_wall_microseconds():
    events = [{"kind": "parallel.task", "seq": 1, "index": 0,
               "workload": "relu", "size": 256, "method": "photon",
               "status": "ok", "worker": 41, "t0": 1.5, "t1": 2.5}]
    doc = to_chrome_trace(events)
    span = next(e for e in doc["traceEvents"] if e["ph"] == "X")
    assert span["ts"] == pytest.approx(1.5e6)
    assert span["dur"] == pytest.approx(1.0e6)


def test_chrome_trace_is_json_serializable_and_loadable():
    events = [{"kind": "engine.kernel", "seq": 1, "kernel": "k",
               "t0": 0.0, "t1": 9.0, "n_insts": 42, "stopped": True}]
    payload = json.dumps(to_chrome_trace(events), allow_nan=False)
    assert json.loads(payload)["otherData"]["producer"] == "repro.obs"
