"""Span arithmetic and the percentile helper."""

import json

import pytest

from photonbench.spans import Span, Tracer, percentile, self_times, timed


def _span(span_id, parent, start, end):
    span = Span(span_id, f"s{span_id}", parent, start, {})
    span.end = end
    return span


def test_self_time_is_duration_minus_children():
    #  0: [0, 10]   1: [1, 4] under 0   2: [5, 9] under 0   3: [6, 8] under 2
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0),
             _span(2, 0, 5.0, 9.0), _span(3, 2, 6.0, 8.0)]
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}
    # self times of a tree add up to the root's duration
    assert sum(self_times(spans).values()) == spans[0].duration


def test_tracer_records_parents_and_totals(tmp_path):
    tracer = Tracer("run-1")
    with tracer.span("outer", cell="x") as outer:
        _, seconds = timed(tracer, "inner", lambda: sum(range(1000)))
        timed(tracer, "inner", lambda: None)
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert [s.parent for s in inner] == [outer.id, outer.id]
    assert outer.parent is None
    assert tracer.total("inner") == sum(s.duration for s in inner)
    assert seconds == inner[0].duration <= outer.duration
    path = tmp_path / "trace.json"
    tracer.write_chrome(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == 3
    assert {e["args"]["run"] for e in events} == {"run-1"}
    assert events[0]["args"]["cell"] == "x"
    assert events[1]["args"]["parent"] == events[0]["args"]["id"]


def test_timed_without_a_tracer_records_nothing():
    out, seconds = timed(None, "ignored", lambda: 7)
    assert out == 7 and seconds >= 0.0


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 201))            # 200 samples
    assert percentile(samples, 95) == 190    # exactly 10 beyond
    with pytest.raises(ValueError, match="need at least 10"):
        percentile(samples, 96)              # 8 beyond
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)      # 9 beyond the median
    assert percentile(list(range(1, 21)), 50) == 10
    with pytest.raises(ValueError):
        percentile(samples, 100)
