"""BENCHMARK.json and the spec agree, and both fit the contract."""

import re

from photonbench import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_workload_names_match_benchmark_json_exactly():
    bench = spec.load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_metric_names_units_and_bounds():
    bench = spec.load_benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)), "a metric name is used twice"
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_spec_only_names_declared_metrics():
    bench = spec.load_benchmark()
    layer = {m["name"] for m in bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    assert spec.EXACT_LAYER <= layer
    assert spec.EXACT_END_TO_END <= end_to_end
    for name in layer:
        assert set(spec.applies_to(name)) <= set(spec.WORKLOADS)
    assert spec.applies_to("obs.full_sink_overhead_frac") == ("compute_wide",)
    assert spec.applies_to("serve.hit_ms_p95") == tuple(spec.WORKLOADS)


def test_command_and_paths():
    bench = spec.load_benchmark()
    assert bench["paths"] == ["photonbench"]
    assert bench["command"] == ["python3", "-m", "photonbench"]
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
