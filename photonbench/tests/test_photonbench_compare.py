"""compare, the determinism check and the golden comparison."""

import copy

from photonbench import spec
from photonbench.compare import compare, worsening
from photonbench.driver import golden_mismatches


def _record(**end_to_end):
    bench = spec.load_benchmark()
    values = {"setup_s": 0.4, "wall_s": 10.0, "full_kinst_per_s": 900.0,
              "photon_kinst_per_s": 1100.0, "photon_speedup": 1.2,
              "photon_err_pct": 2.4, "photon_err_max_pct": 3.7,
              "peak_rss_mb": 100.0, **end_to_end}
    layer = {m["name"]: {"value": 1.0, "unit": m["unit"]}
             for m in bench["per_layer"]}
    return {"workloads": {"compute_wide": {
        "end_to_end": {m["name"]: {"value": values[m["name"]],
                                   "unit": m["unit"]}
                       for m in bench["end_to_end"]},
        "per_layer": layer, "attempted": 20, "failed": 0}}}


def test_worsening_takes_direction_into_account():
    assert worsening(10.0, 11.0, "lower") == 0.1
    assert worsening(10.0, 9.0, "higher") == 0.1
    assert worsening(10.0, 9.0, "lower") == -0.1


def test_identical_records_pass():
    rows, violations = compare(_record(), _record(), same_commit=True)
    assert not violations
    bench = spec.load_benchmark()
    # one row per metric, plus fail_frac
    assert len(rows) == (len(bench["end_to_end"]) + 1
                         + len(bench["per_layer"]))


def _bound(name):
    return next(m["bound"] for m in spec.load_benchmark()["end_to_end"]
                if m["name"] == name)


def test_a_metric_beyond_its_bound_is_a_violation():
    over, under = 1 + _bound("wall_s") + 0.05, 1 + _bound("wall_s") - 0.05
    _, violations = compare(_record(), _record(wall_s=10.0 * over))
    assert len(violations) == 1 and "wall_s" in violations[0]
    # inside the bound, and better, are both fine
    assert not compare(_record(), _record(wall_s=10.0 * under))[1]
    assert not compare(_record(), _record(photon_speedup=2.0))[1]
    lost = 1.2 * (1 - _bound("photon_speedup") - 0.05)
    _, violations = compare(_record(), _record(photon_speedup=lost))
    assert len(violations) == 1 and "photon_speedup" in violations[0]


def test_simulated_error_must_be_identical_on_one_commit():
    moved = _record(photon_err_pct=2.5)
    assert not compare(_record(), moved)[1]          # inside its bound
    _, violations = compare(_record(), moved, same_commit=True)
    assert len(violations) == 1 and "NOT EQUAL" in violations[0]


def test_exact_layer_metrics_and_failures():
    changed = _record()
    entry = changed["workloads"]["compute_wide"]
    entry["per_layer"]["timing.sim_cycles"]["value"] = 2.0
    entry["per_layer"]["timing.engine_s"]["value"] = 2.0   # a time: info
    _, violations = compare(_record(), changed)
    assert len(violations) == 1 and "timing.sim_cycles" in violations[0]
    failing = _record()
    failing["workloads"]["compute_wide"]["failed"] = 1
    _, violations = compare(_record(), failing)
    assert len(violations) == 1 and "fail_frac" in violations[0]
    assert not compare(failing, _record())[1]


def test_a_missing_workload_is_a_violation():
    other = _record()
    other["workloads"]["dnn_apps"] = copy.deepcopy(
        other["workloads"]["compute_wide"])
    assert compare(_record(), other)[1] == [
        "dnn_apps: missing from one record"]


def test_determinism_check_flags_a_doctored_repeat():
    from photonbench.passes import Ops, check_repeat

    first = {"full_time": 107340.0, "photon_time": 103351.0,
             "modes": {"bb": 1}, "full_wall": 2.8}
    ops = Ops()
    check_repeat(ops, "nbody@1024", first, dict(first, full_wall=3.1))
    assert (ops.attempted, ops.failures) == (1, [])   # walls may differ
    check_repeat(ops, "nbody@1024", first, dict(first, photon_time=1.0))
    check_repeat(ops, "nbody@1024", first, dict(first, modes={"warp": 1}))
    assert ops.attempted == 3 and len(ops.failures) == 2
    assert "photon_time" in ops.failures[0] and "modes" in ops.failures[1]


def test_golden_mismatches_counts_differing_and_unpinned_cells():
    entry = {"end_time": 5.0, "n_insts": 7, "mem_stats": {"l2_hits": 1},
             "photon_modes": {"bb": 1}, "photon_sim_time": 4.0}
    golden = {"cells": {"a@1": entry, "b@2": entry}}
    assert golden_mismatches(golden, {"a@1": dict(entry)}) == 0
    assert golden_mismatches(golden, {"a@1": dict(entry, end_time=6.0),
                                      "b@2": dict(entry)}) == 1
    assert golden_mismatches(golden, {"c@3": dict(entry)}) == 1
