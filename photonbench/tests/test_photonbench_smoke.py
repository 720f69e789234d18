"""The smoke run end to end: every metric, one envelope, valid JSON."""

import json
import subprocess
import sys

import pytest

from photonbench import SCHEMA_VERSION, spec
from photonbench.compare import compare


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("photonbench") / "record.json"
    done = subprocess.run(
        [sys.executable, "-m", "photonbench", "--smoke", "--out", str(out)],
        cwd=spec.ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]

    def no_constants(token):
        raise AssertionError(f"{token} in the record")

    return json.loads(out.read_text(), parse_constant=no_constants), \
        done.stdout


def test_smoke_emits_every_metric_with_its_unit(smoke_record):
    record, stdout = smoke_record
    bench = spec.load_benchmark()
    assert list(record["workloads"]) == list(spec.WORKLOADS)
    for workload, entry in record["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in bench[section]}
            got = {n: m["unit"] for n, m in entry[section].items()}
            assert got == declared, (workload, section)
            for name, metric in entry[section].items():
                assert isinstance(metric["value"], (int, float))
                assert f"{workload:<14}{name:<34}" in stdout
        assert entry["failed"] == 0 and entry["attempted"] > 0
        assert entry["elapsed_s"] > 0
        for name in ("wall_s", "full_kinst_per_s", "peak_rss_mb",
                     "setup_s"):
            assert entry["end_to_end"][name]["value"] > 0
        # a layer metric is non-zero exactly where it is measured
        for name in ("serve.hit_req_per_s", "parallel.inline_s",
                     "obs.full_sink_overhead_frac", "tracestore.read_s"):
            measured = workload in spec.applies_to(name)
            assert (entry["per_layer"][name]["value"] != 0) == measured
        # every host-time layer metric is a measurement on every workload
        for name, metric in entry["per_layer"].items():
            if metric["unit"] in ("s", "ms"):
                assert metric["value"] > 0, (workload, name)


def test_smoke_envelope(smoke_record):
    envelope = smoke_record[0]["envelope"]
    assert envelope["schema"] == SCHEMA_VERSION
    assert envelope["smoke"] is True and envelope["repeats"] == 1
    assert envelope["seed"] is None
    for key in ("git_sha", "python", "numpy", "cpu_count", "seconds"):
        assert key in envelope


def test_smoke_separates_the_workloads(smoke_record):
    layers = {w: e["per_layer"]
              for w, e in smoke_record[0]["workloads"].items()}
    assert layers["fig13_narrow"]["timing.scalar_inst_frac"]["value"] == 1.0
    assert layers["dnn_apps"]["core.mode_kernel"]["value"] > 0
    for workload in ("compute_wide", "fig13_narrow", "orchestrated"):
        assert layers[workload]["core.mode_kernel"]["value"] == 0
    assert layers["orchestrated"]["serve.dedup_executions"]["value"] == 1
    for entry in layers.values():
        assert entry["timing.golden_mismatches"]["value"] == 0


def test_smoke_record_compares_clean_against_itself(smoke_record):
    record = smoke_record[0]
    rows, violations = compare(record, record, same_commit=True)
    assert not violations
    assert all(row[5] == 1.0 for row in rows if row[3])
