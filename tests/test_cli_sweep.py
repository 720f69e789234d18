"""The ``sweep`` subcommand: table output, JSON, validation, shards."""

import json

import pytest

from repro.cli import main


def test_sweep_renders_table_and_summary(capsys):
    assert main(["sweep", "relu", "--sizes", "256",
                 "--methods", "photon"]) == 0
    out = capsys.readouterr().out
    assert "relu" in out and "photon" in out and "full" in out
    assert "err_%" in out
    assert "tasks" in out  # telemetry summary line


def test_sweep_json_to_stdout_is_pure_json(capsys):
    assert main(["sweep", "relu", "--sizes", "256",
                 "--methods", "photon", "--json", "-"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)  # nothing but the JSON document
    assert len(data["rows"]) == 2  # full + photon
    assert data["telemetry"]["jobs"] == 1
    assert {r["method"] for r in data["rows"]} == {"full", "photon"}


def test_sweep_json_to_file(capsys, tmp_path):
    path = tmp_path / "sweep.json"
    assert main(["sweep", "relu", "--sizes", "256",
                 "--methods", "photon", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["replayed"] == 0 and len(data["rows"]) == 2
    assert "relu" in capsys.readouterr().out  # table still printed


def test_sweep_unknown_method_one_line_error(capsys):
    assert main(["sweep", "relu", "--methods", "phtoon"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # one line, no traceback
    assert "phtoon" in err and "WorkloadError" in err


def test_sweep_unknown_workload_one_line_error(capsys):
    assert main(["sweep", "nope", "--sizes", "256"]) == 2
    err = capsys.readouterr().err
    assert "nope" in err and err.count("\n") == 1


def test_sweep_bad_shard_rejected(capsys):
    assert main(["sweep", "relu", "--sizes", "256",
                 "--shard", "banana"]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert main(["sweep", "relu", "--sizes", "256",
                 "--shard", "3/2"]) == 2
    assert "shard" in capsys.readouterr().err


def test_sweep_shard_runs_subset(capsys):
    # 2 cells, 2 shards: each shard runs exactly one cell
    assert main(["sweep", "relu", "fir", "--sizes", "256",
                 "--methods", "photon", "--shard", "1/2",
                 "--json", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    workloads = {r["workload"] for r in data["rows"]}
    assert workloads == {"fir"}


def test_sweep_jobs_flag_parses_and_runs(capsys):
    # end-to-end through the process pool (2 tasks, 2 workers)
    assert main(["sweep", "relu", "--sizes", "256",
                 "--methods", "photon", "--jobs", "2",
                 "--json", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["telemetry"]["jobs"] == 2
    assert len(data["rows"]) == 2


# ------------------------------------------------ observability fields


def test_sweep_json_surfaces_tracestore_counters(capsys, tmp_path):
    """--json carries the per-sweep trace cache/store totals, so
    operators see warm-start effectiveness without scraping stderr."""
    store = tmp_path / "traces"
    args = ["sweep", "relu", "--sizes", "256", "--methods", "photon",
            "--json", "-", "--trace-store", str(store)]
    assert main(args) == 0
    cold = json.loads(capsys.readouterr().out)
    totals = cold["tracestore"]
    assert set(totals) == {"hits", "store_hits", "misses", "writes"}
    assert totals["misses"] > 0          # nothing cached yet
    assert totals["writes"] > 0          # traces persisted for next run

    assert main(args) == 0               # warm: replay from the store
    warm = json.loads(capsys.readouterr().out)
    assert warm["tracestore"]["store_hits"] > 0
    assert warm["tracestore"]["misses"] == 0


def test_sweep_json_carries_obs_summary(capsys):
    assert main(["sweep", "relu", "--sizes", "256",
                 "--methods", "photon", "--json", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    obs = data["obs"]
    # one event per executed task, mirrored from the telemetry
    assert obs["events"]["parallel.task"] == 2
    assert obs["metrics"]["counters"]["sweep.tasks"] >= 2
    assert "trace" not in obs  # only present when --trace was given


def test_sweep_metrics_flag_keeps_stdout_pure(capsys):
    assert main(["sweep", "relu", "--sizes", "256", "--methods",
                 "photon", "--json", "-", "--metrics"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout is still nothing but the JSON
    assert "event parallel.task: 2" in captured.err


def _det_rows(record):
    """Rows minus the host-wall fields the contract allows to differ."""
    varying = ("full_wall", "sampled_wall", "speedup")
    return [{k: v for k, v in row.items() if k not in varying}
            for row in record["rows"]]


def test_tracing_does_not_perturb_results(capsys, tmp_path):
    """--trace observes; every simulated quantity stays byte-identical."""
    plain_path = tmp_path / "plain.json"
    traced_path = tmp_path / "traced.json"
    trace = tmp_path / "sweep.jsonl"
    assert main(["sweep", "relu", "--sizes", "256", "--methods",
                 "photon", "--json", str(plain_path)]) == 0
    assert main(["sweep", "relu", "--sizes", "256", "--methods",
                 "photon", "--json", str(traced_path),
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    plain = json.loads(plain_path.read_text())
    traced = json.loads(traced_path.read_text())
    assert _det_rows(plain) == _det_rows(traced)
    assert traced["obs"]["trace"] == str(trace)
    assert trace.read_text().strip()  # the trace itself is non-empty
