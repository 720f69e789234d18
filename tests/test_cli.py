"""Command-line interface."""

import pytest

from repro.cli import APP_BUILDERS, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "relu" in out and "vgg16" in out and "photon" in out


def test_run_command(capsys):
    assert main(["run", "relu", "--size", "256",
                 "--methods", "photon"]) == 0
    out = capsys.readouterr().out
    assert "relu" in out
    assert "photon" in out
    assert "err_%" in out


def test_run_multiple_methods(capsys):
    assert main(["run", "relu", "--size", "256",
                 "--methods", "photon", "sieve"]) == 0
    out = capsys.readouterr().out
    assert "sieve" in out


def test_app_command_small(capsys, monkeypatch):
    # swap in a tiny app so the CLI path stays fast
    from repro.workloads import build_pagerank

    monkeypatch.setitem(APP_BUILDERS, "pr-1024",
                        lambda: build_pagerank(128, iterations=2))
    assert main(["app", "pr-1024", "--methods", "photon"]) == 0
    out = capsys.readouterr().out
    assert "pr-1024" in out
    assert "modes" in out


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "nope"])


def test_unknown_method_rejected(capsys):
    # same contract on run / app / sweep: exit 2, one WorkloadError line
    assert main(["run", "relu", "--methods", "magic"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "magic" in err and "WorkloadError" in err


def test_parser_structure():
    parser = build_parser()
    args = parser.parse_args(["run", "fir", "--size", "128",
                              "--gpu", "mi100"])
    assert args.workload == "fir"
    assert args.size == 128
    assert args.gpu == "mi100"
    assert args.deadline_seconds is None and args.max_events is None


def test_watchdog_flags_parse():
    parser = build_parser()
    args = parser.parse_args(["run", "relu", "--deadline-seconds", "30",
                              "--max-events", "1000"])
    assert args.deadline_seconds == 30.0
    assert args.max_events == 1000
    args = parser.parse_args(["app", "vgg16", "--max-events", "5"])
    assert args.max_events == 5


def test_repro_error_exits_2_with_one_line_message(capsys):
    # a negative deadline fails WatchdogConfig validation (ConfigError)
    code = main(["run", "relu", "--size", "64",
                 "--deadline-seconds", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # one line, no traceback
    assert "ConfigError" in err and "deadline_seconds" in err


def test_watchdog_trip_isolated_into_table(capsys):
    # a tiny event budget trips on the full baseline; the CLI still
    # renders the table (failed rows) and exits cleanly
    assert main(["run", "relu", "--size", "64",
                 "--max-events", "10"]) == 0
    out = capsys.readouterr().out
    assert "BudgetExceeded" in out
    assert "status" in out


# ------------------------------------------------ trace recording


def test_run_trace_then_export(capsys, tmp_path):
    import json

    trace = tmp_path / "run.jsonl"
    chrome = tmp_path / "run.json"
    assert main(["run", "relu", "--size", "256",
                 "--trace", str(trace), "--metrics"]) == 0
    captured = capsys.readouterr()
    assert "event engine.kernel" in captured.err
    assert f"trace written to {trace}" in captured.err
    lines = [json.loads(line) for line in
             trace.read_text().splitlines()]
    assert lines  # full-fidelity stream recorded
    assert {"engine.kernel", "engine.warp_retire",
            "engine.inst"} <= {r["kind"] for r in lines}

    assert main(["trace", "export", str(trace), str(chrome)]) == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.err
    doc = json.loads(chrome.read_text())
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert {"X", "i", "M"} <= phases


def test_trace_export_missing_input_one_line_error(capsys, tmp_path):
    assert main(["trace", "export", str(tmp_path / "nope.jsonl"),
                 "-"]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and err.count("\n") == 1


def _sim_columns(table):
    """Table rows minus the host-wall-clock columns (wall_s, speedup)."""
    rows = []
    for line in table.splitlines():
        cells = line.split()
        if len(cells) == 9 and not line.startswith(("workload", "---")):
            rows.append(cells[:5] + cells[7:])
    return rows


def test_run_trace_store_cold_then_warm(capsys, tmp_path):
    """--trace-store persists traces; a second run replays them warm
    with identical simulated timing and visible hit telemetry."""
    store = tmp_path / "traces"
    argv = ["run", "relu", "--size", "256", "--methods", "photon",
            "--trace-store", str(store), "--metrics"]

    assert main(argv) == 0
    cold = capsys.readouterr()
    assert list(store.glob("*.trc"))  # bundles flushed to disk
    assert "counter tracestore.store_hits: 0" in cold.err  # nothing warm
    assert "event tracestore.write" in cold.err
    assert "phase functional" in cold.err
    assert "phase timing" in cold.err
    assert "phase trace_io" in cold.err

    cold_misses = next(line for line in cold.err.splitlines()
                       if "tracestore.misses" in line)

    assert main(argv) == 0
    warm = capsys.readouterr()
    # the process-wide miss counter did not move: fully warm second run
    assert cold_misses in warm.err
    assert "counter tracestore.store_hits: 256" in warm.err
    # cycles/error columns identical; only host wall clock may differ
    assert _sim_columns(warm.out) == _sim_columns(cold.out)
    assert _sim_columns(cold.out)  # the comparison actually saw rows


def test_run_trace_store_max_mb_evicts(capsys, tmp_path):
    """--trace-store-max-mb bounds the store after the run's flush."""
    store = tmp_path / "traces"
    argv = ["run", "relu", "--size", "256", "--methods", "photon",
            "--trace-store", str(store)]
    assert main(argv) == 0
    capsys.readouterr()
    assert list(store.glob("*.trc"))

    assert main(argv + ["--trace-store-max-mb", "0", "--metrics"]) == 0
    evicting = capsys.readouterr()
    assert not list(store.glob("*.trc"))  # everything over the 0 budget
    assert "counter tracestore.evictions" in evicting.err


def test_run_without_trace_store_writes_nothing(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "relu", "--size", "256",
                 "--methods", "photon"]) == 0
    capsys.readouterr()
    assert not list(tmp_path.glob("**/*.trc"))
