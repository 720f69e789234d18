"""A cell's evaluations run side by side in forked children.

The reference for every check is the in-process path, which runs where
``os.fork`` does not exist: removing ``os.fork`` selects it.
"""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import forked
from repro.harness.forked import run_forked
from repro.obs import scoped_bus

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _cli(argv, capsys, inline, monkeypatch):
    """``main(argv)`` on a fresh bus; (stdout, stderr)."""
    with monkeypatch.context() as patch:
        if inline:
            patch.delattr(os, "fork")
        with scoped_bus():
            assert main(argv) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


def _sim_rows(table):
    """Table rows minus the host-wall-clock columns (wall_s, speedup)."""
    return [line.split()[:5] + line.split()[7:]
            for line in table.splitlines()[2:]]


def _accounting(err):
    """The ``event`` and ``counter`` lines of a ``--metrics`` summary."""
    return [line for line in err.splitlines()
            if line.startswith(("event ", "counter "))]


def _events(path):
    """A JSONL trace without its host wall-clock fields."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        record.pop("wall", None)
    return records


def test_child_events_and_metrics_reach_the_caller(capsys, tmp_path,
                                                   monkeypatch):
    """``--trace --metrics`` writes the in-process event sequence (seq
    numbers included) and prints the same counters."""
    runs = {}
    for inline in (True, False):
        trace = tmp_path / f"inline-{inline}.jsonl"
        out, err = _cli(["run", "relu", "--size", "256", "--methods", "pka",
                         "photon", "--trace", str(trace), "--metrics"],
                        capsys, inline, monkeypatch)
        runs[inline] = (_sim_rows(out), _accounting(err), _events(trace))
    assert runs[False] == runs[True]
    rows, accounting, events = runs[False]
    assert len(rows) == 3 and "counter engine.runs: 3" in accounting
    assert {"engine.kernel", "engine.inst", "detector.elided"} <= {
        e["kind"] for e in events}


def test_failed_baseline_stops_the_methods(capsys, tmp_path, monkeypatch):
    """Full detail trips the watchdog: the methods' children are killed
    or never started, so none of their events or counters is seen."""
    runs = {}
    for inline in (True, False):
        trace = tmp_path / f"inline-{inline}.jsonl"
        out, err = _cli(["run", "relu", "--size", "256", "--methods", "pka",
                         "photon", "--max-events", "10", "--trace",
                         str(trace), "--metrics"],
                        capsys, inline, monkeypatch)
        runs[inline] = (_sim_rows(out), _accounting(err), _events(trace))
    assert runs[False] == runs[True]
    rows, accounting, events = runs[False]
    assert [row[-1] for row in rows] == ["BudgetExceeded"] * 3
    assert "counter watchdog.trips: 1" in accounting
    assert [e["kind"] for e in events].count("reliability.watchdog") == 1
    # with a trace store (in process) Photon keeps no analysis there
    store = tmp_path / "store"
    _, err = _cli(["run", "relu", "--size", "256", "--methods", "pka",
                   "photon", "--max-events", "10", "--trace-store",
                   str(store), "--metrics"], capsys, False, monkeypatch)
    assert "counter watchdog.trips: 1" in _accounting(err)
    assert [path.suffix for path in store.iterdir()] == [".trc"]


def _store_files(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_trace_store_runs_in_process(capsys, tmp_path, monkeypatch):
    """Cold then warm ``--trace-store`` runs: the same table, the same
    counters and byte-identical store contents with and without
    ``os.fork`` — a trace cache keeps a cell's evaluations here."""
    runs = {}
    for inline in (True, False):
        store = tmp_path / f"store-{inline}"
        argv = ["run", "relu", "--size", "256", "--methods", "pka",
                "photon", "--trace-store", str(store), "--metrics"]
        cold = _cli(argv, capsys, inline, monkeypatch)
        warm = _cli(argv, capsys, inline, monkeypatch)
        runs[inline] = [(_sim_rows(out), _accounting(err))
                        for out, err in (cold, warm)]
        runs[inline].append(_store_files(store))
    assert runs[False] == runs[True]
    (_, cold), (_, warm), files = runs[False]
    assert "counter tracestore.misses: 256" in cold
    assert "counter tracestore.store_hits: 256" in warm
    assert any(name.endswith(".trc") for name in files)
    assert any(name.endswith(".ana") for name in files)


# --------------------------------------------------- failures and leftovers

_SCENARIO = textwrap.dedent("""
    import os, signal, sys, time
    from repro.harness import runner
    from repro.harness.runner import run_methods_kernel, workload_factory

    scenario = sys.argv[1]

    def photon_raises(*args, **kwargs):
        raise RuntimeError("photon broke")

    def photon_killed(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    def photon_hangs(*args, **kwargs):
        time.sleep(120)

    def interrupt(*args):
        raise KeyboardInterrupt

    runner.METHODS["photon"] = {"raises": photon_raises,
                                "killed": photon_killed,
                                "interrupted": photon_hangs}[scenario]
    if scenario == "interrupted":
        signal.signal(signal.SIGALRM, interrupt)
        signal.alarm(2)
    started = time.monotonic()
    try:
        rows = run_methods_kernel(workload_factory("relu", 64), "relu", 64,
                                  methods=("pka", "photon"))
    except BaseException as exc:
        print("raised", type(exc).__name__, exc)
        print("cause", type(exc.__cause__).__name__, exc.__cause__)
    else:
        for row in rows:
            print("row", row.method, row.error_class or "ok", row.error)
    print("seconds", time.monotonic() - started)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no children left")
""")


def _scenario(name):
    """Run ``_SCENARIO`` in a fresh interpreter (so no other test's
    children are around); its stdout lines."""
    proc = subprocess.run(
        [sys.executable, "-c", _SCENARIO, name], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_child_exception_is_raised_with_its_traceback():
    lines = _scenario("raises")
    assert lines[0] == "raised RuntimeError photon broke"
    # the cause is the child's traceback text, down to the raising frame
    cause = "\n".join(lines[1:])
    assert cause.startswith("cause ChildTraceback")
    assert "in photon_raises\nRuntimeError: photon broke" in cause
    assert lines[-1] == "no children left"


def test_child_killed_by_a_signal_is_a_failed_row():
    lines = _scenario("killed")
    assert lines[:3] == [
        "row full ok ", "row pka ok ",
        "row photon ChildProcessError photon: evaluation process killed "
        "by signal 9 (SIGKILL)"]
    assert lines[-1] == "no children left"


def test_interrupt_kills_and_reaps_every_child():
    lines = _scenario("interrupted")
    assert lines[0] == "raised KeyboardInterrupt "
    assert float(lines[-2].split()[1]) < 60   # nobody waited for the sleeper
    assert lines[-1] == "no children left"


# ------------------------------------------------------------ the window


@pytest.fixture
def slots(monkeypatch):
    """Set how many children :func:`run_forked` runs at once."""
    def set_slots(n):
        monkeypatch.setattr(forked, "cpu_slots", lambda: n)
    return set_slots


def _rendezvous(mine: Path, theirs: Path):
    """A call that cannot return unless the other one runs at the same
    time."""
    def call():
        mine.touch()
        deadline = time.monotonic() + 20
        while not theirs.exists():
            if time.monotonic() > deadline:
                return "alone"
            time.sleep(0.01)
        return "together"
    return call


def test_window_runs_children_at_the_same_time(tmp_path, slots):
    slots(2)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_forked([_rendezvous(a, b), _rendezvous(b, a)]) == [
        "together", "together"]


def test_window_of_one_runs_children_in_order(tmp_path, slots):
    slots(1)
    log = tmp_path / "log"

    def call(n):
        def run():
            with open(log, "a") as handle:
                handle.write(f"start {n}\n")
            time.sleep(0.05)
            with open(log, "a") as handle:
                handle.write(f"end {n}\n")
            return os.getpid()
        return run

    pids = run_forked([call(n) for n in range(3)])
    assert len(set(pids)) == 3 and os.getpid() not in pids
    assert log.read_text().split("\n")[:-1] == [
        f"{what} {n}" for n in range(3) for what in ("start", "end")]


# ------------------------------------------- what ends the sequence early


def _raises(exc, after=0.0):
    def call():
        time.sleep(after)
        raise exc
    return call


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_first_raise_in_call_order_wins(slots):
    """The later call raises first; the earlier one's exception is the
    one raised, as in a loop over the calls."""
    slots(2)
    with pytest.raises(KeyError, match="first"):
        run_forked([_raises(KeyError("first"), after=0.3),
                    _raises(ValueError("second"))])
    _no_children_left()


def test_a_raise_kills_the_calls_after_it(slots):
    slots(2)
    started = time.monotonic()
    with pytest.raises(ValueError):
        run_forked([_raises(ValueError("stop")), lambda: time.sleep(60),
                    lambda: time.sleep(60)])
    assert time.monotonic() - started < 30
    _no_children_left()


def test_an_ending_outcome_kills_the_calls_after_it(slots):
    slots(2)
    started = time.monotonic()
    results = run_forked([lambda: "stop", lambda: time.sleep(60),
                          lambda: "never"],
                         lambda index, outcome: outcome == "stop")
    assert results == ["stop", None, None]
    assert time.monotonic() - started < 30
    _no_children_left()
