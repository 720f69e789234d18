"""One evaluation path: the method table, its one validator, the one
evaluate step and the one row builder behind ``repro run``, ``repro
app``, sweeps, fleets and the server."""

import pytest

from repro.cli import build_parser, main
from repro.errors import BudgetExceeded, WorkloadError
from repro.functional import Application
from repro.harness.defaults import EVAL_PHOTON, EVAL_R9NANO
from repro.harness.runner import (
    FULL_METHOD,
    METHODS,
    all_methods,
    run_methods_app,
    simulate_app_method,
    simulate_method,
    workload_factory,
)
from repro.parallel import SweepTask, plan_sweep, run_task
from repro.reliability import FaultPlan, FaultSpec
from repro.reliability.watchdog import WatchdogConfig
from repro.serve.protocol import ProtocolError, normalize_request
from repro.timing import TraceCache
from repro.timing.simulator import AppResult
from repro.tracestore import TraceStore

from conftest import make_loop_kernel, make_vecadd


def _relu():
    return workload_factory("relu", 256)()


# ------------------------------------------- budgets reach every method


@pytest.mark.parametrize(
    "method", ["pka", "tbpoint", "sieve", "gtpin", "photon", FULL_METHOD])
def test_event_budget_bounds_every_methodology(method):
    """The engine of every methodology is handed the watchdog."""
    with pytest.raises(BudgetExceeded):
        simulate_method(_relu(), method, EVAL_R9NANO, EVAL_PHOTON,
                        watchdog=WatchdogConfig(max_events=10))


@pytest.mark.parametrize("method", ["pka", "sieve", "gtpin"])
def test_instruction_budget_bounds_the_profiling_pass(method):
    """relu runs 10 instructions a warp: a per-warp budget of 5 trips
    the up-front CONTROL profile these baselines charge themselves."""
    with pytest.raises(BudgetExceeded, match="executor"):
        simulate_method(_relu(), method, EVAL_R9NANO, EVAL_PHOTON,
                        watchdog=WatchdogConfig(max_instructions=5))


# ----------------------------------- the trace cache reaches every method


@pytest.mark.parametrize("method", list(METHODS))
def test_trace_cache_feeds_every_engine_of_every_method(
        method, tmp_path, tiny_gpu, fast_photon_config):
    """A store warmed through ``simulate_method(trace_cache=)`` serves a
    later run of the same method entirely: nothing is emulated again,
    whichever engines the methodology starts and wherever they stop,
    and the result is the cache-less run's, bitwise."""
    def run(**kwargs):
        # 700 warps x 6 trips: Photon, PKA and TBPoint stop early
        kernel = make_loop_kernel(n_warps=700, trips_of=lambda w: 6)
        result = simulate_method(kernel, method, tiny_gpu,
                                 fast_photon_config, **kwargs)
        return (result.sim_time, result.n_insts, result.detail_insts,
                result.mode)

    reference = run()
    store = TraceStore(tmp_path)
    warmer = TraceCache(backing_store=store)
    assert run(trace_cache=warmer) == reference
    assert warmer.misses > 0 and warmer.flush() == warmer.misses
    replayer = TraceCache(backing_store=store)
    assert run(trace_cache=replayer) == reference
    assert replayer.misses == 0
    assert replayer.store_hits == warmer.misses


def test_task_budget_bounds_a_baseline_method():
    out = run_task(SweepTask(index=0, workload="relu", size=256,
                             method="pka",
                             watchdog=WatchdogConfig(max_events=10)))
    assert (out.status, out.stage) == ("error", "run")
    assert out.error_class == "BudgetExceeded"


# ------------------------------------- one method table, one validator


def test_table_is_full_plus_the_sampled_methods():
    assert list(METHODS) == [FULL_METHOD] + all_methods()
    assert simulate_app_method is simulate_method


def test_readme_lists_the_method_table():
    from pathlib import Path
    import re

    readme = (Path(__file__).parent.parent / "README.md").read_text()
    paragraph = readme.split("\nMethods (`--methods`", 1)[1].split("\n\n")[0]
    listed = paragraph.split("):", 1)[1]
    assert re.findall(r"`([^`]+)`", listed) == all_methods()


def _parse(argv):
    return build_parser().parse_args(argv)


#: everywhere a list of sampled-method names enters the system
_ACCEPTORS = {
    "run-parser": lambda m: _parse(["run", "relu", "--methods", m]),
    "app-parser": lambda m: _parse(["app", "pr-1024", "--methods", m]),
    "sweep-parser": lambda m: _parse(["sweep", "relu", "--methods", m]),
    "plan_sweep": lambda m: plan_sweep(["relu"], sizes=(64,),
                                       methods=(m,)),
    "serve-run": lambda m: normalize_request(
        {"op": "run", "workload": "relu", "method": m}),
    "serve-sweep": lambda m: normalize_request(
        {"op": "sweep", "workloads": ["relu"], "methods": [m]}),
    "simulate_method": lambda m: simulate_method(
        make_vecadd(4), m, EVAL_R9NANO, EVAL_PHOTON),
}


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("where", list(_ACCEPTORS))
def test_every_entry_point_knows_every_method(where, method):
    """A name added to (or dropped from) one list only fails here.
    ``full`` is a task's method — a serve ``run`` or ``simulate_method``
    may name it — but never something to compare against full."""
    accept = _ACCEPTORS[where]
    if method == FULL_METHOD and where not in ("serve-run",
                                               "simulate_method"):
        with pytest.raises((WorkloadError, ProtocolError),
                           match="unknown method 'full'"):
            accept(method)
    else:
        accept(method)
    with pytest.raises((WorkloadError, ProtocolError),
                       match="unknown method 'phton'"):
        accept("phton")


@pytest.mark.parametrize("argv", [
    ["run", "relu"], ["app", "pr-1024"], ["sweep", "relu"]])
def test_method_typo_is_one_line_exit_2(argv, capsys):
    assert main(argv + ["--methods", "phton"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "WorkloadError" in err and "phton" in err


def test_every_gpu_preset_parses_on_every_subcommand():
    for argv in (["run", "relu"], ["app", "pr-1024"], ["sweep", "relu"]):
        assert _parse(argv + ["--gpu", "full-r9nano"]).gpu == "full-r9nano"


# ----------------------------------------- the dict PhotonBench reads


def _twice():
    app = Application("twice")
    app.launch(make_vecadd(n_warps=16))
    app.launch(make_vecadd(n_warps=16))
    return app


def test_run_methods_app_dict(tiny_gpu, fast_photon_config):
    plan = FaultPlan(FaultSpec(site="harness.method", kernel="pka"))
    out = run_methods_app(_twice, "twice", gpu=tiny_gpu,
                          methods=("photon", "pka", "sieve"),
                          photon_config=fast_photon_config,
                          fault_plan=plan)
    assert list(out) == ["rows", "full", "photon", "sieve"]  # no "pka"
    assert all(isinstance(out[m], AppResult)
               for m in ("full", "photon", "sieve"))
    assert [out[m].method for m in ("full", "photon", "sieve")] \
        == ["full", "photon", "sieve"]
    rows = out["rows"]
    assert [(r.method, r.ok) for r in rows] == [
        ("photon", True), ("pka", False), ("sieve", True)]
    assert {r.size for r in rows} == {out["full"].n_insts}
    assert rows[1].full_time == out["full"].sim_time


def test_run_methods_app_without_a_baseline(tiny_gpu, fast_photon_config):
    out = run_methods_app(_twice, "twice", gpu=tiny_gpu,
                          methods=("photon",),
                          photon_config=fast_photon_config,
                          watchdog=WatchdogConfig(max_events=10))
    assert list(out) == ["rows"]
    assert [(r.method, r.size, r.error_class) for r in out["rows"]] == [
        ("full", 0, "BudgetExceeded"), ("photon", 0, "BudgetExceeded")]
