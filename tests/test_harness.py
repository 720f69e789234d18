"""Evaluation harness: metrics, runners, tables."""

import pytest

from repro.baselines import PkaConfig
from repro.errors import SamplingError, WorkloadError
from repro.functional import Application
from repro.harness import (
    LEVEL_METHODS,
    comparison_table,
    format_table,
    run_methods_app,
    run_methods_kernel,
    sim_time_error,
    wall_speedup,
    workload_factory,
)

from conftest import make_vecadd


def test_metric_formulas():
    assert sim_time_error(100.0, 90.0) == pytest.approx(10.0)
    assert sim_time_error(100.0, 110.0) == pytest.approx(10.0)
    assert wall_speedup(10.0, 2.0) == pytest.approx(5.0)


def test_metric_validation():
    with pytest.raises(SamplingError):
        sim_time_error(0.0, 1.0)
    with pytest.raises(SamplingError):
        wall_speedup(1.0, 0.0)


def test_workload_factory_roundtrip():
    kernel = workload_factory("relu", 64)()
    assert kernel.name == "relu"
    assert kernel.n_warps == 64
    with pytest.raises(WorkloadError):
        workload_factory("nonexistent", 64)


def test_run_methods_kernel(tiny_gpu, fast_photon_config):
    rows = run_methods_kernel(
        lambda: make_vecadd(n_warps=32), "vecadd", 32,
        gpu=tiny_gpu, methods=("pka", "photon"),
        photon_config=fast_photon_config,
    )
    assert [r.method for r in rows] == ["full", "pka", "photon"]
    assert rows[0].error_pct == 0.0
    for row in rows:
        assert row.full_time == rows[0].full_time
        assert row.speedup > 0


def test_run_methods_kernel_level_ablation(tiny_gpu, fast_photon_config):
    rows = run_methods_kernel(
        lambda: make_vecadd(n_warps=32), "vecadd", 32,
        gpu=tiny_gpu, methods=tuple(sorted(LEVEL_METHODS)),
        photon_config=fast_photon_config,
    )
    assert len(rows) == 1 + len(LEVEL_METHODS)


def test_run_methods_rejects_unknown(tiny_gpu, fast_photon_config):
    with pytest.raises(WorkloadError):
        run_methods_kernel(
            lambda: make_vecadd(4), "vecadd", 4, gpu=tiny_gpu,
            methods=("warpspeed",), photon_config=fast_photon_config)


def test_run_methods_app(tiny_gpu, fast_photon_config):
    def factory():
        app = Application("twice")
        app.launch(make_vecadd(n_warps=16))
        app.launch(make_vecadd(n_warps=16))
        return app

    out = run_methods_app(factory, "twice", gpu=tiny_gpu,
                          methods=("photon", "pka"),
                          photon_config=fast_photon_config)
    assert out["full"].method == "full"
    assert out["photon"].n_kernels == 2
    assert out["pka"].n_kernels == 2
    assert len(out["rows"]) == 2


def test_format_table_alignment():
    text = format_table(("a", "bb"), [(1, 2.5), (10, 3.25)])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "2.50" in lines[2] and "3.25" in lines[3]


def test_comparison_table_renders(tiny_gpu, fast_photon_config):
    rows = run_methods_kernel(
        lambda: make_vecadd(n_warps=16), "vecadd", 16,
        gpu=tiny_gpu, methods=("photon",),
        photon_config=fast_photon_config)
    text = comparison_table(rows)
    assert "vecadd" in text and "photon" in text and "err_%" in text


def test_sweep_isolates_unbuildable_size(tiny_gpu, fast_photon_config):
    """A size whose kernel cannot be built yields one failed 'build' row
    and the remaining sizes still produce real data."""
    rows = [row for size in (0, 32) for row in run_methods_kernel(
        workload_factory("relu", size), "relu", size, gpu=tiny_gpu,
        methods=("photon",), photon_config=fast_photon_config)]
    assert rows[0].method == "build" and not rows[0].ok
    assert rows[0].error_class == "WorkloadError"
    good = [r for r in rows if r.size == 32]
    assert [r.method for r in good] == ["full", "photon"]
    assert all(r.ok for r in good)


def test_run_methods_app_isolates_failing_method(tiny_gpu,
                                                 fast_photon_config):
    from repro.reliability import FaultPlan, FaultSpec

    def factory():
        app = Application("twice")
        app.launch(make_vecadd(n_warps=16))
        return app

    plan = FaultPlan(FaultSpec(site="harness.method", kernel="pka"))
    out = run_methods_app(factory, "twice", gpu=tiny_gpu,
                          methods=("photon", "pka"),
                          photon_config=fast_photon_config,
                          fault_plan=plan)
    assert "photon" in out and "pka" not in out
    by_method = {r.method: r for r in out["rows"]}
    assert by_method["photon"].ok
    assert by_method["pka"].error_class == "InjectedFault"


def test_comparison_table_adds_status_column_on_failure(tiny_gpu,
                                                        fast_photon_config):
    from repro.reliability import FaultPlan, FaultSpec

    plan = FaultPlan(FaultSpec(site="harness.method", kernel="pka"))
    rows = run_methods_kernel(
        lambda: make_vecadd(n_warps=16), "vecadd", 16, gpu=tiny_gpu,
        methods=("pka", "photon"), photon_config=fast_photon_config,
        fault_plan=plan)
    text = comparison_table(rows)
    assert "status" in text and "InjectedFault" in text and "ok" in text
    # successful sweeps keep the original column set
    clean = run_methods_kernel(
        lambda: make_vecadd(n_warps=16), "vecadd", 16, gpu=tiny_gpu,
        methods=("photon",), photon_config=fast_photon_config)
    assert "status" not in comparison_table(clean)
