"""Failure injection: the stack must fail loudly and precisely.

Every failure mode a downstream user can trigger — bad grids, runaway
kernels, out-of-bounds traffic, corrupted persisted state, misbehaving
listeners — must raise a typed ReproError (never a bare KeyError or a
silent wrong answer).  The SimGuard section below injects deterministic
faults with a FaultPlan and proves each edge of the degradation chain
``bb → warp → kernel → full``.
"""

import math

import numpy as np
import pytest

from repro.core import AnalysisStore, Photon, PhotonConfig
from repro.errors import (
    BudgetExceeded,
    ConfigError,
    ExecutionError,
    InjectedFault,
    MemoryFault,
    ReproError,
    SimulationStalled,
    WorkloadError,
)
from repro.functional import FunctionalExecutor, GlobalMemory, Kernel
from repro.harness import run_methods_kernel
from repro.isa import KernelBuilder, MemAddr, s, v
from repro.obs import ENGINE_BB, ENGINE_WARP_RETIRE, EventBus
from repro.reliability import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    WatchdogConfig,
)
from repro.timing import DetailedEngine, WarpProbe

from conftest import make_loop_kernel, make_vecadd


def test_all_errors_are_repro_errors():
    for exc in (ConfigError, ExecutionError, MemoryFault, WorkloadError):
        assert issubclass(exc, ReproError)


def test_kernel_with_zero_warps():
    mem = GlobalMemory(64)
    b = KernelBuilder("t")
    b.s_endpgm()
    with pytest.raises(WorkloadError):
        Kernel(program=b.build(), n_warps=0, wg_size=1, memory=mem)


def test_kernel_with_bad_wg_size():
    mem = GlobalMemory(64)
    b = KernelBuilder("t")
    b.s_endpgm()
    with pytest.raises(WorkloadError):
        Kernel(program=b.build(), n_warps=4, wg_size=0, memory=mem)


def test_out_of_bounds_load_faults_functionally():
    mem = GlobalMemory(128)
    mem.alloc("small", 8)
    b = KernelBuilder("oob")
    b.v_lane(v(0))
    b.v_mul(v(0), v(0), 1000.0)  # addresses way past the buffer
    b.v_load(v(1), MemAddr(base=s(4), index=v(0)))
    b.s_endpgm()
    kernel = Kernel(program=b.build(), n_warps=1, wg_size=1, memory=mem,
                    args=lambda w: {4: 0})
    with pytest.raises(MemoryFault):
        FunctionalExecutor(kernel).run_warp_full(0)


def test_oob_fault_propagates_through_engine(tiny_gpu):
    mem = GlobalMemory(128)
    mem.alloc("small", 8)
    b = KernelBuilder("oob")
    b.s_load(s(5), MemAddr(base=s(4), offset=10_000))
    b.s_endpgm()
    kernel = Kernel(program=b.build(), n_warps=2, wg_size=1, memory=mem,
                    args=lambda w: {4: 0})
    with pytest.raises(MemoryFault):
        DetailedEngine(kernel, tiny_gpu).run()


def test_runaway_kernel_capped_by_max_steps():
    mem = GlobalMemory(64)
    b = KernelBuilder("spin")
    b.label("spin")
    b.s_branch("spin")
    b.s_endpgm()
    kernel = Kernel(program=b.build(), n_warps=1, wg_size=1, memory=mem,
                    meta={"max_steps": 100})
    with pytest.raises(ExecutionError):
        FunctionalExecutor(kernel).run_warp_control(0)


def test_photon_survives_workload_edge_cases(tiny_gpu,
                                             fast_photon_config):
    """Kernels at every degenerate grid shape simulate cleanly."""
    photon = Photon(tiny_gpu, fast_photon_config)
    for n_warps, wg_size in ((1, 1), (2, 2), (3, 2), (5, 4)):
        kernel = make_vecadd(n_warps=n_warps, wg_size=wg_size)
        result = photon.simulate_kernel(kernel)
        assert result.sim_time > 0


def test_partial_final_workgroup(tiny_gpu):
    """n_warps not divisible by wg_size: the ragged tail still runs,
    including its (smaller) barrier group."""
    from conftest import make_barrier_kernel

    kernel = make_barrier_kernel(n_warps=7, wg_size=4)
    result = DetailedEngine(kernel, tiny_gpu).run()
    assert len(result.warp_times) == 7


def test_listener_exceptions_propagate(tiny_gpu):
    """A buggy methodology handler must not be silently swallowed —
    and must not leave itself (or its neighbours) on the bus."""
    def exploding(warp_id, bb_pc, start, end):
        raise RuntimeError("handler bug")

    kernel = make_vecadd(n_warps=4)
    engine = DetailedEngine(kernel, tiny_gpu, bus=EventBus())
    probe = WarpProbe()
    probe.watch(engine)
    engine.subscribe(ENGINE_BB, exploding)
    with pytest.raises(RuntimeError, match="handler bug"):
        engine.run()
    assert not engine.bus.channel(ENGINE_BB).active
    assert not engine.bus.channel(ENGINE_WARP_RETIRE).active


def test_photon_config_frozen():
    config = PhotonConfig()
    with pytest.raises(Exception):
        config.delta = 0.5  # frozen dataclass


def test_args_callback_returning_garbage(tiny_gpu):
    kernel = make_vecadd(n_warps=2)
    kernel.args = lambda w: {99: 1.0}  # register index out of range
    with pytest.raises(ExecutionError):
        FunctionalExecutor(kernel).run_warp_full(0)


def test_memory_arena_isolation():
    """Two kernels on separate arenas never alias buffers."""
    a = make_vecadd(n_warps=2)
    b = make_vecadd(n_warps=2)
    FunctionalExecutor(a).run_warp_full(0)
    assert not b.memory.view("z").any()  # untouched


# ---------------------------------------------------------------------------
# SimGuard: deterministic fault injection and graceful degradation
# ---------------------------------------------------------------------------

def _irregular_kernel():
    """No dominant warp type: the BB detector wins the switch race."""
    return make_loop_kernel(n_warps=500, trips_of=lambda w: 1 + w % 7)


def _uniform_kernel():
    """One warp type: the warp detector wins the switch race."""
    return make_loop_kernel(n_warps=700, trips_of=lambda w: 6)


def _edges(result):
    return [(e.from_level, e.to_level) for e in result.errors]


def test_bb_fault_degrades_to_warp(tiny_gpu, fast_photon_config):
    plan = FaultPlan(FaultSpec(site="level.bb"))
    photon = Photon(tiny_gpu, fast_photon_config, fault_plan=plan)
    result = photon.simulate_kernel(_irregular_kernel())
    assert ("bb", "warp") in _edges(result)
    assert result.degraded
    assert result.sim_time > 0
    assert ("level.bb", "InjectedFault", "loopy") in plan.fired


def test_warp_fault_degrades_to_kernel(tiny_gpu, fast_photon_config):
    plan = FaultPlan(FaultSpec(site="level.warp"))
    photon = Photon(tiny_gpu, fast_photon_config, fault_plan=plan)
    result = photon.simulate_kernel(_uniform_kernel())
    assert _edges(result) == [("warp", "kernel")]
    assert result.sim_time > 0


def test_kernel_fault_degrades_to_full(tiny_gpu, fast_photon_config):
    # fire on the second pass through kernel-sampling: the first launch
    # populates the KernelDB, the second would normally hit it
    plan = FaultPlan(FaultSpec(site="level.kernel", at=2))
    photon = Photon(tiny_gpu, fast_photon_config, fault_plan=plan)
    first = photon.simulate_kernel(make_vecadd(n_warps=32))
    assert not first.degraded
    second = photon.simulate_kernel(make_vecadd(n_warps=32))
    assert _edges(second) == [("kernel", "full")]
    assert second.mode == "full"
    assert second.sim_time > 0


def test_cascade_ends_in_full_detailed(tiny_gpu, fast_photon_config):
    """Faults at every reachable level walk the whole chain to full."""
    plan = FaultPlan(FaultSpec(site="level.warp"),
                     FaultSpec(site="level.kernel", at=2))
    photon = Photon(tiny_gpu, fast_photon_config, fault_plan=plan)
    result = photon.simulate_kernel(_uniform_kernel())
    assert _edges(result) == [("warp", "kernel"), ("kernel", "full")]
    assert result.mode == "full"
    assert result.meta["degraded_attempts"] == 3
    assert result.sim_time > 0


def test_detector_misfire_is_recovered(tiny_gpu, fast_photon_config):
    plan = FaultPlan(FaultSpec(site="detector.warp"))
    photon = Photon(tiny_gpu, fast_photon_config, fault_plan=plan)
    result = photon.simulate_kernel(_uniform_kernel())
    assert _edges(result) == [("warp", "kernel")]
    assert plan.fired[0][0] == "detector.warp"


def test_bb_detector_misfire_is_recovered(tiny_gpu, fast_photon_config):
    plan = FaultPlan(FaultSpec(site="detector.bb"))
    photon = Photon(tiny_gpu, fast_photon_config, fault_plan=plan)
    result = photon.simulate_kernel(_irregular_kernel())
    assert ("bb", "warp") in _edges(result)


def test_corrupted_store_entry_is_quarantined(tiny_gpu,
                                              fast_photon_config):
    store = AnalysisStore()
    Photon(tiny_gpu, fast_photon_config,
           analysis_store=store).simulate_kernel(make_vecadd(n_warps=16))
    assert len(store) == 1 and store.quarantined == 0

    plan = FaultPlan(FaultSpec(site="analysis.store"))
    photon = Photon(tiny_gpu, fast_photon_config, analysis_store=store,
                    fault_plan=plan)
    result = photon.simulate_kernel(make_vecadd(n_warps=16))
    assert store.quarantined == 1
    assert ("store", "analysis") in _edges(result)
    assert len(store) == 1  # re-analysed and re-cached
    assert result.sim_time > 0


def test_unrecoverable_fault_propagates(tiny_gpu, fast_photon_config):
    """A BudgetExceeded inside a level is not ladder-recoverable."""
    plan = FaultPlan(FaultSpec(site="level.warp", error=BudgetExceeded))
    photon = Photon(tiny_gpu, fast_photon_config, fault_plan=plan)
    with pytest.raises(BudgetExceeded):
        photon.simulate_kernel(_uniform_kernel())


def test_executor_memory_fault_site():
    plan = FaultPlan(FaultSpec(site="executor.memory"))
    executor = FunctionalExecutor(make_vecadd(n_warps=2), fault_plan=plan)
    with pytest.raises(InjectedFault):
        executor.run_warp_full(0)


# -- watchdog ----------------------------------------------------------------

def _spin_kernel():
    mem = GlobalMemory(64)
    b = KernelBuilder("spin")
    b.label("spin")
    b.s_branch("spin")
    b.s_endpgm()
    return Kernel(program=b.build(), n_warps=1, wg_size=1, memory=mem,
                  meta={"max_steps": 10**9})


def test_infinite_kernel_raises_simulation_stalled():
    """The satellite acceptance case: spin loop → typed error, no hang."""
    wd = WatchdogConfig(stall_instructions=64)
    executor = FunctionalExecutor(_spin_kernel(), watchdog=wd)
    with pytest.raises(SimulationStalled):
        executor.run_warp_control(0)
    with pytest.raises(SimulationStalled):
        FunctionalExecutor(_spin_kernel(), watchdog=wd).run_warp_full(0)


def test_instruction_budget_raises_budget_exceeded():
    wd = WatchdogConfig(max_instructions=50)
    with pytest.raises(BudgetExceeded):
        FunctionalExecutor(_spin_kernel(), watchdog=wd).run_warp_control(0)


def test_engine_event_budget(tiny_gpu):
    wd = WatchdogConfig(max_events=10)
    with pytest.raises(BudgetExceeded):
        DetailedEngine(make_vecadd(n_warps=16), tiny_gpu,
                       watchdog=wd).run()


def test_wall_deadline_trips(tiny_gpu):
    wd = WatchdogConfig(deadline_seconds=1e-4, check_interval=1)
    with pytest.raises(BudgetExceeded):
        FunctionalExecutor(_spin_kernel(), watchdog=wd).run_warp_control(0)


def test_watchdog_does_not_disturb_results(tiny_gpu, fast_photon_config):
    """Generous budgets must leave the simulation bit-identical."""
    baseline = Photon(tiny_gpu, fast_photon_config).simulate_kernel(
        make_vecadd(n_warps=32))
    wd = WatchdogConfig(max_events=10**9, max_instructions=10**9,
                        stall_instructions=10**6)
    guarded = Photon(tiny_gpu, fast_photon_config,
                     watchdog=wd).simulate_kernel(make_vecadd(n_warps=32))
    assert guarded.sim_time == baseline.sim_time
    assert guarded.mode == baseline.mode


def test_watchdog_trip_in_photon_propagates(tiny_gpu, fast_photon_config):
    """Budget trips are not absorbed by the degradation ladder."""
    wd = WatchdogConfig(max_events=10)
    photon = Photon(tiny_gpu, fast_photon_config, watchdog=wd)
    with pytest.raises(BudgetExceeded):
        photon.simulate_kernel(make_vecadd(n_warps=32))


# -- harness isolation -------------------------------------------------------

def test_harness_isolates_failing_method(tiny_gpu, fast_photon_config):
    plan = FaultPlan(FaultSpec(site="harness.method", kernel="pka"))
    rows = run_methods_kernel(
        lambda: make_vecadd(n_warps=16), "vecadd", 16, gpu=tiny_gpu,
        methods=("pka", "photon"), photon_config=fast_photon_config,
        fault_plan=plan)
    assert [r.method for r in rows] == ["full", "pka", "photon"]
    failed = rows[1]
    assert failed.error_class == "InjectedFault" and not failed.ok
    assert math.isnan(failed.error_pct) and math.isnan(failed.speedup)
    assert rows[0].ok and rows[2].ok


def test_harness_retry_recovers_transient_fault(tiny_gpu,
                                                fast_photon_config):
    plan = FaultPlan(FaultSpec(site="harness.method", kernel="photon",
                               error=BudgetExceeded))
    rows = run_methods_kernel(
        lambda: make_vecadd(n_warps=16), "vecadd", 16, gpu=tiny_gpu,
        methods=("photon",), photon_config=fast_photon_config,
        fault_plan=plan, retry=RetryPolicy(max_attempts=2))
    assert all(row.ok for row in rows)
    assert len(plan.fired) == 1  # first attempt fired, retry passed


def test_harness_full_baseline_failure_fails_all_rows(tiny_gpu,
                                                      fast_photon_config):
    rows = run_methods_kernel(
        lambda: make_vecadd(n_warps=16), "vecadd", 16, gpu=tiny_gpu,
        methods=("photon",), photon_config=fast_photon_config,
        watchdog=WatchdogConfig(max_events=10))
    assert [r.method for r in rows] == ["full", "photon"]
    assert all(r.error_class == "BudgetExceeded" for r in rows)


def test_harness_isolate_off_propagates(tiny_gpu, fast_photon_config):
    plan = FaultPlan(FaultSpec(site="harness.method", kernel="photon"))
    with pytest.raises(InjectedFault):
        run_methods_kernel(
            lambda: make_vecadd(n_warps=16), "vecadd", 16, gpu=tiny_gpu,
            methods=("photon",), photon_config=fast_photon_config,
            fault_plan=plan, isolate=False)
