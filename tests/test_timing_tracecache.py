"""Trace cache (trace-driven front end)."""

import pytest

import repro.timing.tracecache
from repro.timing import DetailedEngine
from repro.timing.tracecache import TraceCache

from conftest import make_loop_kernel, make_vecadd


def test_cache_hits_on_second_run(tiny_gpu):
    cache = TraceCache()
    kernel = make_vecadd(n_warps=8)
    first = DetailedEngine(kernel, tiny_gpu,
                           trace_provider=cache.provider(kernel)).run()
    assert cache.misses == 8 and cache.hits == 0
    # the key covers the memory image, which the run's stores changed:
    # a replay launches a freshly built kernel, as a store-backed one does
    kernel = make_vecadd(n_warps=8)
    second = DetailedEngine(kernel, tiny_gpu,
                            trace_provider=cache.provider(kernel)).run()
    assert cache.hits == 8
    assert second.end_time == first.end_time
    assert second.n_insts == first.n_insts


def test_cache_distinguishes_kernels(tiny_gpu):
    cache = TraceCache()
    a = make_vecadd(n_warps=4)
    b = make_loop_kernel(n_warps=4, trips_of=lambda w: 3)
    DetailedEngine(a, tiny_gpu, trace_provider=cache.provider(a)).run()
    DetailedEngine(b, tiny_gpu, trace_provider=cache.provider(b)).run()
    assert cache.misses == 8  # no false sharing across programs
    assert len(cache) == 8


def test_cache_shared_across_gpu_configs(tiny_gpu):
    """Traces are microarchitecture independent: one cache serves two
    GPU configurations and timing still differs where it should."""
    import dataclasses

    cache = TraceCache()
    kernel = make_vecadd(n_warps=16)
    res_a = DetailedEngine(
        kernel, tiny_gpu, trace_provider=cache.provider(kernel)).run()
    slow = dataclasses.replace(tiny_gpu, dram_lat=2000, name="slow")
    kernel = make_vecadd(n_warps=16)
    res_b = DetailedEngine(
        kernel, slow, trace_provider=cache.provider(kernel)).run()
    assert cache.hits == 16
    assert res_b.end_time > res_a.end_time  # timing still config-driven


def test_cache_capacity_cap(tiny_gpu, monkeypatch):
    monkeypatch.setattr(repro.timing.tracecache, "MAX_TRACES", 2)
    cache = TraceCache()
    kernel = make_vecadd(n_warps=8)
    DetailedEngine(kernel, tiny_gpu,
                   trace_provider=cache.provider(kernel)).run()
    assert len(cache) == 2  # capped, not unbounded


def test_cache_clear(tiny_gpu):
    cache = TraceCache()
    kernel = make_vecadd(n_warps=4)
    DetailedEngine(kernel, tiny_gpu,
                   trace_provider=cache.provider(kernel)).run()
    cache.clear()
    assert len(cache) == 0
    DetailedEngine(kernel, tiny_gpu,
                   trace_provider=cache.provider(kernel)).run()
    assert cache.misses == 8  # re-populated


# ------------------------------------------------- TraceForge backing store


def test_backing_store_warm_across_cache_instances(tiny_gpu, tmp_path):
    """Traces written by one cache instance warm a brand-new one —
    the cross-process persistence TraceForge exists for."""
    from repro.tracestore import TraceStore

    warmer = TraceCache(backing_store=TraceStore(tmp_path))
    kernel = make_vecadd(n_warps=8)
    first = DetailedEngine(kernel, tiny_gpu,
                           trace_provider=warmer.provider(kernel)).run()
    assert warmer.misses == 8
    assert warmer.flush() == 8
    assert warmer.flush() == 0  # idempotent: nothing left pending

    replayer = TraceCache(backing_store=TraceStore(tmp_path))
    kernel2 = make_vecadd(n_warps=8)  # fresh kernel, identical content
    second = DetailedEngine(kernel2, tiny_gpu,
                            trace_provider=replayer.provider(kernel2)).run()
    assert replayer.store_hits == 8
    assert replayer.misses == 0
    assert second.end_time == first.end_time
    assert second.warp_times == first.warp_times
    assert second.mem_stats == first.mem_stats


def test_backing_store_shared_across_gpu_configs(tiny_gpu, tmp_path):
    """Stored traces are microarchitecture independent (Photon §6.3):
    one store serves differently-configured GPUs."""
    import dataclasses

    from repro.tracestore import TraceStore

    warmer = TraceCache(backing_store=TraceStore(tmp_path))
    kernel = make_vecadd(n_warps=8)
    res_a = DetailedEngine(kernel, tiny_gpu,
                           trace_provider=warmer.provider(kernel)).run()
    warmer.flush()

    slow = dataclasses.replace(tiny_gpu, dram_lat=2000, name="slow")
    replayer = TraceCache(backing_store=TraceStore(tmp_path))
    kernel2 = make_vecadd(n_warps=8)
    res_b = DetailedEngine(kernel2, slow,
                           trace_provider=replayer.provider(kernel2)).run()
    assert replayer.store_hits == 8
    assert res_b.end_time > res_a.end_time  # timing still config-driven


def test_methodology_cache_wires_into_engines(tiny_gpu):
    """Every engine a methodology starts is fed by the cache it holds;
    an engine built without a ``trace_provider`` consults none."""
    from repro.timing.simulator import FullDetail

    cache = TraceCache()
    full = FullDetail(tiny_gpu, trace_cache=cache)
    first = full.simulate_kernel(make_vecadd(n_warps=4))
    assert cache.misses == 4 and cache.hits == 0
    DetailedEngine(make_vecadd(n_warps=4), tiny_gpu).run()
    assert cache.misses == 4 and cache.hits == 0
    full.hierarchy.reset_timing()
    second = full.simulate_kernel(make_vecadd(n_warps=4))
    assert cache.misses == 4 and cache.hits == 4
    assert second.meta["warp_times"].keys() == first.meta["warp_times"].keys()


def test_same_program_different_data_never_alias():
    """Two spmv launches built from different seeds share a program (and
    so ``Program.fingerprint``) but not a trace: the second run through
    a shared store-less cache equals its own cold run bitwise."""
    from repro.harness.defaults import EVAL_R9NANO
    from repro.timing.simulator import FullDetail
    from repro.workloads.base import REGISTRY

    build = REGISTRY["spmv"]
    assert (build(64, seed=1).program.fingerprint
            == build(64, seed=2).program.fingerprint)
    cold = FullDetail(EVAL_R9NANO).simulate_kernel(build(64, seed=2))

    cache = TraceCache()
    FullDetail(EVAL_R9NANO, trace_cache=cache).simulate_kernel(
        build(64, seed=1))
    hits_before = cache.hits
    shared = FullDetail(EVAL_R9NANO, trace_cache=cache).simulate_kernel(
        build(64, seed=2))
    assert cache.hits == hits_before == 0
    assert (shared.sim_time, shared.n_insts) == (cold.sim_time,
                                                 cold.n_insts)
    assert shared.meta["warp_times"] == cold.meta["warp_times"]
    assert shared.meta["mem_stats"] == cold.meta["mem_stats"]


def test_store_events_on_bus(tiny_gpu, tmp_path):
    """Hit/miss/write traffic is observable on the event bus."""
    from repro.obs import (TRACESTORE_HIT, TRACESTORE_MISS,
                           TRACESTORE_WRITE, EventBus, scoped_bus)
    from repro.tracestore import TraceStore

    with scoped_bus() as bus:
        seen = {"hit": [], "miss": [], "write": []}
        bus.subscribe(TRACESTORE_HIT,
                      lambda warp, source: seen["hit"].append(source))
        bus.subscribe(TRACESTORE_MISS,
                      lambda warp: seen["miss"].append(warp))
        bus.subscribe(TRACESTORE_WRITE,
                      lambda bundle, warps, quarantined:
                      seen["write"].append(warps))

        cache = TraceCache(backing_store=TraceStore(tmp_path))
        kernel = make_vecadd(n_warps=4)
        DetailedEngine(kernel, tiny_gpu,
                       trace_provider=cache.provider(kernel)).run()
        cache.flush()
        assert seen["miss"] == [0, 1, 2, 3]
        assert seen["write"] == [4]

        replayer = TraceCache(backing_store=TraceStore(tmp_path))
        kernel2 = make_vecadd(n_warps=4)
        DetailedEngine(kernel2, tiny_gpu,
                       trace_provider=replayer.provider(kernel2)).run()
        assert seen["hit"] == ["store"] * 4

        counters = bus.metrics.snapshot()["counters"]
        assert counters["tracestore.misses"] == 4
        assert counters["tracestore.writes"] == 4
        assert counters["tracestore.store_hits"] == 4


@pytest.mark.parametrize("cached", [False, True])
def test_run_accounts_on_the_methodology_bus(tiny_gpu, tmp_path, cached):
    """A methodology given its own bus gets all of its run's accounting
    — emulation, trace traffic, the store write — and the current bus
    none of it, with or without a trace cache."""
    from repro.obs import EventBus, scoped_bus
    from repro.timing.simulator import FullDetail
    from repro.tracestore import TraceStore

    private = EventBus()
    cache = (TraceCache(backing_store=TraceStore(tmp_path)) if cached
             else None)
    with scoped_bus() as default:
        FullDetail(tiny_gpu, bus=private, trace_cache=cache
                   ).simulate_kernel(make_vecadd(n_warps=8))
        if cached:
            assert cache.flush() == 8
        assert default.metrics.snapshot()["counters"] == {}
        assert not default.metrics.phases()
    counters = private.metrics.snapshot()["counters"]
    assert counters["engine.runs"] == 1
    assert counters["exec.batch.batched_warps"] == 8
    phases = set(private.metrics.phases())
    assert {"timing", "functional"} <= phases
    if cached:
        assert counters["tracestore.misses"] == 8
        assert counters["tracestore.writes"] == 8
        assert "trace_io" in phases
