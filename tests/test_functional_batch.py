"""WarpPack: fills of many warps through the one interpreter.

Covers path grouping and the path memo, fault = split (a faulting warp
is isolated, nobody is re-executed), when a fill runs as singletons,
the ``exec.batch`` observability surface, the chunked engine provider,
and the TraceCache fill accounting.  Equality with the retired per-warp
loops is replayed from ``tests/golden/functional_traces.json``
(``test_functional_golden.py``); batch-composition invariance is
property-tested in ``test_property_random_programs.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BudgetExceeded, InjectedFault, MemoryFault
from repro.functional import (
    FunctionalExecutor,
    PackProvider,
    WarpPackExecutor,
    control_traces,
)
from repro.obs import EXEC_BATCH, EXEC_BATCH_FALLBACK, MemorySink, scoped_bus
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.reliability.watchdog import WatchdogConfig
from repro.timing import TraceCache

from conftest import (
    make_faulting_kernel,
    make_inplace_faulting_kernel,
    make_loop_kernel,
    make_split_kernel,
    make_vecadd,
)


# -- path grouping -----------------------------------------------------------


def test_uniform_kernel_is_one_group():
    kernel = make_vecadd(n_warps=8)
    fill = WarpPackExecutor(kernel).fill_control(range(8))
    assert fill.fallback == {}
    assert fill.group_sizes == [8]
    assert len(set(kernel.path_memo.values())) == 1


def test_divergent_kernel_splits_groups():
    kernel = make_split_kernel(n_warps=8, threshold=4)
    fill = WarpPackExecutor(kernel).fill_control(range(8))
    assert fill.fallback == {}
    assert fill.group_sizes == [4, 4]
    memo = kernel.path_memo
    assert len({memo[w] for w in range(4)}) == 1
    assert len({memo[w] for w in range(4, 8)}) == 1
    assert memo[0] is not memo[4]
    # path signatures really differ between the halves
    traces = fill.traces
    assert traces[0].bb_seq != traces[4].bb_seq
    assert len(traces) == 8


def test_fill_full_reports_group_sizes():
    kernel = make_split_kernel(n_warps=8, threshold=2)
    fill = WarpPackExecutor(kernel).fill_full(range(8))
    assert sorted(fill.group_sizes) == [2, 6]
    assert sorted(fill.traces) == list(range(8))
    assert fill.fallback == {}


# -- CONTROL-result sharing (Kernel.path_memo) -------------------------------


def test_control_pass_memoizes_path_groups():
    """A CONTROL lockstep pass records each warp's path-group token so a
    later ``fill_full`` starts pre-partitioned instead of re-deriving
    the grouping."""
    kernel = make_split_kernel(n_warps=8, threshold=2)
    pack = WarpPackExecutor(kernel)
    assert kernel.path_memo == {}
    pack.run_warps_control(range(8))
    assert set(kernel.path_memo) == set(range(8))
    # two path groups -> exactly two distinct tokens, partitioned at
    # the divergence threshold
    tokens = {w: kernel.path_memo[w] for w in range(8)}
    assert len(set(tokens.values())) == 2
    assert tokens[0] is tokens[1]
    assert tokens[2] is tokens[7]
    assert tokens[0] is not tokens[2]


def test_fill_full_reuses_memoized_partition():
    kernel = make_split_kernel(n_warps=8, threshold=2)
    with scoped_bus() as bus:
        pack = WarpPackExecutor(kernel)
        pack.run_warps_control(range(8))
        fill = pack.fill_full(range(8))
        reused = bus.metrics.counter("exec.batch.ctrl_reused").value
    assert reused == 8
    assert sorted(fill.group_sizes) == [2, 6]
    assert fill.fallback == {}


def test_stale_path_memo_self_heals():
    """A wrong memo entry is only a hint: the merged FULL runner splits
    on the actual branch outcome, so traces stay bitwise correct."""
    kernel = make_split_kernel(n_warps=8, threshold=2)
    pack = WarpPackExecutor(kernel)
    pack.run_warps_control(range(8))
    # lie: pretend every warp shares warp 0's path group
    token = kernel.path_memo[0]
    for w in range(8):
        kernel.path_memo[w] = token
    fill = pack.fill_full(range(8))
    assert fill.fallback == {}
    expect = FunctionalExecutor(make_split_kernel(n_warps=8, threshold=2))
    for w in range(8):
        assert fill.traces[w] == expect.run_warp_full(w), f"warp {w}"


def test_full_pass_also_memoizes():
    kernel = make_split_kernel(n_warps=8, threshold=2)
    pack = WarpPackExecutor(kernel)
    pack.fill_full(range(8))
    assert set(kernel.path_memo) == set(range(8))
    assert len(set(kernel.path_memo.values())) == 2


def test_same_path_traces_share_column_objects():
    """Warps of one path group share their static-column list objects —
    the timing engine's per-trace pool cache is keyed on ``id()`` of
    those lists, so sharing keeps the pool hit rate at one build per
    group instead of one per warp."""
    kernel = make_split_kernel(n_warps=8, threshold=2)
    traces = WarpPackExecutor(kernel).run_warps_full(range(8))
    assert traces[2].opclass is traces[7].opclass
    assert traces[2].dep is traces[7].dep
    assert traces[0].opclass is traces[1].opclass
    assert traces[0].opclass is not traces[2].opclass
    # per-warp rows stay private
    assert traces[2].mem_lines is not traces[7].mem_lines


# -- fault = split -----------------------------------------------------------


def test_faulting_group_falls_back_without_losing_good_warps():
    kernel = make_faulting_kernel(n_warps=6, bad_warp=2)
    fill = WarpPackExecutor(kernel).fill_full(range(6))
    assert list(fill.fallback) == [2]
    assert isinstance(fill.fallback[2], MemoryFault)
    assert sorted(fill.traces) == [0, 1, 3, 4, 5]


def test_faulting_batch_does_not_double_apply_stores():
    """``x += 1`` in place, then a store that faults for one warp of a
    batch that is still together: the fault splits the batch at the
    store, so every warp (the bad one included) incremented exactly
    once — re-running the members from instruction 0 would give 3."""
    kernel = make_inplace_faulting_kernel(n_warps=6, bad_warp=2)
    with scoped_bus() as bus:
        fill = WarpPackExecutor(kernel, bus=bus).fill_full(range(6))
        counters = bus.metrics.snapshot()["counters"]
    assert np.array_equal(kernel.memory.view("x"), np.full(6 * 64, 2.0))
    assert sorted(fill.traces) == [0, 1, 3, 4, 5]
    assert list(fill.fallback) == [2]
    # the stored error is the per-warp one: it names warp 2's lanes only
    reference = make_inplace_faulting_kernel(n_warps=6, bad_warp=2)
    with pytest.raises(MemoryFault) as per_warp:
        FunctionalExecutor(reference).run_warp_full(2)
    assert str(fill.fallback[2]) == str(per_warp.value)
    assert counters["exec.batch.fallbacks"] == 1
    out = kernel.memory.view("out").reshape(6, 64)
    assert (out[[0, 1, 3, 4, 5]] == 2.0).all() and not out[2].any()

    # the same through the engine's provider: serving the good warps
    # and being refused the bad one leaves every x at 2
    kernel = make_inplace_faulting_kernel(n_warps=6, bad_warp=2)
    provider = PackProvider(kernel)
    for warp in (0, 1, 3, 4, 5):
        assert provider(warp).warp_id == warp
    with pytest.raises(MemoryFault):
        provider(2)
    assert np.array_equal(kernel.memory.view("x"), np.full(6 * 64, 2.0))


def test_bad_arg_register_isolates_one_warp():
    kernel = make_vecadd(n_warps=4)
    good = kernel.args
    kernel.args = lambda w: {0: 1.0} if w == 1 else good(w)
    fill = WarpPackExecutor(kernel).fill_full(range(4))
    assert sorted(fill.traces) == [0, 2, 3]
    assert "arg register s0" in str(fill.fallback[1])


def test_provider_serves_good_warps_and_raises_for_bad():
    kernel = make_faulting_kernel(n_warps=6, bad_warp=2)
    provider = PackProvider(kernel)
    for warp in (0, 1, 3, 4, 5):
        assert provider(warp).n_insts > 0
    with pytest.raises(MemoryFault):
        provider(2)


def test_fallback_trace_matches_per_warp():
    kernel_a = make_faulting_kernel(n_warps=6, bad_warp=2)
    kernel_b = make_faulting_kernel(n_warps=6, bad_warp=2)
    fill = WarpPackExecutor(kernel_a).fill_full(range(6))
    reference = FunctionalExecutor(kernel_b)
    for warp in (0, 1, 3, 4, 5):
        assert fill.traces[warp] == reference.run_warp_full(warp)


# -- when a fill runs as singletons ------------------------------------------

#: every ``exec.batch.*`` counter the fills may bump (docs/observability.md)
EXEC_BATCH_COUNTERS = {
    "exec.batch.groups", "exec.batch.batched_warps",
    "exec.batch.fallbacks", "exec.batch.ctrl_reused",
    "exec.batch.singleton.fault_plan",
    "exec.batch.singleton.instruction_budget",
}


def _fill_counters(mode="full", **executor_kwargs):
    with scoped_bus() as bus:
        kernel = make_split_kernel(n_warps=8, threshold=4)
        pack = WarpPackExecutor(
            kernel, executor=FunctionalExecutor(kernel, **executor_kwargs))
        fill = pack.fill_full(range(8)) if mode == "full" \
            else pack.fill_control(range(8))
        counters = {name: value for name, value
                    in bus.metrics.snapshot()["counters"].items()
                    if name.startswith("exec.batch")}
    assert set(counters) <= EXEC_BATCH_COUNTERS
    return fill, counters


def test_singleton_fill_reasons():
    """The one decision: a fault plan or a per-warp instruction / stall
    budget runs every warp as its own batch; everything else batches."""
    for kwargs in ({}, {"watchdog": WatchdogConfig(deadline_seconds=10.0)},
                   {"watchdog": WatchdogConfig(max_events=5)}):
        fill, counters = _fill_counters(**kwargs)
        assert fill.group_sizes == [4, 4]
        assert counters == {"exec.batch.groups": 2,
                            "exec.batch.batched_warps": 8}
    for reason, kwargs in (
            ("instruction_budget",
             {"watchdog": WatchdogConfig(max_instructions=100)}),
            ("instruction_budget",
             {"watchdog": WatchdogConfig(stall_instructions=50)}),
            ("fault_plan", {"fault_plan": FaultPlan()}),
            ("fault_plan",
             {"fault_plan": FaultPlan(),
              "watchdog": WatchdogConfig(max_instructions=100)})):
        for mode in ("full", "control"):
            fill, counters = _fill_counters(mode, **kwargs)
            assert fill.group_sizes == [1] * 8
            assert counters == {f"exec.batch.singleton.{reason}": 1,
                                "exec.batch.groups": 8,
                                "exec.batch.batched_warps": 8}


def test_singleton_fill_has_per_warp_watchdogs():
    """Each singleton gets its own instruction budget and its own label;
    the trip names the first warp that exceeds it and stops the fill."""
    kernel = make_loop_kernel(8, trips_of=lambda w: 1 + 3 * w)
    with scoped_bus() as bus:
        sink = bus.add_sink(MemorySink())
        with pytest.raises(BudgetExceeded, match="'loopy' warp 3"):
            control_traces(kernel, range(8),
                           watchdog=WatchdogConfig(max_instructions=45))
    (trip,) = sink.of_kind("reliability.watchdog")
    assert trip.fields["ticks"] == 46


def test_singleton_fill_arms_fault_plan_per_warp_instruction():
    """vecadd touches memory three times per warp: the 5th arming is
    warp 1's second access, exactly as when warps run one at a time."""
    plan = FaultPlan(FaultSpec(site="executor.memory", at=5))
    kernel = make_vecadd(n_warps=4)
    pack = WarpPackExecutor(
        kernel, executor=FunctionalExecutor(kernel, fault_plan=plan))
    pack.fill_control(range(4))       # CONTROL never arms the plan
    assert plan.specs[0].hits == 0
    with pytest.raises(InjectedFault):
        pack.fill_full(range(4))
    assert plan.specs[0].hits == 5


def test_control_traces_batched_equals_per_warp():
    kernel = make_split_kernel(n_warps=8)
    batched = control_traces(kernel, range(8))
    one_by_one = {}
    for w in range(8):
        one_by_one.update(control_traces(kernel, [w]))
    executor = FunctionalExecutor(kernel)
    assert batched == one_by_one == {
        w: executor.run_warp_control(w) for w in range(8)}


# -- observability -----------------------------------------------------------


def test_exec_batch_events_and_counters():
    with scoped_bus() as bus:
        seen = []
        bus.subscribe(
            EXEC_BATCH,
            lambda kernel, mode, warps, groups, sizes, fallbacks, wall:
            seen.append((kernel, mode, warps, groups, sizes, fallbacks)))
        kernel = make_split_kernel(n_warps=8, threshold=4)
        WarpPackExecutor(kernel, bus=bus).fill_full(range(8))
        assert seen == [("split", "full", 8, 2, [4, 4], 0)]
        counters = bus.metrics.snapshot()["counters"]
        assert counters["exec.batch.groups"] == 2
        assert counters["exec.batch.batched_warps"] == 8
        assert "exec.batch.fallbacks" not in counters


def test_exec_batch_fallback_event():
    with scoped_bus() as bus:
        seen = []
        bus.subscribe(EXEC_BATCH_FALLBACK,
                      lambda kernel, mode, warps: seen.append(warps))
        kernel = make_faulting_kernel(n_warps=6, bad_warp=1)
        WarpPackExecutor(kernel, bus=bus).fill_full(range(6))
        assert seen == [[1]]
        counters = bus.metrics.snapshot()["counters"]
        assert counters["exec.batch.fallbacks"] == 1


# -- chunked provider and TraceCache integration -----------------------------


def test_pack_provider_chunks_fills():
    with scoped_bus() as bus:
        fills = []
        bus.subscribe(
            EXEC_BATCH,
            lambda kernel, mode, warps, groups, sizes, fallbacks, wall:
            fills.append(warps))
        kernel = make_vecadd(n_warps=8)
        provider = PackProvider(kernel, chunk=4)
        for warp in range(8):
            assert provider(warp).warp_id == warp
        assert fills == [4, 4]  # two chunk fills, no per-warp runs


def test_trace_cache_batch_fill_counts_served_misses_only(tiny_gpu):
    """Speculatively filled but never-requested warps are not misses."""
    cache = TraceCache()
    kernel = make_vecadd(n_warps=8)
    provider = cache.provider(kernel)
    provider(3)  # fills the whole chunk, serves one warp
    assert cache.misses == 1 and cache.hits == 0
    provider(5)  # served from the same fill: a miss, not a hit
    assert cache.misses == 2 and cache.hits == 0
    provider(3)  # genuinely cached now
    assert cache.hits == 1


def test_trace_cache_fill_skips_cached_and_stored_warps(tmp_path):
    """One chunk-fill serves the provider and the cache: the cache only
    names what it can already serve, and the fill leaves those alone."""
    from repro.tracestore import TraceStore

    store = TraceStore(tmp_path)
    kernel = make_vecadd(n_warps=8)
    key = store.key_for(kernel)
    executor = FunctionalExecutor(kernel)
    store.put_kernel(kernel, {w: executor.run_warp_full(w) for w in (1, 2)},
                     key=key)
    with scoped_bus() as bus:
        fills = []
        bus.subscribe(
            EXEC_BATCH,
            lambda kernel, mode, warps, groups, sizes, fallbacks, wall:
            fills.append(warps))
        cache = TraceCache(backing_store=store)
        provider = cache.provider(make_vecadd(n_warps=8))
        for warp in (0, 1, 2, 3):
            assert provider(warp).warp_id == warp
        assert fills == [6]           # 8 warps minus the two stored ones
        assert (cache.misses, cache.store_hits, cache.hits) == (2, 2, 0)
        provider(0)
        assert cache.hits == 1 and fills == [6]


def test_trace_cache_raises_stored_error_uncounted():
    cache = TraceCache()
    provider = cache.provider(make_faulting_kernel(n_warps=6, bad_warp=2))
    assert provider(1).warp_id == 1
    for _ in range(2):
        with pytest.raises(MemoryFault):
            provider(2)
    assert cache.misses == 1


# -- END-row shape regression (batches of one and of four agree) -------------


def test_end_row_shape_pinned():
    """``s_endpgm`` appends a full trace row then stops.

    The END handler writes a dependency entry with ``mem_lines`` None
    and ``is_store`` False, and breaks *before* the last-writer update;
    the final row is part of the bitwise contract.
    """
    kernel = make_vecadd(n_warps=4)
    program = kernel.program
    end_idx = len(program.instructions) - 1
    per_warp = FunctionalExecutor(make_vecadd(n_warps=4)).run_warp_full(1)
    batched = WarpPackExecutor(kernel).run_warps_full(range(4))[1]
    for trace in (per_warp, batched):
        assert trace.static_idx[-1] == end_idx
        assert trace.mem_lines[-1] is None
        assert trace.is_store[-1] is False
        assert -1 <= trace.dep[-1] < trace.n_insts - 1
        # parallel arrays all cover the END row
        assert (len(trace.opclass) == len(trace.opcode) == len(trace.dep)
                == len(trace.mem_lines) == len(trace.is_store)
                == trace.n_insts)
    assert per_warp == batched
