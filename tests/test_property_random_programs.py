"""Property-based tests over randomly generated programs.

Hypothesis builds small random (but well-formed) kernels — straight-line
vector/scalar arithmetic with optional counted loops and memory traffic —
and checks cross-cutting invariants of the whole stack:

* FULL and CONTROL functional modes agree on instruction counts and
  basic-block sequences;
* the timing engine terminates, retires every instruction exactly once,
  and respects causality;
* the scheduler-only fast model never finishes before the longest
  single warp;
* the interpreter's results do not depend on how warps are composed
  into batches — traces, memory arenas, and simulated cycles —
  including programs with warp-divergent scalar branches and lane
  divergence under a live exec mask.
"""

import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import R9_NANO
from repro.functional import FunctionalExecutor, PackProvider
from repro.timing import DetailedEngine, TraceCache
from repro.timing.simulator import FullDetail, simulate_kernel_detailed
from repro.tracestore import TraceStore

from conftest import DrawSource, random_kernel_factory

GPU = R9_NANO.scaled(4)


@st.composite
def random_kernel_factories(draw):
    """Hypothesis draws behind ``conftest.random_kernel_factory`` (the
    golden corpus feeds the same generator from ``random.Random``),
    with and without scalar chains on and off the control slice."""
    return random_kernel_factory(DrawSource(draw),
                                 scalar_chains=draw(st.booleans()))


def random_kernels():
    """A random well-formed kernel over up to 3 loops and 40 ops."""
    return random_kernel_factories().map(lambda factory: factory())


@settings(max_examples=40, deadline=None)
@given(random_kernels())
def test_full_and_control_modes_agree(kernel):
    executor = FunctionalExecutor(kernel)
    for warp in range(kernel.n_warps):
        full = executor.run_warp_full(warp)
        ctrl = executor.run_warp_control(warp)
        assert full.n_insts == ctrl.n_insts
        assert [pc for pc, _ in full.bb_seq] == ctrl.bb_seq


@settings(max_examples=25, deadline=None)
@given(random_kernels())
def test_engine_conserves_instructions(kernel):
    executor = FunctionalExecutor(kernel)
    expected = sum(executor.run_warp_control(w).n_insts
                   for w in range(kernel.n_warps))
    result = DetailedEngine(kernel, GPU).run()
    assert result.n_insts == expected
    assert len(result.warp_times) == kernel.n_warps
    for dispatch, retire in result.warp_times.values():
        assert retire > dispatch >= 0
    assert result.end_time == max(r for _, r in result.warp_times.values())


@settings(max_examples=15, deadline=None)
@given(random_kernels())
def test_fast_model_lower_bound(kernel):
    """Scheduler-only end time >= the longest single warp duration."""
    from repro.timing import schedule_only

    result = DetailedEngine(kernel, GPU).run()
    durations = {w: retire - dispatch
                 for w, (dispatch, retire) in result.warp_times.items()}
    fast = schedule_only(kernel, sorted(durations), durations, GPU)
    assert fast.end_time >= max(durations.values()) - 1e-9
    # and cannot beat perfect parallelism over the GPU's capacity
    capacity = GPU.n_cu * GPU.max_warps_per_cu
    waves = -(-kernel.n_warps // capacity)
    assert fast.end_time <= waves * max(durations.values()) + 1e-9


@settings(max_examples=20, deadline=None)
@given(random_kernels())
def test_trace_dependencies_point_backwards(kernel):
    executor = FunctionalExecutor(kernel)
    trace = executor.run_warp_full(0)
    for i, dep in enumerate(trace.dep):
        assert -1 <= dep < i


# -- differential harness: three trace front ends, one answer ---------------
#
# The same launch runs through DetailedEngine three ways:
#   exec      execution-driven (warps emulated at dispatch — the default)
#   memcache  trace-driven from an in-memory TraceCache (populate + replay)
#   store     TraceForge warm replay: a store-backed cache populates a tmp
#             TraceStore, is flushed, and a *fresh* cache replays from disk
# All three must produce bitwise-identical cycle counts, per-warp
# dispatch/retire times, memory statistics, and fallback ledgers.

def _run_exec(factory):
    return simulate_kernel_detailed(factory(), GPU)


def _run_cached(factory, cache):
    return FullDetail(GPU, trace_cache=cache).simulate_kernel(factory())


def _run_memcache(factory):
    cache = TraceCache()
    _run_cached(factory, cache)           # populate
    result = _run_cached(factory, cache)  # replay
    assert cache.hits > 0
    return result


def _run_store(factory, tmp):
    store = TraceStore(tmp)
    warmer = TraceCache(backing_store=store)
    _run_cached(factory, warmer)
    assert warmer.flush() > 0
    replayer = TraceCache(backing_store=store)
    result = _run_cached(factory, replayer)
    assert replayer.misses == 0, "warm run re-emulated a warp"
    assert replayer.store_hits > 0
    return result


def _assert_identical(reference, candidate, label):
    assert candidate.sim_time == reference.sim_time, label
    assert candidate.n_insts == reference.n_insts, label
    assert candidate.detail_insts == reference.detail_insts, label
    assert (candidate.meta["warp_times"]
            == reference.meta["warp_times"]), label
    assert (candidate.meta["mem_stats"]
            == reference.meta["mem_stats"]), label
    assert ([e.to_dict() for e in candidate.errors]
            == [e.to_dict() for e in reference.errors]), label


def _differential(factory):
    reference = _run_exec(factory)
    _assert_identical(reference, _run_memcache(factory), "memcache")
    with tempfile.TemporaryDirectory() as tmp:
        _assert_identical(reference, _run_store(factory, tmp), "store")


@settings(max_examples=25, deadline=None)
@given(random_kernel_factories())
def test_differential_front_ends_quick(factory):
    """Fast-lane slice of the three-front-end differential property."""
    _differential(factory)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(random_kernel_factories())
def test_differential_front_ends_full(factory):
    """Full 200-example differential run (nightly lane; see ISSUE 4)."""
    _differential(factory)


# -- batch-composition invariance ---------------------------------------------
#
# There is one interpreter, so there is no twin to compare against; what
# must hold instead is that the *composition* of its batches is
# invisible.  Each example runs the same launch as all singletons, as
# one batch, as a random partition of shuffled warps and in reversed
# warp order, and checks (a) FULL and CONTROL traces per warp, (b) the
# final global-memory arena, and (c) end-to-end simulated cycles with
# the engine's provider filling one warp, a few warps, or the whole grid
# at a time.

def _composition_invariance(factory, seed) -> bool:
    """Check one example; returns whether its one-batch run split."""
    rng = random.Random(seed)
    n_warps = factory().n_warps
    warps = list(range(n_warps))
    shuffled = rng.sample(warps, n_warps)
    cuts = sorted(rng.sample(range(1, n_warps), rng.randint(0, n_warps - 1)))
    compositions = {
        "singletons": [[w] for w in warps],
        "one batch": [warps],
        "random partition": [shuffled[i:j] for i, j
                             in zip([0] + cuts, cuts + [n_warps])],
        "reversed": [warps[::-1]],
    }
    outcomes = {}
    for label, batches in compositions.items():
        kernel = factory()
        executor = FunctionalExecutor(kernel)
        ctrl, ctrl_errors, _ = executor.run_batches(batches, full=False)
        full, full_errors, groups = executor.run_batches(batches, full=True)
        assert not ctrl_errors and not full_errors, label
        outcomes[label] = (ctrl, full, kernel.memory._data, groups)
    ref_ctrl, ref_full, ref_arena, _ = outcomes["singletons"]
    assert sorted(ref_full) == sorted(ref_ctrl) == warps
    for label, (ctrl, full, arena, _) in outcomes.items():
        assert ctrl == ref_ctrl, f"control traces, {label}"
        assert full == ref_full, f"full traces, {label}"
        assert np.array_equal(arena, ref_arena), f"memory arena, {label}"

    timings = []
    for chunk in (1, rng.randint(2, 5), n_warps):
        kernel = factory()
        timings.append(DetailedEngine(
            kernel, GPU,
            trace_provider=PackProvider(kernel, chunk=chunk)).run())
    for result in timings[1:]:
        assert result.end_time == timings[0].end_time
        assert result.n_insts == timings[0].n_insts
        assert result.warp_times == timings[0].warp_times
        assert result.mem_stats == timings[0].mem_stats
    return len(outcomes["one batch"][3]) > 1


def _composition_lane(max_examples: int, derandomize: bool) -> None:
    split = []

    @settings(max_examples=max_examples, deadline=None,
              derandomize=derandomize)
    @given(random_kernel_factories(), st.integers(0, 2 ** 32 - 1))
    def lane(factory, seed):
        split.append(_composition_invariance(factory, seed))

    lane()
    # the property is only about composition if batches really split
    assert any(split), "no example of this lane split a batch"


def test_batched_equivalence_quick():
    """Fast-lane slice of the batch-composition invariance property.

    Derandomized: hypothesis favours boundary thresholds, so only a few
    of 40 random examples split, and "at least one did" must not be a
    coin toss in the fast lane.  The nightly lane explores."""
    _composition_lane(40, derandomize=True)


@pytest.mark.slow
def test_batched_equivalence_full():
    """Full 200-example composition-invariance run (nightly lane)."""
    _composition_lane(200, derandomize=False)


@settings(max_examples=10, deadline=None)
@given(random_kernel_factories())
def test_partially_populated_store_matches(factory):
    """A store holding only some warps still replays bit-identically.

    Mirrors what Photon's early-stopped engines leave behind: the warm
    run serves the stored warps from disk and re-emulates the rest, and
    the mix must not perturb timing.
    """
    reference = _run_exec(factory)
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp)
        kernel = factory()
        key = store.key_for(kernel)  # before emulation mutates memory
        executor = FunctionalExecutor(kernel)
        partial = {w: executor.run_warp_full(w)
                   for w in range(0, kernel.n_warps, 2)}
        store.put_kernel(kernel, partial, key=key)

        cache = TraceCache(backing_store=store)
        result = _run_cached(factory, cache)
        assert cache.store_hits == len(partial)
        assert cache.misses == kernel.n_warps - len(partial)
        _assert_identical(reference, result, "partial store")
