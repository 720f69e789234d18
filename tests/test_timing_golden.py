"""Golden replay of the timing engine against the engines it replaced.

``tests/golden/timing_engine.json`` holds two recorded corpora, and the
one loop in ``repro.timing.engine`` must reproduce both exactly: every
``EngineResult`` field, a digest of the event sequence, and for
watchdog trips the exception class, its message and the
``reliability.watchdog`` event.

* **Heap-loop corpus** (``CASES`` x ``KERNELS``), recorded from the
  retired heap loop (``DetailedEngine._run`` at commit 1ea305a): armed
  watchdogs and fractional latencies.
* **Numpy-round corpus**, recorded at commit fba0e44 from the retired
  ``timing/batch.py`` while its vectorized rounds really executed:
  nbody@512, kmeans@1024 and blackscholes@512 on the evaluation GPU at
  the shipped width thresholds (``NATURAL``), and 40 seeded programs
  from ``conftest.timing_kernel_factory`` with both thresholds forced
  to 2 (``SEEDS`` x ``SEEDED_MODES``: quiet, with an ``engine.inst``
  subscriber, with an ``ipc_bucket``, with ``request_stop`` after *n*
  basic blocks).
* **Long-dependency corpus** (``LONG_REACHES`` x ``LONG_SHAPES`` x
  ``LONG_SEEDS`` x ``SEEDED_MODES``), recorded from the engine that kept
  one retire cell per instruction: loop programs in which a value made
  before a barrier and a long loop is read after them, more than 256
  or 1,024 instructions later, so a retire ring shorter than the trace
  must wrap and still read it back.

``PYTHONPATH=src:tests python tests/test_timing_golden.py`` rewrites the
file from the current engine (only after an intended model change);
``--only PREFIX`` rewrites the records whose key starts with PREFIX.
"""

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import R9_NANO
from repro.errors import ReproError
from repro.functional import GlobalMemory, Kernel, WarpPackExecutor
from repro.harness.defaults import EVAL_R9NANO
from repro.harness.runner import workload_factory
from repro.isa import KernelBuilder, MemAddr, s, v
from repro.isa.opcodes import OpClass, Opcode, op_class
from repro.obs import MemorySink, scoped_bus
from repro.reliability.watchdog import WatchdogConfig
from repro.timing import DetailedEngine

from conftest import (
    LIGHT_CHANNELS,
    RandomSource,
    make_barrier_kernel,
    make_loop_kernel,
    make_vecadd,
    request_stop_after_bbs,
    timing_kernel_factory,
    write_golden,
)

GOLDEN = Path(__file__).parent / "golden" / "timing_engine.json"

# 16 resident slots: the 20-24 warp kernels below dispatch on retire, so
# a mid-run stop leaves undispatched warps and slot-release times
GPU = dataclasses.replace(R9_NANO.scaled(4), max_warps_per_cu=4)


def _make_mixed_kernel() -> Kernel:
    """Divergent branch, load + waitcnt, LDS round trip, two barriers."""
    n_warps = 20
    mem = GlobalMemory(capacity_words=n_warps * 64 + 256)
    buf = mem.alloc("buf", np.ones(n_warps * 64))
    b = KernelBuilder("mixed")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), 64)
    b.v_add(v(0), v(0), s(3))
    b.v_mov(v(1), 2.0)
    b.s_barrier()
    b.s_cmp_lt(s(0), 7)
    b.s_cbranch_scc0("skip")
    b.v_mul(v(1), v(1), 3.0)
    b.v_load(v(2), MemAddr(base=s(4), index=v(0)))
    b.s_waitcnt()
    b.label("skip")
    b.ds_write(v(0), v(1))
    b.s_waitcnt()
    b.ds_read(v(2), v(0))
    b.s_barrier()
    b.v_add(v(1), v(1), v(2))
    b.v_store(v(1), MemAddr(base=s(4), index=v(0)))
    b.s_endpgm()
    return Kernel(program=b.build(), n_warps=n_warps, wg_size=4, memory=mem,
                  args=lambda w: {4: buf}, name="mixed")


def _make_loopy_kernel() -> Kernel:
    rng = random.Random(12)
    trips = [rng.randint(1, 7) for _ in range(24)]
    return make_loop_kernel(24, trips_of=trips.__getitem__, wg_size=2)


KERNELS = {
    "vecadd": lambda: make_vecadd(n_warps=24, wg_size=2),
    "loopy": _make_loopy_kernel,
    "barriered": lambda: make_barrier_kernel(n_warps=24, wg_size=4),
    "mixed": _make_mixed_kernel,
}

_ACCOUNTING = {"ipc_bucket": 25.0, "collect_latency": True}

# name -> (engine kwargs, GpuConfig overrides, request_stop after this
# many basic blocks)
CASES = {}
for _budget in (1, 17, 100, 333):
    CASES[f"watchdog-max-events-{_budget}"] = (
        {"watchdog": WatchdogConfig(max_events=_budget)}, {}, None)
_QUIET = WatchdogConfig(max_events=10**9)
CASES["watchdog-armed-quiet"] = ({"watchdog": _QUIET}, {}, None)
CASES["watchdog-armed-quiet-stop"] = (
    {"watchdog": _QUIET, **_ACCOUNTING}, {}, 9)
# non-dyadic values: every add rounds, so the order of operations shows
for _field, _value in (("issue_interval", 1.3), ("scalar_alu_lat", 1.1),
                       ("vector_alu_lat", 4.7), ("branch_lat", 1.3),
                       ("lds_lat", 8.6), ("cp_dispatch_interval", 8.3)):
    CASES[_field] = ({}, {_field: _value}, None)
    CASES[f"{_field}-stop"] = (dict(_ACCOUNTING), {_field: _value}, 9)

# the barrier- and latency-aligned compute kernels whose rounds reached
# the retired vector path on their own, on the evaluation GPU
NATURAL = (("nbody", 512), ("kmeans", 1024), ("blackscholes", 512))

SEEDS = range(40)
SEEDED_GPU = R9_NANO.scaled(4)
# 8 resident slots, so a stop finds most programs with warps to dispatch
SEEDED_STOP_GPU = dataclasses.replace(R9_NANO.scaled(2), max_warps_per_cu=4)
# mode -> (materialise every event, engine kwargs, stop mid-run)
SEEDED_MODES = {
    "quiet": (False, {"collect_latency": True}, False),
    "inst": (True, {}, False),
    "ipc": (False, _ACCOUNTING, False),
    "stop": (True, {}, True),
}

_BODY_OPS = ("v_add", "v_sub", "v_max", "v_min", "s_add", "s_max")
#: longest dependency distances the long programs must pass
LONG_REACHES = (256, 1024)
LONG_SHAPES = ("random", "loop")
LONG_SEEDS = range(2)


def _emit_body(b, body) -> None:
    """Each op accumulates into v1 or s5, never into v9 or s7."""
    for name, operand in body:
        if name.startswith("v_"):
            getattr(b, name)(v(1), v(1), float(operand))
        else:
            getattr(b, name)(s(5), s(5), operand)


def long_dependency_factory(reach: int, shape: str, src):
    """A zero-arg factory: warps whose longest dependency passes ``reach``.

    ``v9`` / ``s7`` and a load are made before a barrier and a counted
    loop that never touches them; after a second barrier, instructions
    that read only them (and an ``s_waitcnt`` on the load) name a
    producer more than ``reach`` instructions back; a tail loop twice
    as long and a third barrier follow.  ``random`` draws the loop
    body and gives each warp ``s0 & 3`` extra trips; ``loop`` has a
    one-op body and reads each warp's trip count from memory.  Either
    way the warps' paths, and their longest distances, differ.
    """
    n_warps = src.integers(6, 16)
    wg_size = src.choice((2, 4))
    body = [(src.choice(_BODY_OPS), src.integers(1, 6))
            for _ in range(src.integers(0, 4) if shape == "random" else 0)]
    body.append(("v_add", 1))
    body_len = len(body) + 3          # plus s_add, s_cmp, s_cbranch
    trips = reach // body_len + 2
    b = KernelBuilder(f"long_{shape}")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), 64)
    b.v_add(v(0), v(0), s(3))
    b.v_mov(v(1), 0.0)
    b.s_mov(s(5), 1)
    b.v_mov(v(9), 2.0)
    b.s_mov(s(7), 3)
    b.v_load(v(4), MemAddr(base=s(4), index=v(0)))
    b.s_barrier()
    if shape == "random":
        b.s_and(s(10), s(0), 3)
        b.s_add(s(10), s(10), trips)
    else:
        b.s_add(s(11), s(12), s(0))
        b.s_load(s(10), MemAddr(base=s(11)))
    b.s_mov(s(8), 0)
    b.label("loop")
    _emit_body(b, body)
    b.s_add(s(8), s(8), 1)
    b.s_cmp_lt(s(8), s(10))
    b.s_cbranch_scc1("loop")
    b.s_barrier()
    b.v_add(v(2), v(9), 1.0)
    b.s_add(s(6), s(7), 1)
    b.s_waitcnt()
    b.v_add(v(1), v(1), v(2))
    b.v_add(v(1), v(1), v(4))
    b.v_add(v(1), v(1), s(6))
    # a tail twice as long: the trace outgrows the smallest power of
    # two above its longest distance, so a ring of that size wraps
    b.s_mov(s(8), 0)
    b.label("tail")
    _emit_body(b, body)
    b.s_add(s(8), s(8), 1)
    b.s_cmp_lt(s(8), 2 * trips)
    b.s_cbranch_scc1("tail")
    b.s_barrier()
    b.v_add(v(1), v(1), 1.0)
    b.v_store(v(1), MemAddr(base=s(4), index=v(0)))
    b.s_endpgm()
    program = b.build()
    trip_words = [float(trips + w % 5) for w in range(n_warps)]

    def factory():
        mem = GlobalMemory(capacity_words=n_warps * 64 + n_warps + 256)
        buf = mem.alloc("buf", np.ones(n_warps * 64))
        counts = mem.alloc("trips", np.array(trip_words))
        return Kernel(program=program, n_warps=n_warps, wg_size=wg_size,
                      memory=mem, args=lambda w: {4: buf, 12: counts},
                      name=f"long_{shape}")

    return factory


def _record(kernel, gpu, engine_kwargs, stop_after=None,
            full_events=True) -> dict:
    """One engine run, reduced to the JSON record the golden file holds.

    With ``full_events`` a ``MemorySink`` materialises every engine
    event; without, the digest covers a journal of the light channels.
    """
    record = {}
    journal = []
    with scoped_bus() as bus:
        # the default bus, so the watchdog's trip event lands in the sink
        if full_events:
            sink = bus.add_sink(MemorySink())
        else:
            for etype in LIGHT_CHANNELS:
                bus.subscribe(
                    etype, lambda *args, kind=etype.name: journal.append(
                        {"kind": kind, "args": args}))
        engine = DetailedEngine(kernel, gpu, **engine_kwargs)
        if stop_after is not None:
            request_stop_after_bbs(engine, stop_after)
        try:
            result = engine.run()
        except ReproError as exc:
            record["error"] = [type(exc).__name__, str(exc)]
        else:
            record["result"] = {
                "end_time": result.end_time,
                "n_insts": result.n_insts,
                "warp_times": {str(w): list(times) for w, times
                               in sorted(result.warp_times.items())},
                "ipc_series": result.ipc_series,
                "ipc_bucket": result.ipc_bucket,
                "latency_table": {str(code): lat for code, lat
                                  in sorted(result.latency_table.items())},
                "undispatched": result.undispatched,
                "cu_slot_free": {str(cu): times for cu, times
                                 in sorted(result.cu_slot_free.items())},
                "stopped": result.stopped,
                "stop_time": result.stop_time,
                "mem_stats": result.mem_stats,
            }
        record["counters"] = bus.metrics.snapshot()["counters"]
    events = journal
    if full_events:
        events = [e.to_dict() for e in sink.events
                  if e.kind.startswith(("engine.", "reliability."))]
    record["n_events"] = len(events)
    record["events_sha256"] = hashlib.sha256(
        json.dumps(events, sort_keys=True).encode()).hexdigest()
    record["watchdog_events"] = [
        e for e in events if e["kind"] == "reliability.watchdog"]
    return record


def run_case(case: str, kernel_name: str) -> dict:
    engine_kwargs, gpu_overrides, stop_after = CASES[case]
    return _record(KERNELS[kernel_name](),
                   dataclasses.replace(GPU, **gpu_overrides),
                   engine_kwargs, stop_after)


def run_natural(workload: str, size: int) -> dict:
    return _record(workload_factory(workload, size)(), EVAL_R9NANO,
                   {"collect_latency": True}, full_events=False)


def run_seeded(seed: int, mode: str) -> dict:
    full_events, engine_kwargs, stop = SEEDED_MODES[mode]
    rng = random.Random(seed)
    kernel = timing_kernel_factory(RandomSource(rng))()
    gpu, stop_after = ((SEEDED_STOP_GPU, rng.randint(1, 30)) if stop
                       else (SEEDED_GPU, None))
    return _record(kernel, gpu, engine_kwargs, stop_after, full_events)


def run_long(reach: int, shape: str, seed: int, mode: str) -> dict:
    full_events, engine_kwargs, stop = SEEDED_MODES[mode]
    rng = random.Random(1000 * reach + seed)
    kernel = long_dependency_factory(reach, shape, RandomSource(rng))()
    gpu, stop_after = ((SEEDED_STOP_GPU, rng.randint(20, 400)) if stop
                       else (SEEDED_GPU, None))
    return _record(kernel, gpu, engine_kwargs, stop_after, full_events)


def all_runs():
    """``(golden key, zero-arg run)`` for every record of the file."""
    for case in sorted(CASES):
        for kernel_name in sorted(KERNELS):
            yield (f"{case}/{kernel_name}",
                   lambda c=case, k=kernel_name: run_case(c, k))
    for workload, size in NATURAL:
        yield (f"natural/{workload}-{size}",
               lambda w=workload, n=size: run_natural(w, n))
    for seed in SEEDS:
        for mode in SEEDED_MODES:
            yield (f"seeded-{seed:02d}/{mode}",
                   lambda n=seed, m=mode: run_seeded(n, m))
    for reach in LONG_REACHES:
        for shape in LONG_SHAPES:
            for seed in LONG_SEEDS:
                for mode in SEEDED_MODES:
                    yield (f"long-{reach}-{shape}-{seed}/{mode}",
                           lambda r=reach, h=shape, n=seed, m=mode:
                           run_long(r, h, n, m))


#: the engine accounts latency for the memory classes only; the golden
#: file still holds the full tables the retired engines recorded (for
#: the fixed-latency classes: the configured latency read back), and a
#: replay is compared with their memory subset
_MEMORY_CODES = {str(op.value) for op in Opcode
                 if op_class(op) in (OpClass.VECTOR_MEM, OpClass.SCALAR_MEM)}


def _assert_replays(record: dict, expected: dict, what) -> None:
    counters = record.pop("counters")
    if "result" in expected:
        table = expected["result"]["latency_table"]
        expected = {**expected, "result": {
            **expected["result"],
            "latency_table": {code: lat for code, lat in table.items()
                              if code in _MEMORY_CODES}}}
    assert record == expected, what
    assert counters["engine.batch.runs"] == 1


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_replay(case, golden):
    for kernel_name in sorted(KERNELS):
        _assert_replays(run_case(case, kernel_name),
                        golden[f"{case}/{kernel_name}"], kernel_name)


@pytest.mark.parametrize("workload,size", NATURAL)
def test_golden_replay_natural_width(workload, size, golden):
    _assert_replays(run_natural(workload, size),
                    golden[f"natural/{workload}-{size}"], workload)


@pytest.mark.parametrize("mode", sorted(SEEDED_MODES))
def test_golden_replay_seeded_programs(mode, golden):
    for seed in SEEDS:
        _assert_replays(run_seeded(seed, mode),
                        golden[f"seeded-{seed:02d}/{mode}"], seed)


@pytest.mark.parametrize("reach", LONG_REACHES)
@pytest.mark.parametrize("shape", LONG_SHAPES)
def test_golden_replay_long_dependencies(reach, shape, golden):
    for seed in LONG_SEEDS:
        for mode in sorted(SEEDED_MODES):
            _assert_replays(run_long(reach, shape, seed, mode),
                            golden[f"long-{reach}-{shape}-{seed}/{mode}"],
                            (seed, mode))


@pytest.mark.parametrize("reach", LONG_REACHES)
@pytest.mark.parametrize("shape", LONG_SHAPES)
def test_long_programs_reach_past_their_bound(reach, shape, golden):
    """The long corpus is only meaningful while every program has a
    dependency longer than its reach, its stop runs stop with warps
    left to dispatch and the barriers really synchronise."""
    for seed in LONG_SEEDS:
        kernel = long_dependency_factory(
            reach, shape, RandomSource(random.Random(1000 * reach + seed)))()
        traces = WarpPackExecutor(kernel).run_warps_full(
            range(kernel.n_warps))
        far = max(i - d for t in traces.values()
                  for i, d in enumerate(t.dep) if d >= 0)
        assert far > reach, (seed, far)
        assert len({t.n_insts for t in traces.values()}) > 1
        ring = 1 << far.bit_length()
        assert min(t.n_insts for t in traces.values()) > ring
        stop = golden[f"long-{reach}-{shape}-{seed}/stop"]["result"]
        assert stop["stopped"] and stop["undispatched"], seed


def test_golden_trips_and_survivors_both_present(golden):
    """The budgets in CASES are only meaningful while some trip and
    some do not; a kernel-list edit that loses either side shows here."""
    tripped = {key for key, record in golden.items() if "error" in record}
    assert any(key.startswith("watchdog-max-events") for key in tripped)
    assert not any(key.startswith("watchdog-armed-quiet") for key in tripped)
    assert any(golden[key]["result"]["undispatched"]
               for key in golden if key.endswith("-stop/mixed"))


def test_golden_stops_really_stop(golden):
    """The seeded stop lane is only meaningful while some programs are
    long enough to be stopped with work left over."""
    stopped = [golden[f"seeded-{seed:02d}/stop"]["result"]
               for seed in SEEDS]
    assert sum(1 for r in stopped if r["stopped"]) >= len(SEEDS) // 2
    assert any(r["undispatched"] for r in stopped)


if __name__ == "__main__":
    prefix = sys.argv[2] if sys.argv[1:2] == ["--only"] else ""
    fresh = json.loads(GOLDEN.read_text()) if prefix else {}
    for golden_key, run in all_runs():
        if golden_key.startswith(prefix):
            fresh[golden_key] = run()
            del fresh[golden_key]["counters"]
    write_golden(GOLDEN, fresh)
