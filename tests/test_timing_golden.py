"""Golden replay of the runs that cannot use vector rounds.

``tests/golden/timing_engine.json`` was recorded from the retired heap
loop (``DetailedEngine._run`` at commit 1ea305a), which is where armed
watchdogs and fractional start times / latencies used to execute.  The
round engine now replays those runs member by member and must reproduce
the file exactly: every ``EngineResult`` field, a digest of the full
event sequence, and for watchdog trips the exception class, its message
and the ``reliability.watchdog`` event.

The cases run with both vector thresholds forced down to 2, so the
equality also proves that the engine — not the narrow test kernels —
keeps these runs off the vector path (``engine.batch.rounds == 0``).

``PYTHONPATH=src:tests python tests/test_timing_golden.py`` rewrites the
file from the current engine (only after an intended model change).
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.config import R9_NANO
from repro.errors import ReproError
from repro.functional import GlobalMemory, Kernel
from repro.isa import KernelBuilder, MemAddr, s, v
from repro.obs import MemorySink, scoped_bus
from repro.reliability.watchdog import WatchdogConfig
from repro.timing import DetailedEngine

from conftest import (
    make_barrier_kernel,
    make_loop_kernel,
    make_vecadd,
    request_stop_after_bbs,
    vec_thresholds,
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

# name -> (vector rounds are off because, engine kwargs, GpuConfig
# overrides, request_stop after this many basic blocks)
CASES = {}
for _budget in (1, 17, 100, 333):
    CASES[f"watchdog-max-events-{_budget}"] = (
        "watchdog", {"watchdog": WatchdogConfig(max_events=_budget)}, {},
        None)
for _stall in (1, 3):
    CASES[f"watchdog-stall-events-{_stall}"] = (
        "watchdog", {"watchdog": WatchdogConfig(stall_events=_stall)}, {},
        None)
_QUIET = WatchdogConfig(max_events=10**9, stall_events=10**6)
CASES["watchdog-armed-quiet"] = ("watchdog", {"watchdog": _QUIET}, {}, None)
CASES["watchdog-armed-quiet-stop"] = (
    "watchdog", {"watchdog": _QUIET, **_ACCOUNTING}, {}, 9)
CASES["start-time"] = ("fractional_start_time", {"start_time": 0.5}, {}, None)
CASES["start-time-stop"] = (
    "fractional_start_time", {"start_time": 0.5, **_ACCOUNTING}, {}, 9)
# non-dyadic values: every add rounds, so the order of operations shows
for _field, _value in (("issue_interval", 1.3), ("scalar_alu_lat", 1.1),
                       ("vector_alu_lat", 4.7), ("branch_lat", 1.3),
                       ("lds_lat", 8.6), ("cp_dispatch_interval", 8.3)):
    CASES[_field] = ("fractional_latency", {}, {_field: _value}, None)
    CASES[f"{_field}-stop"] = (
        "fractional_latency", dict(_ACCOUNTING), {_field: _value}, 9)


def run_case(case: str, kernel_name: str) -> dict:
    """One engine run, reduced to the JSON record the golden file holds."""
    _, engine_kwargs, gpu_overrides, stop_after = CASES[case]
    record = {}
    with scoped_bus() as bus:
        # the default bus, so the watchdog's trip event lands in the sink
        sink = bus.add_sink(MemorySink())
        engine = DetailedEngine(KERNELS[kernel_name](),
                                dataclasses.replace(GPU, **gpu_overrides),
                                **engine_kwargs)
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
    events = [e.to_dict() for e in sink.events
              if e.kind.startswith(("engine.", "reliability."))]
    record["n_events"] = len(events)
    record["events_sha256"] = hashlib.sha256(
        json.dumps(events, sort_keys=True).encode()).hexdigest()
    record["watchdog_events"] = [
        e for e in events if e["kind"] == "reliability.watchdog"]
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_replay(case, golden):
    reason = CASES[case][0]
    for kernel_name in sorted(KERNELS):
        with vec_thresholds(2):
            record = run_case(case, kernel_name)
        counters = record.pop("counters")
        assert record == golden[f"{case}/{kernel_name}"], kernel_name
        assert counters["engine.batch.runs"] == 1
        assert counters.get("engine.batch.rounds", 0) == 0
        assert [name for name in counters
                if name.startswith("engine.batch.member_only.")] == [
            f"engine.batch.member_only.{reason}"]


def test_golden_trips_and_survivors_both_present(golden):
    """The budgets in CASES are only meaningful while some trip and
    some do not; a kernel-list edit that loses either side shows here."""
    tripped = {key for key, record in golden.items() if "error" in record}
    assert any(key.startswith("watchdog-max-events") for key in tripped)
    assert any(key.startswith("watchdog-stall-events") for key in tripped)
    assert not any(key.startswith("watchdog-armed-quiet") for key in tripped)
    assert any(golden[key]["result"]["undispatched"]
               for key in golden if key.endswith("-stop/mixed"))


if __name__ == "__main__":
    records = {}
    for case_name in sorted(CASES):
        for kernel in sorted(KERNELS):
            rec = run_case(case_name, kernel)
            del rec["counters"]
            records[f"{case_name}/{kernel}"] = rec
    GOLDEN.parent.mkdir(exist_ok=True)
    # one record per line: a changed case is a one-line diff
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(rec, sort_keys=True)}"
        for key, rec in records.items()) + "\n}\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
