"""Golden replay of the retired per-warp interpreter loops.

``tests/golden/functional_traces.json`` was recorded from the scalar
FULL and CONTROL loops (``FunctionalExecutor.run_warp_full`` /
``run_warp_control`` at commit 170c4ca) before they were deleted.  The
lockstep driver now serves those entry points as batches of one and
must reproduce the file exactly: per warp a sha256 of every
``WarpTrace`` column and of the ``ControlTrace``, the final arena, and
for error cases the exception class, its message, the offending warp
and the watchdog's tick count.  A second replay pushes every case
through whole-grid fills, so the same corpus also pins the batched
path — including fills that split on a fault.

``PYTHONPATH=src:tests python tests/test_functional_golden.py`` rewrites
the file from the current interpreter (only after an intended semantic
change); ``--only PREFIX`` rewrites just the cases whose name starts
with ``PREFIX``.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ReproError
from repro.functional import (
    FunctionalExecutor,
    GlobalMemory,
    Kernel,
    WarpPackExecutor,
)
from repro.isa import KernelBuilder, MemAddr, s, v
from repro.obs import MemorySink, scoped_bus
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.reliability.watchdog import WatchdogConfig
from repro.workloads import REGISTRY

from conftest import (
    RandomSource,
    make_faulting_kernel,
    make_inplace_faulting_kernel,
    make_loop_kernel,
    make_split_kernel,
    make_vecadd,
    random_kernel_factory,
)

GOLDEN = Path(__file__).parent / "golden" / "functional_traces.json"

#: warps per registered workload (kmeans/mm/nbody have per-warp loops
#: over the whole problem, so they get the smaller grid)
SMOKE_WARPS = {"aes": 32, "blackscholes": 32, "fir": 32, "kmeans": 16,
               "mm": 16, "nbody": 16, "relu": 32, "sc": 32, "spmv": 32}
N_RANDOM = 60
TRACE_COLUMNS = ("static_idx", "opclass", "opcode", "dep", "mem_lines",
                 "is_store", "bb_seq")


def _kernel(name, emit, n_warps=4, args=None, meta=None, words=1024):
    mem = GlobalMemory(capacity_words=words)
    # one spare leading row: per-warp outputs start at buf + 64
    buf = mem.alloc("buf", np.arange((n_warps + 1) * 64, dtype=np.float64))
    b = KernelBuilder(name)
    emit(b)
    b.s_endpgm()
    return Kernel(program=b.build(), n_warps=n_warps, wg_size=2, memory=mem,
                  args=(lambda w: args(w, buf)) if args else
                  (lambda w: {4: buf}), name=name, meta=meta or {})


def _spin():
    """Warp 0 finishes; the others never leave the loop."""
    def emit(b):
        b.s_cmp_lt(s(0), 1)
        b.s_cbranch_scc1("done")
        b.label("spin")
        b.v_add(v(1), v(1), 1.0)
        b.s_branch("spin")
        b.label("done")
    return _kernel("spin", emit, n_warps=3, meta={"max_steps": 100})


def _oob(access):
    """Warp 2's pointer is out of bounds for one ``access``."""
    def emit(b):
        b.v_lane(v(0))
        b.v_mov(v(1), 5.0)
        if access == "vload":
            b.v_load(v(1), MemAddr(base=s(9), index=v(0)))
        elif access == "vstore":
            b.v_store(v(1), MemAddr(base=s(9), index=v(0)))
        else:
            b.s_load(s(5), MemAddr(base=s(9), offset=3))
        b.s_waitcnt()
        b.v_add(v(1), v(1), s(5))
        b.v_store(v(1), MemAddr(base=s(4), index=v(0)))
    return _kernel(
        f"oob_{access}", emit, n_warps=5,
        args=lambda w, buf: {4: buf + 64 * (w + 1),
                             9: 10**6 if w == 2 else buf})


def _bad_arg():
    kernel = make_vecadd(n_warps=4)
    good = kernel.args
    kernel.args = lambda w: {0: 1.0} if w == 3 else good(w)
    return kernel


def _vector_in_scalar(op):
    """Warps 0 and 1 reach a scalar instruction with a vector operand."""
    def emit(b):
        b.v_lane(v(1))
        b.s_mov(s(5), 2)
        b.s_cmp_lt(s(0), 2)
        b.s_cbranch_scc0("skip")
        if op == "s_mov":
            b.s_mov(s(5), v(1))
        elif op == "s_add":
            b.s_add(s(5), v(1), 1)
        else:
            b.s_cmp_lt(s(5), v(1))
        b.label("skip")
        b.s_add(s(5), s(5), 1)
    return _kernel(f"vector_in_{op}", emit, n_warps=4)


def _trips_kernel():
    return make_loop_kernel(8, trips_of=lambda w: 1 + 3 * w)


def _plain(factory):
    return lambda: (factory(), {})


CASES = {}
for _name, _warps in SMOKE_WARPS.items():
    CASES[f"workload/{_name}"] = _plain(
        lambda n=_name, w=_warps: REGISTRY[n](w))
CASES["kernel/split"] = _plain(lambda: make_split_kernel(8, threshold=3))
CASES["kernel/faulting"] = _plain(make_faulting_kernel)
CASES["kernel/inplace"] = _plain(make_inplace_faulting_kernel)
_rng = random.Random(20260928)
for _i in range(N_RANDOM):
    CASES[f"random/{_i:02d}"] = _plain(
        random_kernel_factory(RandomSource(_rng)))
CASES["ladder/runaway"] = _plain(_spin)
for _access in ("vload", "vstore", "sload"):
    CASES[f"ladder/oob-{_access}"] = _plain(
        lambda a=_access: _oob(a))
CASES["ladder/bad-arg-register"] = _plain(_bad_arg)
for _op in ("s_mov", "s_add", "s_cmp"):
    CASES[f"ladder/vector-operand-{_op}"] = _plain(
        lambda o=_op: _vector_in_scalar(o))
for _at in (1, 2, 5):
    CASES[f"ladder/fault-plan-at-{_at}"] = lambda at=_at: (
        make_vecadd(n_warps=4),
        {"fault_plan": FaultPlan(FaultSpec(site="executor.memory", at=at))})
CASES["ladder/watchdog-quiet"] = lambda: (
    _trips_kernel(), {"watchdog": WatchdogConfig(deadline_seconds=3600.0)})


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def _positional(trace):
    """The corpus's view of ``mem_lines``: one entry per instruction,
    None where no memory instruction issued."""
    assert len(trace.mem_pos) == len(trace.mem_lines)
    view = [None] * trace.n_insts
    for pos, lines in zip(trace.mem_pos, trace.mem_lines):
        view[pos] = lines
    return view


def _full_record(trace):
    assert trace.n_insts == len(trace.dep)
    return [_sha(_positional(trace) if column == "mem_lines"
                 else getattr(trace, column)) for column in TRACE_COLUMNS]


def _control_record(trace):
    return _sha([trace.bb_seq, trace.n_insts])


def _arena(kernel) -> str:
    memory = kernel.memory
    return hashlib.sha256(
        memory._data[:memory.words_allocated].tobytes()).hexdigest()[:16]


def _outcome(call, reduce):
    try:
        return reduce(call())
    except ReproError as exc:
        return {"error": [type(exc).__name__, str(exc)]}


def run_case(name: str) -> dict:
    """Every warp through the per-warp entry points, CONTROL then FULL
    (CONTROL leaves the arena alone), reduced to the golden record.  A
    failing warp is recorded and the pass moves on to the next one."""
    kernel, kwargs = CASES[name]()
    with scoped_bus() as bus:
        # the default bus, so watchdog trip events land in the sink
        sink = bus.add_sink(MemorySink())
        executor = FunctionalExecutor(kernel, **kwargs)
        warps = range(kernel.n_warps)
        control = [_outcome(lambda: executor.run_warp_control(w),
                            _control_record) for w in warps]
        full = [_outcome(lambda: executor.run_warp_full(w), _full_record)
                for w in warps]
    trips = [[e.fields["label"], e.fields["ticks"], e.fields["reason"]]
             for e in sink.of_kind("reliability.watchdog")]
    return {"control": control, "full": full, "arena": _arena(kernel),
            "watchdog": trips}


def run_case_batched(name: str) -> dict:
    """The same case through whole-grid fills.  Errors come back as the
    per-warp stored errors of the fill; a watchdog trip or an injected
    fault stops a fill, so those cases are replayed per warp only."""
    kernel, kwargs = CASES[name]()
    pack = WarpPackExecutor(kernel,
                            executor=FunctionalExecutor(kernel, **kwargs))
    warps = list(range(kernel.n_warps))
    record = {}
    for mode, fill, reduce in (
            ("control", pack.fill_control, _control_record),
            ("full", pack.fill_full, _full_record)):
        done = fill(warps)
        assert sorted(list(done.traces) + list(done.fallback)) == warps
        record[mode] = [
            reduce(done.traces[w]) if w in done.traces else
            {"error": [type(done.fallback[w]).__name__,
                       str(done.fallback[w])]}
            for w in warps]
    record["arena"] = _arena(kernel)
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_corpus_is_complete(golden):
    assert sorted(golden) == sorted(CASES)
    assert sum(name.startswith("random/") for name in golden) >= 50
    assert {name.split("/")[1] for name in golden
            if name.startswith("workload/")} == set(REGISTRY)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_replay(case, golden):
    assert run_case(case) == golden[case]


@pytest.mark.parametrize(
    "case", sorted(name for name in CASES
                   if not name.startswith("ladder/fault-plan")))
def test_golden_replay_batched(case, golden):
    expected = {key: golden[case][key]
                for key in ("control", "full", "arena")}
    assert run_case_batched(case) == expected


def test_golden_has_errors_and_survivors(golden):
    """Each ladder case is only meaningful while some warps fail and
    others finish; a kernel edit that loses either side shows here."""
    for name, record in golden.items():
        if not name.startswith("ladder/") or name.endswith("quiet"):
            continue
        outcomes = record["full"] + record["control"]
        assert any(isinstance(o, dict) for o in outcomes), name
        assert any(not isinstance(o, dict) for o in outcomes), name
    assert not golden["ladder/watchdog-quiet"]["watchdog"]


if __name__ == "__main__":
    prefix = sys.argv[2] if sys.argv[1:2] == ["--only"] else ""
    records = json.loads(GOLDEN.read_text()) if prefix else {}
    for case_name in sorted(CASES):
        if case_name.startswith(prefix):
            records[case_name] = run_case(case_name)
    GOLDEN.parent.mkdir(exist_ok=True)
    # one record per line: a changed case is a one-line diff
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(records[key], sort_keys=True)}"
        for key in sorted(records)) + "\n}\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
