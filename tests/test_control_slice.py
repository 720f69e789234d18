"""The control slice: what CONTROL runs, and that skipping the rest is
sound.  Every case runs the same warps through a FULL and a CONTROL
fill on fresh kernels and requires equal basic-block sequences,
instruction counts and per-warp errors."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.functional import GlobalMemory, Kernel, WarpPackExecutor
from repro.isa import KernelBuilder, MemAddr, Opcode, s, v

from conftest import make_loop_kernel

N_WARPS = 6


def _launch(b, words=N_WARPS * 64 + 64, meta=None):
    program = b.build()

    def build():
        mem = GlobalMemory(capacity_words=words + 64)
        buf = mem.alloc("buf", np.ones(words))
        return Kernel(program=program, n_warps=N_WARPS, wg_size=2,
                      memory=mem, args=lambda w: {4: buf},
                      name=program.name, meta=dict(meta or {}))

    return build


def _address_math():
    """A tap loop whose load address is scalar math no branch reads."""
    b = KernelBuilder("taps")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), 64)
    b.v_add(v(0), v(0), s(3))
    b.s_and(s(7), s(0), 3)            # per-warp trip bound: on the slice
    b.s_add(s(7), s(7), 1)
    b.s_mov(s(9), 0)
    b.label("tap")
    b.s_add(s(10), s(4), s(9))        # tap base: off the slice
    b.s_mul(s(11), s(9), 2)           # off the slice
    b.v_load(v(1), MemAddr(base=s(10), index=v(0)))
    b.s_waitcnt()
    b.v_mac(v(2), v(1), s(11))
    b.s_add(s(9), s(9), 1)
    b.s_cmp_lt(s(9), s(7))
    b.s_cbranch_scc1("tap")
    b.v_store(v(2), MemAddr(base=s(4), index=v(0)))
    b.s_endpgm()
    return _launch(b)


def _vector_operand():
    """Warps 2.. run a scalar add with a vector operand; nothing reads
    its result, but it faults, so CONTROL must run it."""
    b = KernelBuilder("vector_operand")
    b.v_lane(v(1))
    b.s_cmp_lt(s(0), 2)
    b.s_cbranch_scc1("done")
    b.s_add(s(5), v(1), 1)
    b.label("done")
    b.s_endpgm()
    return _launch(b)


def _runaway():
    """Warps 2.. spin forever over off-slice work: both modes stop them
    at the same step."""
    b = KernelBuilder("runaway")
    b.s_cmp_lt(s(0), 2)
    b.s_cbranch_scc1("done")
    b.label("spin")
    b.s_add(s(5), s(5), 1)
    b.v_add(v(1), v(1), 1.0)
    b.s_branch("spin")
    b.label("done")
    b.s_endpgm()
    return _launch(b, meta={"max_steps": 61})


CASES = {
    "branch-fed-by-s_load": lambda: make_loop_kernel(
        N_WARPS, trips_of=lambda w: 1 + w % 4),
    "off-slice-address-math": _address_math(),
    "vector-operand-fault": _vector_operand(),
    "runaway-loop": _runaway(),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_control_equals_full(name):
    build = CASES[name]
    ids = list(range(N_WARPS))
    full = WarpPackExecutor(build()).fill_full(ids)
    ctrl = WarpPackExecutor(build()).fill_control(ids)
    assert sorted(ctrl.traces) == sorted(full.traces)
    for w, trace in full.traces.items():
        assert ctrl.traces[w].n_insts == trace.n_insts
        assert ctrl.traces[w].bb_seq == [pc for pc, _ in trace.bb_seq]
    assert sorted(ctrl.fallback) == sorted(full.fallback)
    for w, exc in full.fallback.items():
        assert isinstance(exc, ExecutionError)
        assert (type(ctrl.fallback[w]), str(ctrl.fallback[w])) \
            == (type(exc), str(exc))
    if name in ("vector-operand-fault", "runaway-loop"):
        assert sorted(full.fallback) == ids[2:]


def test_slice_keeps_the_loop_and_drops_the_address_math():
    program = _address_math()().program
    cut = program.control_slice
    off = [pc for pc, inst in enumerate(program.instructions)
           if pc not in cut.pcs and inst.opcode.name.startswith("S_")
           and inst.opcode not in (Opcode.S_WAITCNT,)]
    # s_mul s3 (vector offset), s_add s10 and s_mul s11 (tap address)
    assert [program.instructions[pc].dst for pc in off] == [s(3), s(10),
                                                            s(11)]
    assert cut.sregs == (0, 7, 9) and not cut.loads


def test_slice_keeps_s_load_and_its_address():
    program = make_loop_kernel(4).program
    cut = program.control_slice
    loads = [pc for pc, inst in enumerate(program.instructions)
             if inst.opcode is Opcode.S_LOAD]
    assert loads and set(loads) <= cut.pcs and cut.loads
    assert 3 in cut.sregs and 4 in cut.sregs  # address s3 = s4 + s0


def test_faulting_scalar_instruction_is_a_seed():
    program = _vector_operand()().program
    add = next(pc for pc, inst in enumerate(program.instructions)
               if inst.opcode is Opcode.S_ADD)
    assert add in program.control_slice.pcs
