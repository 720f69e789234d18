"""Functional executor semantics: FULL and CONTROL modes."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.functional import FunctionalExecutor, GlobalMemory, Kernel
from repro.isa import KernelBuilder, MemAddr, OpClass, s, v

from conftest import make_loop_kernel, make_vecadd


def run_single(builder_fn, n_words=512, args=None, warp_id=0):
    mem = GlobalMemory(capacity_words=n_words)
    extra = args(mem) if args else {}
    b = KernelBuilder("t")
    builder_fn(b)
    kernel = Kernel(program=b.build(), n_warps=4, wg_size=2, memory=mem,
                    args=lambda w: extra)
    return FunctionalExecutor(kernel), kernel, mem, warp_id


def test_vecadd_full_semantics():
    kernel = make_vecadd(n_warps=4)
    ex = FunctionalExecutor(kernel)
    for w in range(4):
        ex.run_warp_full(w)
    x = kernel.memory.view("x")
    y = kernel.memory.view("y")
    z = kernel.memory.view("z")
    assert np.array_equal(z, x + y)


def test_control_matches_full_counts_and_blocks():
    kernel = make_loop_kernel(n_warps=6, trips_of=lambda w: 2 + w)
    ex = FunctionalExecutor(kernel)
    for w in range(6):
        full = ex.run_warp_full(w)
        ctrl = ex.run_warp_control(w)
        assert full.n_insts == ctrl.n_insts
        assert [pc for pc, _ in full.bb_seq] == ctrl.bb_seq


def test_data_driven_trip_counts():
    kernel = make_loop_kernel(n_warps=4, trips_of=lambda w: 1 + 2 * w)
    ex = FunctionalExecutor(kernel)
    counts = [ex.run_warp_control(w).bb_counts() for w in range(4)]
    loop_pc = kernel.program.blocks[1].pc
    assert [c[loop_pc] for c in counts] == [1, 3, 5, 7]


def test_scalar_preset_registers():
    seen = {}

    def body(b):
        b.s_endpgm()

    ex, kernel, mem, _ = run_single(body)
    sregs = ex._init_sregs(warp_id=3)
    assert sregs[0] == 3.0  # warp id
    assert sregs[1] == 1.0  # workgroup id (wg_size=2)
    assert sregs[2] == 1.0  # warp within workgroup


def test_exec_mask_limits_store():
    def body(b):
        b.v_lane(v(0))
        b.v_cmp_lt(v(0), 4)  # only lanes 0-3 active
        b.s_exec_from_vcc()
        b.v_mov(v(1), 7.0)
        b.v_store(v(1), MemAddr(base=s(4), index=v(0)))
        b.s_exec_all()
        b.s_endpgm()

    def args(mem):
        return {4: mem.alloc("out", 64)}

    ex, kernel, mem, w = run_single(body, args=args)
    trace = ex.run_warp_full(w)
    out = mem.view("out")
    assert list(out[:4]) == [7.0] * 4
    assert not out[4:].any()
    # masked store touches exactly one line
    store_lines = [m for m, cls in zip(trace.mem_lines, trace.opclass)
                   if cls == int(OpClass.VECTOR_MEM)][0]
    assert len(store_lines) == 1


def test_exec_mask_limits_vector_write():
    def body(b):
        b.v_mov(v(1), 1.0)
        b.v_lane(v(0))
        b.v_cmp_ge(v(0), 32)
        b.s_exec_from_vcc()
        b.v_mov(v(1), 2.0)  # only upper half
        b.s_exec_all()
        b.v_store(v(1), MemAddr(base=s(4), index=v(0)))
        b.s_endpgm()

    def args(mem):
        return {4: mem.alloc("out", 64)}

    ex, kernel, mem, w = run_single(body, args=args)
    ex.run_warp_full(w)
    out = mem.view("out")
    assert list(out[:32]) == [1.0] * 32
    assert list(out[32:]) == [2.0] * 32


def test_cndmask_selects_by_vcc():
    def body(b):
        b.v_lane(v(0))
        b.v_cmp_lt(v(0), 2)
        b.v_cndmask(v(1), 10.0, 20.0)  # vcc ? 20 : 10
        b.v_store(v(1), MemAddr(base=s(4), index=v(0)))
        b.s_endpgm()

    def args(mem):
        return {4: mem.alloc("out", 64)}

    ex, kernel, mem, w = run_single(body, args=args)
    ex.run_warp_full(w)
    out = mem.view("out")
    assert list(out[:2]) == [20.0, 20.0]
    assert list(out[2:4]) == [10.0, 10.0]


def test_integer_vector_ops():
    def body(b):
        b.v_lane(v(0))
        b.v_and(v(1), v(0), 3)
        b.v_lshl(v(2), v(0), 2)
        b.v_lshr(v(3), v(2), 1)
        b.v_xor(v(4), v(0), v(0))
        b.v_store(v(1), MemAddr(base=s(4), index=v(0)))
        b.v_store(v(2), MemAddr(base=s(5), index=v(0)))
        b.v_store(v(3), MemAddr(base=s(6), index=v(0)))
        b.v_store(v(4), MemAddr(base=s(7), index=v(0)))
        b.s_endpgm()

    def args(mem):
        return {4: mem.alloc("a", 64), 5: mem.alloc("b", 64),
                6: mem.alloc("c", 64), 7: mem.alloc("d", 64)}

    ex, kernel, mem, w = run_single(body, n_words=512, args=args)
    ex.run_warp_full(w)
    lanes = np.arange(64)
    assert np.array_equal(mem.view("a"), lanes & 3)
    assert np.array_equal(mem.view("b"), lanes << 2)
    assert np.array_equal(mem.view("c"), lanes << 1)
    assert not mem.view("d").any()


def test_fma_and_mac():
    def body(b):
        b.v_lane(v(0))
        b.v_mov(v(1), 2.0)
        b.v_mac(v(1), v(0), 3.0)  # 2 + 3*lane
        b.v_fma(v(2), v(0), 2.0, 5.0)  # 2*lane + 5
        b.v_store(v(1), MemAddr(base=s(4), index=v(0)))
        b.v_store(v(2), MemAddr(base=s(5), index=v(0)))
        b.s_endpgm()

    def args(mem):
        return {4: mem.alloc("a", 64), 5: mem.alloc("b", 64)}

    ex, kernel, mem, w = run_single(body, args=args)
    ex.run_warp_full(w)
    lanes = np.arange(64)
    assert np.array_equal(mem.view("a"), 2 + 3 * lanes)
    assert np.array_equal(mem.view("b"), 2 * lanes + 5)


def test_dependency_chain_recorded():
    kernel = make_vecadd(n_warps=1)
    trace = FunctionalExecutor(kernel).run_warp_full(0)
    # waitcnt depends on the youngest memory op before it
    waits = [i for i, cls in enumerate(trace.opclass)
             if cls == int(OpClass.WAITCNT)]
    assert len(waits) == 1
    w = waits[0]
    assert trace.dep[w] == w - 1  # second v_load
    # the v_add after waitcnt depends on a load (v1 or v2 producer)
    assert trace.dep[w + 1] >= w - 2


def test_scalar_load_feeds_control():
    kernel = make_loop_kernel(n_warps=2, trips_of=lambda w: 3)
    ctrl = FunctionalExecutor(kernel).run_warp_control(0)
    loop_pc = kernel.program.blocks[1].pc
    assert ctrl.bb_counts()[loop_pc] == 3


def test_runaway_loop_guard():
    def body(b):
        b.label("forever")
        b.s_branch("forever")
        b.s_endpgm()

    ex, kernel, mem, w = run_single(body)
    ex.max_steps = 1000
    with pytest.raises(ExecutionError):
        ex.run_warp_full(w)
    with pytest.raises(ExecutionError):
        ex.run_warp_control(w)


def test_bad_arg_register_rejected():
    kernel = make_vecadd(n_warps=1)
    kernel.args = lambda w: {0: 1.0}  # reserved register
    with pytest.raises(ExecutionError):
        FunctionalExecutor(kernel).run_warp_full(0)


def test_gather_records_coalesced_lines():
    kernel = make_vecadd(n_warps=1)
    trace = FunctionalExecutor(kernel).run_warp_full(0)
    loads = [m for m, cls in zip(trace.mem_lines, trace.opclass)
             if cls == int(OpClass.VECTOR_MEM) and m]
    # 64 consecutive words -> exactly 8 lines per access
    assert all(len(lines) == 8 for lines in loads)


def test_store_flag_marked():
    kernel = make_vecadd(n_warps=1)
    trace = FunctionalExecutor(kernel).run_warp_full(0)
    stores = [i for i, st in enumerate(trace.is_store) if st]
    assert len(stores) == 1
    assert trace.opclass[stores[0]] == int(OpClass.VECTOR_MEM)


# ------------------------------------------ one interpreter, two modes


def test_vector_operand_in_scalar_instruction_rejected():
    """The scalar side is written once, so both modes reject a vector
    operand with the same typed error."""
    def body(b):
        b.v_lane(v(1))
        b.s_add(s(5), v(1), 1)
        b.s_endpgm()

    ex, kernel, mem, w = run_single(body)
    for run in (ex.run_warp_full, ex.run_warp_control):
        with pytest.raises(ExecutionError, match="vector operand v1"):
            run(w)


def test_operand_reader_backs_both_run_modes():
    """CONTROL is the FULL driver with the vector side off: identical
    scalar paths in both modes."""
    kernel = make_loop_kernel(n_warps=2, trips_of=lambda w: 3)
    full = FunctionalExecutor(kernel).run_warp_full(0)
    control = FunctionalExecutor(
        make_loop_kernel(n_warps=2, trips_of=lambda w: 3)
    ).run_warp_control(0)
    assert [pc for pc, _ in full.bb_seq] == control.bb_seq
