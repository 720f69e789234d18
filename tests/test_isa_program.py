"""Basic-block extraction and Program invariants."""

import pytest

from repro.errors import IsaError
from repro.isa import KernelBuilder, MemAddr, Opcode, Program, s, v
from repro.isa.program import static_instruction_mix


def build(fn):
    b = KernelBuilder("t")
    fn(b)
    return b.build()


def test_single_block_program():
    prog = build(lambda b: (b.v_lane(v(0)), b.s_endpgm()))
    assert prog.num_blocks == 1
    assert prog.blocks[0].pc == 0
    assert prog.blocks[0].length == 2


def test_branch_splits_blocks():
    def body(b):
        b.s_mov(s(3), 0)
        b.label("loop")
        b.s_add(s(3), s(3), 1)
        b.s_cmp_lt(s(3), 4)
        b.s_cbranch_scc1("loop")
        b.s_endpgm()

    prog = build(body)
    # blocks: [0], [1..3] (loop body, branch target), [4] (endpgm)
    assert [blk.pc for blk in prog.blocks] == [0, 1, 4]
    assert prog.block_by_pc(1).length == 3


def test_barrier_ends_block():
    """Observation 3: s_barrier terminates a basic block."""
    def body(b):
        b.v_lane(v(0))
        b.s_barrier()
        b.v_mov(v(1), 1.0)
        b.s_endpgm()

    prog = build(body)
    assert [blk.pc for blk in prog.blocks] == [0, 2]
    assert prog.block_at(1).pc == 0  # barrier is the last inst of block 0
    assert prog.block_at(2).pc == 2


def test_forward_branch_target_is_leader():
    def body(b):
        b.s_cmp_lt(s(3), 1)
        b.s_cbranch_scc1("skip")
        b.v_mov(v(0), 0.0)
        b.label("skip")
        b.s_endpgm()

    prog = build(body)
    assert {blk.pc for blk in prog.blocks} == {0, 2, 3}


def test_block_at_every_instruction_is_covered():
    def body(b):
        b.s_mov(s(3), 0)
        b.label("l")
        b.s_add(s(3), s(3), 1)
        b.s_cmp_lt(s(3), 2)
        b.s_cbranch_scc1("l")
        b.v_lane(v(0))
        b.s_barrier()
        b.s_endpgm()

    prog = build(body)
    for i in range(len(prog)):
        blk = prog.block_at(i)
        assert blk.start <= i < blk.end


def test_program_requires_endpgm():
    b = KernelBuilder("t")
    b.v_lane(v(0))
    with pytest.raises(IsaError):
        Program("t", b._insts)


def test_empty_program_rejected():
    with pytest.raises(IsaError):
        Program("t", [])


def test_block_by_pc_unknown_raises():
    prog = build(lambda b: (b.v_lane(v(0)), b.s_endpgm()))
    with pytest.raises(IsaError):
        prog.block_by_pc(1)


def test_block_at_out_of_range_raises():
    prog = build(lambda b: (b.v_lane(v(0)), b.s_endpgm()))
    with pytest.raises(IsaError):
        prog.block_at(99)


def test_fingerprint_stable_and_name_independent():
    def body(b):
        b.v_lane(v(0))
        b.s_endpgm()

    p1 = build(body)
    b2 = KernelBuilder("other_name")
    body(b2)
    p2 = b2.build()
    assert p1.fingerprint == p2.fingerprint

    def body3(b):
        b.v_mov(v(0), 1.0)
        b.s_endpgm()

    assert build(body3).fingerprint != p1.fingerprint

    def body4(b):   # same opcodes and targets, another operand
        b.v_mov(v(0), 2.0)
        b.s_endpgm()

    assert build(body4).fingerprint != build(body3).fingerprint


def test_static_instruction_mix_counts():
    def body(b):
        b.v_lane(v(0))
        b.v_add(v(0), v(0), 1.0)
        b.v_add(v(0), v(0), 2.0)
        b.s_endpgm()

    mix = static_instruction_mix(build(body))
    assert mix["V_ADD"] == 2
    assert mix["V_LANE"] == 1
    assert mix["S_ENDPGM"] == 1


def test_listing_marks_blocks():
    def body(b):
        b.v_lane(v(0))
        b.s_barrier()
        b.s_endpgm()

    listing = build(body).listing()
    assert ".bb_0:" in listing and ".bb_2:" in listing


def test_branch_target_out_of_range_rejected():
    from repro.isa.instructions import Instruction

    insts = [
        Instruction(opcode=Opcode.S_BRANCH, target=99),
        Instruction(opcode=Opcode.S_ENDPGM),
    ]
    with pytest.raises(IsaError):
        Program("bad", insts)


def test_waitcnt_split_option():
    """Future-work block rule: s_waitcnt optionally ends a block."""
    from repro.isa import with_waitcnt_blocks

    def body(b):
        b.v_lane(v(0))
        b.s_waitcnt()
        b.v_mov(v(1), 1.0)
        b.s_endpgm()

    prog = build(body)
    assert prog.num_blocks == 1  # default: waitcnt does not split
    split = with_waitcnt_blocks(prog)
    assert split.num_blocks == 2
    assert [blk.pc for blk in split.blocks] == [0, 2]
    # instruction stream identical, but the blocks (so every analysis
    # built on them) differ: the two must never share an analysis key
    assert split.instructions == prog.instructions
    assert split.fingerprint != prog.fingerprint


def test_waitcnt_split_executes_consistently():
    """The executor honours the finer block structure end to end."""
    from repro.functional import FunctionalExecutor, Kernel
    from repro.isa import with_waitcnt_blocks
    from repro.workloads import build_fir

    kernel = build_fir(8)
    finer = Kernel(
        program=with_waitcnt_blocks(kernel.program),
        n_warps=kernel.n_warps, wg_size=kernel.wg_size,
        memory=kernel.memory, args=kernel.args, name="fir-wcnt")
    coarse = FunctionalExecutor(kernel).run_warp_control(0)
    fine = FunctionalExecutor(finer).run_warp_control(0)
    assert fine.n_insts == coarse.n_insts
    assert len(fine.bb_seq) > len(coarse.bb_seq)


# -- once-per-warp classification (what detector elision rests on) ---------


def _once(fn):
    prog = build(fn)
    return prog, sorted(prog.once_per_warp_pcs)


def test_once_per_warp_straight_line():
    def body(b):
        b.v_lane(v(0))
        b.s_barrier()           # ends a block without a branch
        b.v_add(v(0), v(0), 1.0)
        b.s_endpgm()

    prog, once = _once(body)
    assert once == [blk.pc for blk in prog.blocks] == [0, 2]


def test_once_per_warp_loop_header_body_exit():
    def body(b):
        b.s_mov(s(3), 0)            # 0: header, once
        b.label("loop")
        b.s_add(s(3), s(3), 1)      # 1: body, repeats
        b.s_cmp_lt(s(3), 4)
        b.s_cbranch_scc1("loop")
        b.v_lane(v(0))              # 4: exit, once
        b.s_endpgm()

    prog, once = _once(body)
    assert [blk.pc for blk in prog.blocks] == [0, 1, 4]
    assert once == [0, 4]


def test_once_per_warp_single_block_self_loop():
    def body(b):
        b.label("spin")
        b.s_cbranch_scc1("spin")    # 0: target == branch
        b.s_endpgm()

    _, once = _once(body)
    assert once == [1]


def test_once_per_warp_nested_loops():
    def body(b):
        b.s_mov(s(3), 0)            # 0: once
        b.label("outer")
        b.s_mov(s(4), 0)            # 1: outer only — still repeats
        b.label("inner")
        b.s_add(s(4), s(4), 1)      # 2: inner
        b.s_cmp_lt(s(4), 3)
        b.s_cbranch_scc1("inner")
        b.s_add(s(3), s(3), 1)      # 5: between the two back edges
        b.s_cmp_lt(s(3), 2)
        b.s_cbranch_scc1("outer")
        b.s_endpgm()                # 8: once

    prog, once = _once(body)
    assert [blk.pc for blk in prog.blocks] == [0, 1, 2, 5, 8]
    assert once == [0, 8]


def test_once_per_warp_forward_branch_over_a_block():
    def body(b):
        b.s_cmp_lt(s(0), 4)
        b.s_cbranch_scc0("join")    # forward: spans nothing
        b.v_lane(v(0))              # 2: skipped by some warps, never twice
        b.label("join")
        b.v_add(v(0), v(0), 1.0)    # 3
        b.s_endpgm()

    prog, once = _once(body)
    assert once == [blk.pc for blk in prog.blocks] == [0, 2, 3]


def test_once_per_warp_forward_branch_inside_a_loop_repeats():
    def body(b):
        b.s_mov(s(3), 0)            # 0: once
        b.label("loop")
        b.s_cmp_lt(s(0), 4)         # 1
        b.s_cbranch_scc0("skip")
        b.v_lane(v(0))              # 3: inside the span
        b.label("skip")
        b.s_add(s(3), s(3), 1)      # 4
        b.s_cmp_lt(s(3), 4)
        b.s_cbranch_scc1("loop")
        b.s_endpgm()                # 7: once

    _, once = _once(body)
    assert once == [0, 7]
