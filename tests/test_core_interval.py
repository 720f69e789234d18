"""Interval model for rare basic blocks (Figure 9)."""

import pytest

from repro.core import IntervalModel, default_latency
from repro.isa import KernelBuilder, MemAddr, Opcode, s, v


def straightline_program():
    b = KernelBuilder("p")
    b.v_lane(v(0))  # independent
    b.v_mov(v(1), 1.0)  # independent
    b.v_add(v(2), v(0), v(1))  # depends on both
    b.v_mul(v(3), v(2), 2.0)  # depends on v2
    b.s_endpgm()
    return b.build()


def test_default_latencies_by_class(tiny_gpu):
    assert default_latency(Opcode.V_ADD, tiny_gpu) == tiny_gpu.vector_alu_lat
    assert default_latency(Opcode.S_ADD, tiny_gpu) == tiny_gpu.scalar_alu_lat
    assert default_latency(Opcode.V_LOAD, tiny_gpu) == tiny_gpu.l1_lat
    assert default_latency(Opcode.S_LOAD, tiny_gpu) == tiny_gpu.l1_lat
    assert default_latency(Opcode.DS_READ, tiny_gpu) == tiny_gpu.lds_lat
    assert default_latency(Opcode.S_BRANCH, tiny_gpu) == tiny_gpu.branch_lat


def test_dependency_chain_lengthens_block(tiny_gpu):
    prog = straightline_program()
    model = IntervalModel(tiny_gpu)
    block = prog.blocks[0]
    time = model.bb_time(prog, block)
    lat = tiny_gpu.vector_alu_lat
    # v_add waits for v_mov/v_lane; v_mul waits for v_add:
    # issue0=0 ret=lat; add issues at lat, ret 2lat; mul at 2lat, ret 3lat
    assert time >= 3 * lat


def test_independent_ops_pipeline(tiny_gpu):
    b = KernelBuilder("p")
    for i in range(4):
        b.v_mov(v(i), float(i))  # fully independent
    b.s_endpgm()
    prog = b.build()
    time = IntervalModel(tiny_gpu).bb_time(prog, prog.blocks[0])
    # pipelined: last issues at 4 (endpgm block included), plus one latency
    assert time <= 4 * tiny_gpu.issue_interval + tiny_gpu.vector_alu_lat + 1


def test_observed_latency_table_overrides_defaults(tiny_gpu):
    prog = straightline_program()
    block = prog.blocks[0]
    slow = IntervalModel(tiny_gpu, {Opcode.V_ADD.value: 500.0})
    fast = IntervalModel(tiny_gpu)
    assert slow.bb_time(prog, block) > fast.bb_time(prog, block)


def test_update_merges_latencies(tiny_gpu):
    model = IntervalModel(tiny_gpu)
    model.update({Opcode.V_ADD.value: 7.0})
    model.update({Opcode.V_MUL.value: 9.0})
    assert model.latency_table[Opcode.V_ADD.value] == 7.0
    assert model.latency_table[Opcode.V_MUL.value] == 9.0


def test_memory_ops_use_cache_latency_defaults(tiny_gpu):
    b = KernelBuilder("p")
    b.v_lane(v(0))
    b.v_load(v(1), MemAddr(base=s(4), index=v(0)))
    b.s_waitcnt()
    b.v_add(v(2), v(1), 1.0)
    b.s_endpgm()
    prog = b.build()
    time = IntervalModel(tiny_gpu).bb_time(prog, prog.blocks[0])
    assert time >= tiny_gpu.l1_lat  # load on the critical path


def test_interval_time_close_to_detailed_single_warp(tiny_gpu):
    """For one lone warp the interval model should be within ~2x of the
    engine (no contention)."""
    from repro.timing import DetailedEngine

    from conftest import make_vecadd

    kernel = make_vecadd(n_warps=1)
    res = DetailedEngine(kernel, tiny_gpu).run()
    detailed = res.end_time
    prog = kernel.program
    model = IntervalModel(tiny_gpu)
    predicted = sum(model.bb_time(prog, blk) for blk in prog.blocks)
    assert predicted == pytest.approx(detailed, rel=1.0)
    assert predicted > 0


def test_empty_table_reads_configured_fixed_latencies():
    """The engine's latency table holds memory opcodes only; for every
    fixed-latency opcode the model must fall back to exactly what the
    engine charges (``lat_of`` in ``timing/engine.py``)."""
    from repro.harness.defaults import EVAL_MI100, EVAL_R9NANO
    from repro.isa.instructions import Instruction
    from repro.isa.opcodes import OpClass, op_class

    for gpu in (EVAL_R9NANO, EVAL_MI100):
        charged = {
            OpClass.SCALAR_ALU: gpu.scalar_alu_lat,
            OpClass.VECTOR_ALU: gpu.vector_alu_lat,
            OpClass.LDS: gpu.lds_lat,
            OpClass.BRANCH: gpu.branch_lat,
            OpClass.WAITCNT: gpu.branch_lat,
        }
        model = IntervalModel(gpu)
        fixed = [op for op in Opcode if op_class(op) in charged]
        assert len(fixed) > 40
        for op in fixed:
            latency = model.latency_of(Instruction(opcode=op))
            assert latency == float(charged[op_class(op)]), op
            assert isinstance(latency, float)
