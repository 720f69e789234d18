"""Measurement probes and the IPC helper."""

import pytest

from repro.timing import BBProbe, DetailedEngine, WarpProbe, ipc_over_time

from conftest import make_loop_kernel


def test_ipc_over_time_conversion():
    points = ipc_over_time([10, 20, 0, 5], bucket=100.0)
    assert points[0] == (50.0, 0.1)
    assert points[1] == (150.0, 0.2)
    assert points[2][1] == 0.0
    assert len(points) == 4


def test_bb_probe_filtering(tiny_gpu):
    kernel = make_loop_kernel(n_warps=8, trips_of=lambda w: 3)
    loop_pc = kernel.program.blocks[1].pc
    probe = BBProbe(track_pcs={loop_pc})
    engine = DetailedEngine(kernel, tiny_gpu)
    probe.watch(engine)
    engine.run()
    assert set(probe.records) == {loop_pc}
    assert len(probe.exec_times(loop_pc)) == 8 * 3


def test_bb_probe_dominating_requires_data():
    probe = BBProbe()
    with pytest.raises(ValueError):
        probe.dominating_pc()


def test_bb_probe_exec_times_missing_pc_empty(tiny_gpu):
    probe = BBProbe()
    assert probe.exec_times(1234) == []


def test_warp_probe_ordering(tiny_gpu):
    kernel = make_loop_kernel(n_warps=12, trips_of=lambda w: 2)
    probe = WarpProbe()
    engine = DetailedEngine(kernel, tiny_gpu)
    probe.watch(engine)
    engine.run()
    retires = [r for _, _, r in probe.times]
    assert retires == sorted(retires)  # recorded in retirement order
    assert {w for w, _, _ in probe.times} == set(range(12))


# -------------------------------------------------- ipc edge cases


def test_ipc_over_time_empty_series():
    assert ipc_over_time([], bucket=100.0) == []


def test_ipc_over_time_bucket_larger_than_run():
    # a run shorter than one bucket yields a single midpoint sample
    points = ipc_over_time([37], bucket=1000.0)
    assert points == [(500.0, 0.037)]


def test_ipc_over_time_final_partial_bucket():
    # the engine's histogram puts the tail in a final, partially
    # filled bucket; its midpoint follows the same convention
    points = ipc_over_time([100, 100, 10], bucket=50.0)
    assert len(points) == 3
    assert points[-1] == (125.0, 0.2)


# -------------------------------------------------- dominating_pc ties


def test_bb_probe_dominating_tie_breaks_to_smallest_pc():
    probe = BBProbe()
    probe.records = {0x40: [(0.0, 5.0)], 0x10: [(2.0, 7.0)]}
    assert probe.dominating_pc() == 0x10


def test_bb_probe_dominating_tie_is_insertion_order_independent():
    first = BBProbe()
    first.records = {8: [(0.0, 3.0)], 4: [(0.0, 3.0)]}
    second = BBProbe()
    second.records = {4: [(0.0, 3.0)], 8: [(0.0, 3.0)]}
    assert first.dominating_pc() == second.dominating_pc() == 4


def test_bb_probe_dominating_still_prefers_larger_total():
    probe = BBProbe()
    probe.records = {1: [(0.0, 1.0), (0.0, 1.5)], 2: [(0.0, 3.0)]}
    assert probe.dominating_pc() == 2
