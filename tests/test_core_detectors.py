"""BB/warp sampling detectors watching a real engine."""

import dataclasses
import random

import pytest

from repro.core import (BBVProjector, PhotonConfig, StabilityDetector,
                        analyze_kernel)
from repro.core.detectors import BBSamplingDetector, WarpSamplingDetector
from repro.timing import DetailedEngine

from conftest import make_loop_kernel, make_vecadd


def analysis_of(kernel, config):
    return analyze_kernel(kernel, config, BBVProjector(config.bbv_dim))


def test_warp_detector_not_armed_without_dominant_type(
        tiny_gpu, fast_photon_config):
    kernel = make_loop_kernel(n_warps=64, trips_of=lambda w: 1 + w % 5)
    analysis = analysis_of(kernel, fast_photon_config)
    detector = WarpSamplingDetector(analysis, fast_photon_config)
    assert not detector.armed


def test_warp_detector_armed_and_switches(tiny_gpu, fast_photon_config):
    kernel = make_loop_kernel(n_warps=700, trips_of=lambda w: 6)
    analysis = analysis_of(kernel, fast_photon_config)
    detector = WarpSamplingDetector(analysis, fast_photon_config)
    assert detector.armed
    engine = DetailedEngine(kernel, tiny_gpu)
    detector.watch(engine)
    res = engine.run()
    assert detector.switched
    assert res.stopped
    assert detector.mean_warp_duration() > 0
    assert detector.switch_time is not None


def test_bb_detector_switches_and_builds_table(tiny_gpu, fast_photon_config):
    config = dataclasses.replace(fast_photon_config,
                                 enable_warp_sampling=False)
    kernel = make_loop_kernel(n_warps=700, trips_of=lambda w: 6)
    analysis = analysis_of(kernel, config)
    detector = BBSamplingDetector(analysis, config, warp_capacity=160)
    engine = DetailedEngine(kernel, tiny_gpu)
    detector.watch(engine)
    engine.run()
    assert detector.switched
    assert detector.stable_rate >= config.stable_bb_rate
    table = detector.bb_time_table()
    assert table
    for pc, duration in table.items():
        assert duration >= 0
        assert pc in {blk.pc for blk in kernel.program.blocks}


def test_bb_detector_retire_gate_blocks_early_switch(
        tiny_gpu, fast_photon_config):
    """With an impossible gate the detector never switches."""
    config = dataclasses.replace(fast_photon_config,
                                 bb_retire_gate_fraction=1.0)
    kernel = make_loop_kernel(n_warps=300, trips_of=lambda w: 6)
    analysis = analysis_of(kernel, config)
    detector = BBSamplingDetector(analysis, config, warp_capacity=10 ** 9)
    engine = DetailedEngine(kernel, tiny_gpu)
    detector.watch(engine)
    res = engine.run()
    assert not detector.switched
    assert not res.stopped


def test_bb_detector_rate_weighted_by_online_distribution(
        tiny_gpu, fast_photon_config):
    kernel = make_loop_kernel(n_warps=200, trips_of=lambda w: 6)
    analysis = analysis_of(kernel, fast_photon_config)
    detector = BBSamplingDetector(analysis, fast_photon_config,
                                  warp_capacity=10)
    assert detector.stable_rate == 0.0
    # feed one stable stream for the dominant loop block
    loop_pc = kernel.program.blocks[1].pc
    t = 0.0
    for _ in range(3 * fast_photon_config.bb_window):
        detector.on_bb_complete(0, loop_pc, t, t + 10.0)
        t += 4.0
    assert detector.stable_rate == pytest.approx(
        analysis.bb_share[loop_pc])


def _judged_on_arrival(analysis, config, events):
    """The BB detector's state, judging every block as it completes:
    ``stable_rate`` and ``bb_time_table()``."""
    streams, stable, rate = {}, {}, 0.0
    for pc, start, end in events:
        stream = streams.get(pc)
        if stream is None:
            stream = streams[pc] = StabilityDetector(
                config.bb_window, config.delta, config.mean_check,
                config.mean_delta)
        verdict = stream.observe(start, end)
        if verdict != stable.get(pc, False):
            stable[pc] = verdict
            share = analysis.bb_share.get(pc, 0.0)
            rate += share if verdict else -share
    return rate, {pc: s.mean_duration() for pc, s in streams.items()
                  if s.observations >= config.rare_bb_min_samples}


@pytest.mark.parametrize("seed", range(6))
def test_bb_detector_replay_equals_judging_on_arrival(
        fast_photon_config, seed):
    """Observations held for the gate, settled by reads at random points
    (long block streams through ``observe_many``, short ones through
    ``observe``): the rate and the table equal judging every block on
    arrival, to the last bit, and a read never changes them."""
    rng = random.Random(seed)
    kernel = make_loop_kernel(n_warps=200, trips_of=lambda w: 1 + w % 5)
    analysis = analysis_of(kernel, fast_photon_config)
    detector = BBSamplingDetector(analysis, fast_photon_config,
                                  warp_capacity=10 ** 6)
    pcs = sorted(analysis.bb_share) + [999]  # one the analysis never saw
    # noisy durations, and level shifts: verdicts flip both ways
    level = {pc: rng.uniform(5.0, 50.0) for pc in pcs}
    events, t = [], 0.0
    for _ in range(rng.randint(200, 1500)):
        pc = rng.choice(pcs)
        if rng.random() < 0.01:
            level[pc] *= rng.choice((0.5, 2.0))
        t += rng.choice((0.0, rng.uniform(0.1, 3.0)))
        events.append((pc, t, t + level[pc] + rng.uniform(-0.5, 0.5)))
    reads = sorted(rng.sample(range(len(events)), 3))
    for k, (pc, start, end) in enumerate(events):
        detector.on_bb_complete(0, pc, start, end)
        if k in reads:
            rate, table = _judged_on_arrival(analysis, fast_photon_config,
                                             events[:k + 1])
            assert repr(detector.stable_rate) == repr(rate)
    rate, table = _judged_on_arrival(analysis, fast_photon_config, events)
    assert repr(detector.stable_rate) == repr(rate)
    assert repr(detector.bb_time_table()) == repr(table)
    assert repr(detector.stable_rate) == repr(rate)
    assert not detector.switched


def test_retire_gate_scales_with_problem(fast_photon_config):
    kernel = make_vecadd(n_warps=100)
    config = dataclasses.replace(fast_photon_config,
                                 bb_retire_gate_fraction=0.25)
    analysis = analysis_of(kernel, config)
    small_gpu = BBSamplingDetector(analysis, config, warp_capacity=10)
    assert small_gpu.retire_gate == 10  # capped by GPU capacity
    big_gpu = BBSamplingDetector(analysis, config, warp_capacity=10 ** 6)
    assert big_gpu.retire_gate == 25  # fraction of the grid
