"""A sampled method's working set depends on its windows, not the grid.

Two buffers used to grow with the kernel: the BB detector's pre-gate
observations (one list of every block completed before the retire
gate) and the CONTROL fast-forward of the remaining warps (one fill of
the whole rest of the grid, all traces held at once).  Both are now
bounded by a module constant — ``detectors.PENDING_CAPACITY``
observations, ``simulator.CONTROL_FILL_WARPS`` warps per fill — and
where the bound cuts the stream must not change any simulated quantity.
"""

import pytest

import repro.core.detectors as detectors
import repro.core.photon as photon
import repro.timing.simulator as simulator
from repro.core import BBVProjector, analyze_kernel
from repro.harness.defaults import EVAL_PHOTON, EVAL_R9NANO
from repro.harness.runner import simulate_method
from repro.timing import DetailedEngine
from repro.workloads import REGISTRY

from conftest import make_loop_kernel

LOOP_STREAMS = {
    "uniform": lambda: make_loop_kernel(n_warps=700, trips_of=lambda w: 6),
    "irregular": lambda: make_loop_kernel(n_warps=500,
                                          trips_of=lambda w: 1 + w % 7),
}


def _detector_state(detector):
    """Everything a verdict or a prediction reads from ``detector``."""
    return (dict(detector._stable), detector.stable_rate.hex(),
            list(detector.bb_time_table().items()), detector.switch_time,
            detector.switched)


def _result_state(result):
    return (result.sim_time.hex(), result.n_insts, result.mode,
            result.detail_insts, repr(sorted(result.meta.items())))


def _loop_run(gpu, config, kernel):
    analysis = analyze_kernel(kernel, config, BBVProjector(config.bbv_dim))
    detector = detectors.BBSamplingDetector(
        analysis, config, warp_capacity=gpu.n_cu * gpu.max_warps_per_cu)
    engine = DetailedEngine(kernel, gpu)
    assert detector.watch(engine)
    result = engine.run()
    return _detector_state(detector), (result.end_time.hex(),
                                       result.n_insts)


def _photon_run(monkeypatch, name, size):
    """Photon on ``name@size`` at the evaluation config: the result and
    the state of every BB detector it built."""
    built = []

    class Recorded(detectors.BBSamplingDetector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(photon, "BBSamplingDetector", Recorded)
        result = simulate_method(REGISTRY[name](size), "photon",
                                 EVAL_R9NANO, EVAL_PHOTON)
    return _result_state(result), [_detector_state(d) for d in built]


@pytest.mark.parametrize("capacity", [1, 7])
@pytest.mark.parametrize("stream", sorted(LOOP_STREAMS))
def test_pending_capacity_changes_no_verdict_on_loop_streams(
        monkeypatch, tiny_gpu, fast_photon_config, stream, capacity):
    """Replaying the pre-gate blocks every ``capacity`` observations
    leaves the verdicts, the rate (to the bit), the time table and the
    switch where one replay at the gate left them."""
    reference = _loop_run(tiny_gpu, fast_photon_config,
                          LOOP_STREAMS[stream]())
    monkeypatch.setattr(detectors, "PENDING_CAPACITY", capacity)
    assert _loop_run(tiny_gpu, fast_photon_config,
                     LOOP_STREAMS[stream]()) == reference
    assert reference[0][-1]  # the detector switched


@pytest.mark.parametrize("capacity", [7, 1021])
def test_pending_capacity_changes_no_result_on_nbody(monkeypatch,
                                                     capacity):
    """``nbody@256`` completes ~68K blocks before its gate: the full
    Photon run is the same with the buffer cut at 7, 1,021 or 8,192
    observations (a cut at every observation, as on the loop streams,
    takes ~36 s here: 68K replays)."""
    reference = _photon_run(monkeypatch, "nbody", 256)
    monkeypatch.setattr(detectors, "PENDING_CAPACITY", capacity)
    assert _photon_run(monkeypatch, "nbody", 256) == reference
    assert reference[1]  # a BB detector was built


def test_pending_buffer_never_exceeds_its_capacity(monkeypatch):
    """On ``nbody@256`` (68K pre-gate blocks) the buffer is judged when
    it fills and never holds more."""
    held = []
    settle = detectors.BBSamplingDetector._settle

    def spy(self):
        held.append(len(self._pending) // 3)
        settle(self)

    monkeypatch.setattr(detectors.BBSamplingDetector, "_settle", spy)
    simulate_method(REGISTRY["nbody"](256), "photon", EVAL_R9NANO,
                    EVAL_PHOTON)
    assert max(held) == detectors.PENDING_CAPACITY
    assert sum(held) > detectors.PENDING_CAPACITY


#: a cell where each method fast-forwards warps: PKA and GTPin profile
#: every warp, Photon and TBPoint the warps left when they stop
FAST_FORWARDS = {"photon": ("kmeans", 512, "bb"),
                 "pka": ("kmeans", 512, "pka-ipc"),
                 "gtpin": ("kmeans", 512, "gtpin-full"),
                 "tbpoint": ("fir", 512, "tbpoint")}


@pytest.mark.parametrize("method", sorted(FAST_FORWARDS))
def test_control_fills_are_bounded(monkeypatch, method):
    """No fill ``Methodology.control_traces`` makes covers more than
    ``CONTROL_FILL_WARPS`` warps, and where the fills are cut changes
    no result."""
    name, size, mode = FAST_FORWARDS[method]
    reference = simulate_method(REGISTRY[name](size), method,
                                EVAL_R9NANO, EVAL_PHOTON)
    fills = []

    class Recorded(simulator.WarpPackExecutor):
        def fill_control(self, warp_ids):
            fills.append(len(warp_ids))
            return super().fill_control(warp_ids)

    chunk = 16
    monkeypatch.setattr(simulator, "WarpPackExecutor", Recorded)
    monkeypatch.setattr(simulator, "CONTROL_FILL_WARPS", chunk)
    result = simulate_method(REGISTRY[name](size), method, EVAL_R9NANO,
                             EVAL_PHOTON)
    assert result.mode == mode
    assert max(fills) <= chunk < sum(fills)
    assert _result_state(result) == _result_state(reference)
