"""A run's working set depends on its windows, not the grid.

Two buffers of the sampled methods used to grow with the kernel: the BB
detector's pre-gate observations (one list of every block completed
before the retire gate) and the CONTROL fast-forward of the remaining
warps (one fill of the whole rest of the grid, all traces held at
once).  Both are now bounded by a module constant —
``detectors.PENDING_CAPACITY`` observations,
``simulator.CONTROL_FILL_WARPS`` warps per fill — and where the bound
cuts the stream must not change any simulated quantity.

Full detail holds each input once: a builder draws into its arena in
place (the arena bytes are pinned), and a FULL fill holds one int per
distinct line number.
"""

import hashlib
import tracemalloc

import pytest

import repro.core.detectors as detectors
import repro.core.photon as photon
import repro.timing.simulator as simulator
from repro.core import BBVProjector, analyze_kernel
from repro.functional import WarpPackExecutor
from repro.harness.defaults import EVAL_PHOTON, EVAL_R9NANO
from repro.harness.runner import simulate_method
from repro.timing import DetailedEngine
from repro.workloads import REGISTRY, build_pagerank
from repro.workloads.dnn.layers import LayerFactory

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


#: sha256 prefixes of ``memory.image()`` for each builder at two sizes
#: and two seeds, recorded from the builders that copied a temporary
#: into the arena; the in-place builders must draw the same bytes
ARENA_SHA256 = {
    ("aes", 40, 1): "58d3915e259143bd", ("aes", 40, 2): "d950f7f5ff08ed12",
    ("aes", 333, 1): "27b177b4d6090a02", ("aes", 333, 2): "2ee2d18931a57d13",
    ("blackscholes", 40, 1): "85420413bbea39df",
    ("blackscholes", 40, 2): "52bd5202c79384f6",
    ("blackscholes", 333, 1): "c8dfe3e6f4e6589d",
    ("blackscholes", 333, 2): "8f349e8567f8def1",
    ("fir", 40, 1): "e33d79ba9021288b", ("fir", 40, 2): "f68be5639d575714",
    ("fir", 333, 1): "5dee9ad88b69968b", ("fir", 333, 2): "4a4bf9507d777467",
    ("kmeans", 40, 1): "de3f5349e7afe023",
    ("kmeans", 40, 2): "874919228f32080a",
    ("kmeans", 333, 1): "144495b4c753ca05",
    ("kmeans", 333, 2): "de1b1c5129149496",
    ("mm", 40, 1): "6b8b643181163804", ("mm", 40, 2): "a60f05a528a6427c",
    ("mm", 333, 1): "3f4d2f006723d092", ("mm", 333, 2): "63c3a57be790aaac",
    ("nbody", 40, 1): "c14d53a231187673",
    ("nbody", 40, 2): "f2c525ff483c5518",
    ("nbody", 333, 1): "5dc33b85e3258519",
    ("nbody", 333, 2): "38b84a09a477755d",
    ("relu", 40, 1): "c14d53a231187673", ("relu", 40, 2): "f2c525ff483c5518",
    ("relu", 333, 1): "5dc33b85e3258519",
    ("relu", 333, 2): "38b84a09a477755d",
    ("sc", 40, 1): "be0524f7d46dfb14", ("sc", 40, 2): "1c0ce49f047bec24",
    ("sc", 333, 1): "57a2504dc45b3400", ("sc", 333, 2): "f133815840219e6c",
    ("spmv", 40, 1): "8148c1679e7bf56c", ("spmv", 40, 2): "41de21142e0fda36",
    ("spmv", 333, 1): "6a005421e10459b0",
    ("spmv", 333, 2): "1a0ec84a74938d79",
    ("pagerank", 64, 1): "5dc8692faa5034eb",
    ("pagerank", 64, 2): "619111578e81cafc",
    ("pagerank", 700, 1): "0dc16e781707bd6b",
    ("pagerank", 700, 2): "1dcbbb30a46e103d",
    ("dnn", 4096, 1): "526d96dfb858a3c3",
    ("dnn", 4096, 2): "bfebafd61c8a877a",
}


def _build(name, size, seed):
    if name == "pagerank":
        return build_pagerank(size, iterations=2, seed=seed).kernels[0]
    if name == "dnn":
        return LayerFactory(max_act_words=size, max_weight_words=2 * size,
                            seed=seed)
    return REGISTRY[name](size, seed=seed)


def test_every_workload_is_pinned():
    assert {name for name, _, _ in ARENA_SHA256} == \
        set(REGISTRY) | {"pagerank", "dnn"}


@pytest.mark.parametrize("name,size,seed", sorted(ARENA_SHA256))
def test_builders_draw_the_pinned_arena(name, size, seed):
    image = _build(name, size, seed).memory.image()
    assert hashlib.sha256(image.tobytes()).hexdigest()[:16] == \
        ARENA_SHA256[name, size, seed]


@pytest.mark.parametrize("build", [
    lambda: REGISTRY["spmv"](4096),
    lambda: REGISTRY["mm"](1024),
    lambda: build_pagerank(1024, iterations=8),
], ids=["spmv@4096", "mm@1024", "pr-1024"])
def test_building_holds_the_arena_once(build):
    """A builder's traced peak is its arena plus at most 1 MB: inputs
    are drawn into the arena, not into a temporary copied there."""
    tracemalloc.start()
    try:
        built = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kernel = built.kernels[0] if hasattr(built, "kernels") else built
    assert peak <= 8 * kernel.memory.capacity + (1 << 20)


@pytest.mark.parametrize("name,size", [("spmv", 256), ("fir", 128),
                                       ("aes", 256)])
def test_a_fill_holds_one_int_per_distinct_line(name, size):
    """Every line number in a FULL fill's records — vector and scalar
    loads alike — is one object per value, and ``distinct`` still
    counts records, not lines."""
    fill = WarpPackExecutor(REGISTRY[name](size)).fill_full(range(size))
    records = {id(rec): rec for trace in fill.traces.values()
               for rec in trace.mem_lines}
    assert fill.distinct == len(records)
    lines = [line for rec in records.values() for line in rec]
    assert len(lines) > len(set(lines))       # records share lines
    assert len({id(line) for line in lines}) == len(set(lines))
