"""Detector elision is a proof, not a heuristic.

``BBSamplingDetector.watch`` / ``WarpSamplingDetector.watch`` subscribe
nothing when the detector cannot fire on the kernel at hand (see
``repro.core.detectors``).  Held here:

* the static claim under it — a block in ``Program.once_per_warp_pcs``
  really appears at most once in every warp's block sequence;
* soundness — the same launch with both detectors force-subscribed (a
  test-local override of the decision; the product has no such switch)
  never switches at an elided level and returns the identical result
  over the identical ``engine.*`` event stream;
* the edge — with exactly as many warps as a verdict needs observations
  the detector stays subscribed;
* the point of it — an elided run has no ``engine.bb`` subscriber and a
  latency table of memory opcodes only: nothing Photon adds is left on
  the engine's instruction path.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import R9_NANO
from repro.core import Photon, PhotonConfig, detectors
from repro.functional import FunctionalExecutor
from repro.harness.defaults import EVAL_PHOTON, EVAL_R9NANO
from repro.harness.runner import workload_factory
from repro.isa.opcodes import OpClass, Opcode, op_class
from repro.obs import (ENGINE_BB, ENGINE_WARP_RETIRE, ENGINE_WG_DISPATCH,
                       MemorySink, scoped_bus)
from repro.timing import DetailedEngine

from conftest import (DrawSource, make_barrier_kernel, make_loop_kernel,
                      make_vecadd, random_kernel_factory,
                      timing_kernel_factory)

GPU = R9_NANO.scaled(4)
FIG13_SMALL = (("mm", 64), ("spmv", 128), ("aes", 64), ("sc", 128),
               ("fir", 128), ("relu", 256))


def _photon_run(factory, gpu, config, force: bool):
    """One Photon launch; ``force`` makes every elision decision come
    out "can fire" for its duration.  Returns the result, the
    ``engine.*`` event digest and the detector events by kind."""
    with pytest.MonkeyPatch.context() as patch, scoped_bus() as bus:
        if force:
            patch.setattr(detectors, "observations_needed",
                          lambda window, mean_check: 0)
        sink = bus.add_sink(MemorySink())
        result = Photon(gpu, config).simulate_kernel(factory())
    # kind + fields: ``seq`` also counts the detector events between
    engine_events = [(e.kind, e.fields) for e in sink.events
                     if e.kind.startswith("engine.")]
    digest = hashlib.sha256(
        json.dumps(engine_events, sort_keys=True).encode()).hexdigest()
    return result, digest, {
        kind: [e.fields for e in sink.of_kind(kind)]
        for kind in ("detector.elided", "detector.switch")}


def _result_fields(result):
    meta = {k: v for k, v in result.meta.items()
            if k not in ("stable_bb_rate", "bb_detector")}
    return (result.kernel_name, result.mode, repr(result.sim_time),
            result.n_insts, result.detail_insts, meta)


def _assert_elision_sound(factory, gpu, config):
    elided, elided_digest, events = _photon_run(
        factory, gpu, config, False)
    forced, forced_digest, forced_events = _photon_run(
        factory, gpu, config, True)
    assert not forced_events["detector.elided"]
    levels = {fields["level"] for fields in events["detector.elided"]}
    # a level proven silent stays silent when made to listen
    assert not [fields for fields in forced_events["detector.switch"]
                if fields["level"] in levels]
    if levels >= {"bb", "warp"}:
        assert forced.mode == "full"
    if levels:
        # with a level still listening either run may switch — but at
        # the same point: the elided level contributed nothing
        assert _result_fields(forced) == _result_fields(elided)
        assert forced_digest == elided_digest
        assert forced_events["detector.switch"] == events["detector.switch"]
    if "bb" in levels:
        assert elided.meta.get("bb_detector") == "cannot_fire" or (
            elided.mode != "full")
        assert "stable_bb_rate" not in elided.meta
    return levels


@st.composite
def launches(draw):
    """A random program and a Photon configuration whose windows sit
    around the program's warp count, so both sides of each elision
    decision are drawn."""
    generator = draw(st.sampled_from((random_kernel_factory,
                                      timing_kernel_factory)))
    factory = generator(DrawSource(draw))
    config = PhotonConfig(
        bb_window=draw(st.sampled_from((2, 4, 8))),
        warp_window=draw(st.sampled_from((2, 4, 8))),
        mean_check=draw(st.booleans()),
        min_sample_warps=4, mean_delta=0.3, bb_retire_gate_fraction=0.1,
        enable_kernel_sampling=False)
    return factory, config


@settings(max_examples=40, deadline=None)
@given(launches())
def test_once_per_warp_blocks_run_at_most_once(launch):
    factory, _ = launch
    kernel = factory()
    once = kernel.program.once_per_warp_pcs
    executor = FunctionalExecutor(kernel)
    for warp in range(kernel.n_warps):
        seq = executor.run_warp_control(warp).bb_seq
        assert all(seq.count(pc) == 1 for pc in set(seq) & once)


@settings(max_examples=60, deadline=None)
@given(launches())
def test_forced_detectors_change_nothing_on_random_programs(launch):
    factory, config = launch
    _assert_elision_sound(factory, GPU, config)


@pytest.mark.parametrize("workload,size", FIG13_SMALL)
def test_forced_detectors_change_nothing_on_fig13(workload, size):
    levels = _assert_elision_sound(
        workload_factory(workload, size, seed=3), EVAL_R9NANO, EVAL_PHOTON)
    # at these sizes no grid reaches warp_window * 2 warps
    assert "warp" in levels


def test_small_windows_exercise_both_sides():
    """The property above is vacuous if nothing is ever elided, or
    everything always is: pin one launch of each kind."""
    config = PhotonConfig(bb_window=4, warp_window=4, mean_check=False,
                          min_sample_warps=4, enable_kernel_sampling=False)
    silent = _assert_elision_sound(lambda: make_vecadd(3), GPU, config)
    assert silent == {"bb", "warp"}
    listening = _assert_elision_sound(lambda: make_vecadd(64), GPU, config)
    assert listening == set()


# -- the n_warps == need edge ----------------------------------------------


def _subscribed(detector_cls, kernel, config, **kwargs):
    from repro.core import BBVProjector, analyze_kernel

    analysis = analyze_kernel(kernel, config, BBVProjector(config.bbv_dim))
    engine = DetailedEngine(kernel, GPU)
    watching = detector_cls(analysis, config, **kwargs).watch(engine)
    kinds = {etype.name for etype, _ in engine._subscriptions}
    return watching, kinds


@pytest.mark.parametrize("mean_check", (True, False))
def test_warp_detector_listens_at_exactly_need(fast_photon_config,
                                               mean_check):
    config = dataclasses.replace(fast_photon_config, mean_check=mean_check)
    need = config.warp_window * (2 if mean_check else 1)
    watching, kinds = _subscribed(detectors.WarpSamplingDetector,
                                  make_vecadd(need), config)
    assert watching and kinds == {"engine.warp_retire"}
    watching, kinds = _subscribed(detectors.WarpSamplingDetector,
                                  make_vecadd(need - 1), config)
    assert not watching and not kinds


@pytest.mark.parametrize("mean_check", (True, False))
def test_bb_detector_listens_at_exactly_need(fast_photon_config,
                                             mean_check):
    """vecadd has no loop: every block is observed once per warp."""
    config = dataclasses.replace(fast_photon_config, mean_check=mean_check)
    need = config.bb_window * (2 if mean_check else 1)
    watching, kinds = _subscribed(detectors.BBSamplingDetector,
                                  make_vecadd(need), config)
    assert watching and kinds == {"engine.bb", "engine.warp_retire"}
    watching, kinds = _subscribed(detectors.BBSamplingDetector,
                                  make_vecadd(need - 1), config)
    assert not watching and not kinds


def test_bb_detector_listens_when_loops_carry_the_share(fast_photon_config):
    """Four warps, but the loop block repeats: 0.97 of the instructions
    can fill a window, so the proof does not apply."""
    kernel = make_loop_kernel(4, trips_of=lambda w: 80)
    assert kernel.n_warps < fast_photon_config.bb_window
    watching, _ = _subscribed(detectors.BBSamplingDetector, kernel,
                              fast_photon_config)
    assert watching
    # ...and does not when the loop is a small part of the warp
    kernel = make_loop_kernel(4, trips_of=lambda w: 1)
    watching, _ = _subscribed(detectors.BBSamplingDetector, kernel,
                              fast_photon_config)
    assert not watching


# -- nothing left on the engine's path -------------------------------------


@pytest.mark.parametrize("workload,size", (("sc", 256), ("spmv", 256),
                                           ("aes", 128)))
def test_elided_run_is_the_full_detail_run(workload, size):
    """Structural zero overhead: no ``engine.bb`` or ``engine.warp_retire``
    subscriber while the engine runs, memory opcodes only in the table."""
    seen = {}

    class Spy(Photon):
        def engine(self, *args, **kwargs):
            engine = super().engine(*args, **kwargs)

            # handlers reach the bus when run() starts: look from
            # inside the run, at a workgroup dispatch
            def on_wg(*_):
                seen["bb"] = engine.bus.channel(ENGINE_BB).active
                seen["retire"] = engine.bus.channel(
                    ENGINE_WARP_RETIRE).active

            engine.subscribe(ENGINE_WG_DISPATCH, on_wg)
            return engine

    with scoped_bus() as bus:
        photon = Spy(EVAL_R9NANO, EVAL_PHOTON)
        result = photon.simulate_kernel(workload_factory(workload, size)())
        counters = bus.metrics.snapshot()["counters"]
    assert result.mode == "full"
    assert result.meta["bb_detector"] == "cannot_fire"
    assert seen["bb"] is False and seen["retire"] is False
    assert counters["detector.bb_elided"] == 1
    assert counters["detector.warp_elided"] == 1
    # the interval model started empty: it holds this run's table
    table = photon.interval_model.latency_table
    assert table
    assert all(op_class(Opcode(code)) in (OpClass.VECTOR_MEM,
                                          OpClass.SCALAR_MEM)
               for code in table)


def test_barrier_kernel_keeps_listening(fast_photon_config):
    """The other side of the structural check: 256 warps >= every need,
    so both detectors subscribe and one of them switches."""
    with scoped_bus() as bus:
        result = Photon(GPU, fast_photon_config).simulate_kernel(
            make_barrier_kernel(256, wg_size=4))
        counters = bus.metrics.snapshot()["counters"]
    assert result.mode == "warp"
    assert "detector.bb_elided" not in counters
    assert "detector.warp_elided" not in counters
