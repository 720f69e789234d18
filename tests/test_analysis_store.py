"""The content-keyed analysis store (paper §6.3 reuse).

A store hit must hand Photon exactly the analysis a fresh online
analysis of that launch would produce, in this process or in another
one; which launch it was first computed for is only a label."""

import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro.core.photon
from repro.cli import APP_BUILDERS
from repro.core import AnalysisStore, Photon
from repro.core.online import analysis_key
from repro.harness.defaults import EVAL_PHOTON, EVAL_R9NANO
from repro.obs import DETECTOR_ELIDED, DETECTOR_SWITCH, EventBus, MemorySink
from repro.workloads.dnn import LayerFactory

from conftest import make_loop_kernel

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _signature(app_result):
    return [(k.kernel_name, k.sim_time, k.n_insts, k.mode)
            for k in app_result.kernels]


@pytest.mark.parametrize("app", ["vgg16", "resnet50"])
def test_store_equals_analysing_every_launch(app, monkeypatch):
    """Every kernel's sim_time, n_insts and mode with an explicit store
    equal a run that analyses every launch afresh."""
    store = AnalysisStore()
    warm = Photon(EVAL_R9NANO, EVAL_PHOTON, analysis_store=store) \
        .simulate_app(APP_BUILDERS[app]())
    assert store.hits > 0
    fresh = itertools.count()
    monkeypatch.setattr(repro.core.photon, "analysis_key",
                        lambda kernel, config: str(next(fresh)))
    cold_store = AnalysisStore()
    cold = Photon(EVAL_R9NANO, EVAL_PHOTON, analysis_store=cold_store) \
        .simulate_app(APP_BUILDERS[app]())
    assert cold_store.hits == 0
    assert _signature(warm) == _signature(cold)


_SECOND_PROCESS = """
import json, sys
from repro.cli import APP_BUILDERS
from repro.core import AnalysisStore, Photon
from repro.harness.defaults import EVAL_PHOTON, EVAL_R9NANO
from repro.obs import EventBus
from repro.timing.tracecache import TraceCache
from repro.tracestore import TraceStore

root, out = sys.argv[1], sys.argv[2]
memo, bus = AnalysisStore(), EventBus()
cache = TraceCache(backing_store=TraceStore(root))
app = APP_BUILDERS["resnet18"]()
result = Photon(EVAL_R9NANO, EVAL_PHOTON, analysis_store=memo, bus=bus,
                trace_cache=cache).simulate_app(app)
cache.flush()
counters = bus.metrics.snapshot()["counters"]
json.dump({"memo_hits": memo.hits,
           "stored": counters.get("analysis.trace_store_hits", 0),
           "launches": app.n_kernels,
           "kernels": [[k.kernel_name, k.sim_time, k.n_insts, k.mode]
                       for k in result.kernels]}, open(out, "w"))
"""


def test_saved_store_hits_in_a_second_interpreter(tmp_path):
    """Keys are stable across processes (and hash seeds): the analyses
    one interpreter leaves in a trace store serve every launch its
    memo misses in the next, with bit-equal results."""
    runs = []
    for seed, mode in (("1", "cold"), ("2", "warm")):
        out = tmp_path / f"{mode}.json"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                   PYTHONHASHSEED=seed)
        subprocess.run([sys.executable, "-c", _SECOND_PROCESS,
                        str(tmp_path / "ts"), str(out)], check=True,
                       env=env, cwd=str(REPO_ROOT), timeout=300)
        runs.append(json.loads(out.read_text()))
    cold, warm = runs
    assert cold["stored"] == 0
    assert warm["memo_hits"] == cold["memo_hits"]
    assert warm["stored"] == warm["launches"] - warm["memo_hits"] > 0
    assert warm["kernels"] == cold["kernels"]


def test_key_reads_trip_counts_not_pointers():
    """Two conv layers of one shape on different buffers share a key;
    a layer with more input channels (a longer tap loop) on the same
    grid does not (the old program-and-grid key aliased them)."""
    factory = LayerFactory()
    a = factory.conv2d("a", 8, 8, 4, 8, in_slot=0, out_slot=1)
    b = factory.conv2d("b", 8, 8, 4, 8, in_slot=1, out_slot=2)
    wider = factory.conv2d("wider", 8, 8, 8, 8)
    assert a.n_warps == wider.n_warps
    assert analysis_key(a, EVAL_PHOTON) == analysis_key(b, EVAL_PHOTON)
    assert analysis_key(a, EVAL_PHOTON) != analysis_key(wider, EVAL_PHOTON)


def test_key_reads_memory_when_an_s_load_is_on_the_slice():
    """Trip counts loaded from memory are part of the key."""
    same = analysis_key(make_loop_kernel(16, trips_of=lambda w: 3),
                        EVAL_PHOTON)
    assert same == analysis_key(make_loop_kernel(16, trips_of=lambda w: 3),
                                EVAL_PHOTON)
    assert same != analysis_key(make_loop_kernel(16, trips_of=lambda w: 4),
                                EVAL_PHOTON)


def test_detector_events_name_the_launch():
    """With kernel sampling off, repeated vgg16 layers reach the detailed
    phase on a store hit; their detector events still name them."""
    bus = EventBus()
    sink = bus.add_sink(MemorySink(),
                        kinds=[DETECTOR_SWITCH.name, DETECTOR_ELIDED.name])
    photon = Photon(EVAL_R9NANO,
                    EVAL_PHOTON.with_levels(kernel=False, warp=True, bb=True),
                    bus=bus)
    served = 0
    for kernel in APP_BUILDERS["vgg16"]():
        seen, hits = len(sink.events), photon.analysis_store.hits
        photon.simulate_kernel(kernel)
        names = {e.fields["kernel"] for e in sink.events[seen:]}
        assert names <= {kernel.name}
        served += bool(names) and photon.analysis_store.hits > hits
    assert served > 0


def test_reuse_is_counted_on_the_bus():
    bus = EventBus()
    photon = Photon(EVAL_R9NANO, EVAL_PHOTON, bus=bus)
    app = APP_BUILDERS["resnet18"]()
    photon.simulate_app(app)
    counters = bus.metrics.snapshot()["counters"]
    store = photon.analysis_store
    assert counters["analysis.store_hits"] == store.hits > 0
    assert counters["analysis.store_misses"] == store.misses
    assert store.hits + store.misses == app.n_kernels
