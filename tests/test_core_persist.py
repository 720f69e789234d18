"""Online analyses persisted in the trace store (§6.3).

Photon keeps each fresh analysis beside its kernel's trace bundle, one
sealed record per ``analysis_key``; a memo miss in a later run reads it
back instead of analysing again.  The hardening contract is the
bundles': checksummed, written atomically, and a corrupt entry is
quarantined and re-analysed, never trusted or fatal."""

import json

import pytest

import repro.core.photon
from repro.core import AnalysisStore, OnlineAnalysis, Photon
from repro.core.online import analysis_key
from repro.errors import DiskFault
from repro.obs import EventBus
from repro.reliability import FsFaultPlan, FsFaultSpec, scoped_fs_faults
from repro.timing.tracecache import TraceCache
from repro.tracestore import TraceStore

from conftest import make_loop_kernel, make_vecadd


def _kernels():
    return [make_vecadd(n_warps=16),
            make_loop_kernel(n_warps=16, trips_of=lambda w: 3)]


def _run(gpu, config, store, bus=None):
    """Photon over fresh kernels with a private memo and ``store``."""
    memo = AnalysisStore()
    sim = Photon(gpu, config, analysis_store=memo, bus=bus,
                 trace_cache=TraceCache(backing_store=store))
    results = [sim.simulate_kernel(kernel) for kernel in _kernels()]
    return memo, [(r.sim_time, r.n_insts, r.mode) for r in results]


def _entry(store, kernel, config):
    (path,) = store.root.glob(f"*.{analysis_key(kernel, config)}.ana")
    return path


@pytest.fixture
def populated(tiny_gpu, fast_photon_config, tmp_path):
    store = TraceStore(tmp_path / "ts")
    memo, results = _run(tiny_gpu, fast_photon_config, store)
    return store, memo, results


def test_analysis_store_roundtrip(populated, fast_photon_config):
    """Every analysis comes back from the store as it was computed:
    every field, dict iteration order and bbv bytes included."""
    store, memo, _ = populated
    assert len(list(store.root.glob("*.ana"))) == len(memo) == 2
    reader = TraceStore(store.root)
    for kernel in _kernels():
        akey = analysis_key(kernel, fast_photon_config)
        original = memo._entries[akey]
        restored = OnlineAnalysis.from_record(
            reader.get_analysis(kernel, akey), kernel.name)
        assert restored.kernel_name == original.kernel_name
        assert restored.to_record() == original.to_record()
        assert list(restored.bb_share.items()) == \
            list(original.bb_share.items())
        assert restored.gpu_bbv.tobytes() == original.gpu_bbv.tobytes()


def test_reloaded_store_serves_photon(populated, tiny_gpu,
                                      fast_photon_config, monkeypatch):
    """A second Photon over the store analyses nothing and simulates
    the same results."""
    store, _, cold = populated

    def no_analysis(*args, **kwargs):
        raise AssertionError("analysed although the store holds it")

    monkeypatch.setattr(repro.core.photon, "analyze_kernel", no_analysis)
    bus = EventBus()
    memo, warm = _run(tiny_gpu, fast_photon_config,
                      TraceStore(store.root), bus=bus)
    assert warm == cold
    assert memo.misses == 2 and memo.hits == 0
    assert bus.metrics.snapshot()["counters"][
        "analysis.trace_store_hits"] == 2


def test_saved_payload_carries_valid_checksum(populated):
    from repro.durable import unseal

    store, memo, _ = populated
    for path in store.root.glob("*.ana"):
        entry = unseal(path.read_bytes())
        assert entry is not None
        assert path.name.split(".")[1] == entry["analysis_key"]
        assert entry["analysis_key"] in memo._entries


def test_checksum_is_order_independent():
    from repro.durable import payload_checksum

    a = {"version": 2, "entries": [1, 2], "n": 3}
    b = {"n": 3, "entries": [1, 2], "version": 2}
    assert payload_checksum(a) == payload_checksum(b)


def test_tampered_payload_rejected(populated, fast_photon_config):
    """Still JSON but failing its checksum: quarantined, a miss."""
    store, _, _ = populated
    kernel = make_vecadd(n_warps=16)
    path = _entry(store, kernel, fast_photon_config)
    entry = json.loads(path.read_text())
    entry["analysis"]["n_warps"] += 1  # silent bit flip
    path.write_text(json.dumps(entry))
    reader = TraceStore(store.root)
    assert reader.get_analysis(
        kernel, analysis_key(kernel, fast_photon_config)) is None
    assert reader.quarantined == 1


def test_corrupt_entry_quarantined_not_fatal(populated, tiny_gpu,
                                             fast_photon_config):
    """A sealed entry that does not decode is quarantined, re-analysed
    to the same result, and healed; the healthy entry still serves."""
    from repro.durable import seal

    store, _, cold = populated
    path = _entry(store, make_vecadd(n_warps=16), fast_photon_config)
    entry = json.loads(path.read_text())
    del entry["analysis"]["bb_share"]  # break one entry only
    path.write_bytes(seal(entry))
    bus = EventBus()
    reader = TraceStore(store.root)
    _, warm = _run(tiny_gpu, fast_photon_config, reader, bus=bus)
    assert warm == cold
    assert reader.quarantined == 1
    assert bus.metrics.snapshot()["counters"][
        "analysis.trace_store_hits"] == 1
    assert "bb_share" in json.loads(path.read_text())["analysis"]


def test_save_is_atomic_no_tmp_left_behind(populated, fast_photon_config):
    """Puts leave no temp files; a torn put keeps the previous entry."""
    store, _, _ = populated
    assert list(store.root.rglob("*.tmp")) == []
    kernel = make_vecadd(n_warps=16)
    path = _entry(store, kernel, fast_photon_config)
    before = path.read_bytes()
    plan = FsFaultPlan(FsFaultSpec(site="tracestore.analysis", mode="torn"))
    with scoped_fs_faults(plan), pytest.raises(DiskFault):
        store.put_analysis(kernel,
                           analysis_key(kernel, fast_photon_config),
                           {"n_warps": 0})
    assert path.read_bytes() == before
    assert list(store.root.rglob("*.tmp")) == []


def test_save_overwrites_existing_file(populated, fast_photon_config):
    """A put replaces a different entry and skips an identical one."""
    store, _, _ = populated
    kernel = make_vecadd(n_warps=16)
    akey = analysis_key(kernel, fast_photon_config)
    record = {"n_warps": 1, "gpu_bbv": [0.5]}
    assert store.put_analysis(kernel, akey, record) is True
    assert store.put_analysis(kernel, akey, record) is False
    assert store.get_analysis(kernel, akey) == record


def test_non_object_payload_rejected(populated, fast_photon_config):
    store, _, _ = populated
    kernel = make_vecadd(n_warps=16)
    _entry(store, kernel, fast_photon_config).write_text("[1, 2, 3]")
    assert store.get_analysis(
        kernel, analysis_key(kernel, fast_photon_config)) is None
    assert store.quarantined == 1
