"""JSON persistence of the analysis store and kernel DB (§6.3)."""

import json

import numpy as np
import pytest

from repro.core import (
    AnalysisStore,
    KernelDB,
    KernelRecord,
    Photon,
    load_analysis_store,
    load_kernel_db,
    save_analysis_store,
    save_kernel_db,
)
from repro.errors import SamplingError

from conftest import make_loop_kernel, make_vecadd


@pytest.fixture
def populated(tiny_gpu, fast_photon_config):
    store = AnalysisStore()
    sim = Photon(tiny_gpu, fast_photon_config, analysis_store=store)
    sim.simulate_kernel(make_vecadd(n_warps=16))
    sim.simulate_kernel(make_loop_kernel(n_warps=16, trips_of=lambda w: 3))
    return store, sim.kernel_db


def test_analysis_store_roundtrip(populated, tmp_path):
    store, _ = populated
    path = tmp_path / "store.json"
    save_analysis_store(store, path)
    loaded = load_analysis_store(path)
    assert len(loaded) == len(store) == 2
    for key, original in store._entries.items():
        restored = loaded._entries[key]
        assert restored.kernel_name == original.kernel_name
        assert restored.n_warps == original.n_warps
        assert restored.bb_share == original.bb_share
        assert restored.type_counts == original.type_counts
        assert restored.dominant_rate == original.dominant_rate
        assert np.allclose(restored.gpu_bbv, original.gpu_bbv)


def test_reloaded_store_serves_photon(populated, tiny_gpu,
                                      fast_photon_config, tmp_path):
    store, _ = populated
    path = tmp_path / "store.json"
    save_analysis_store(store, path)
    warm = load_analysis_store(path)
    sim = Photon(tiny_gpu, fast_photon_config, analysis_store=warm)
    sim.simulate_kernel(make_vecadd(n_warps=16))
    assert warm.hits == 1 and warm.misses == 0


def test_kernel_db_roundtrip(populated, tmp_path):
    _, db = populated
    path = tmp_path / "db.json"
    save_kernel_db(db, path)
    loaded = load_kernel_db(path)
    assert len(loaded) == len(db)
    assert loaded.distance_threshold == db.distance_threshold
    assert loaded.n_cu == db.n_cu
    for a, b in zip(db._records, loaded._records):
        assert a.name == b.name
        assert a.sim_time == b.sim_time
        assert np.allclose(a.gpu_bbv, b.gpu_bbv)


def test_reloaded_db_answers_lookups(populated, tmp_path):
    _, db = populated
    path = tmp_path / "db.json"
    save_kernel_db(db, path)
    loaded = load_kernel_db(path)
    record = db._records[0]
    prediction = loaded.lookup(record.gpu_bbv, record.n_warps,
                               record.sample_insts)
    assert prediction is not None
    assert prediction.matched.name == record.name


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(SamplingError):
        load_analysis_store(tmp_path / "nope.json")
    with pytest.raises(SamplingError):
        load_kernel_db(tmp_path / "nope.json")


def test_load_corrupt_file_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SamplingError):
        load_analysis_store(path)


def test_load_wrong_version_raises(tmp_path):
    path = tmp_path / "future.json"
    path.write_text(json.dumps({"version": 999, "entries": []}))
    with pytest.raises(SamplingError):
        load_analysis_store(path)


def test_empty_stores_roundtrip(tmp_path):
    store_path = tmp_path / "empty_store.json"
    save_analysis_store(AnalysisStore(), store_path)
    assert len(load_analysis_store(store_path)) == 0
    db_path = tmp_path / "empty_db.json"
    save_kernel_db(KernelDB(0.1, 8), db_path)
    assert len(load_kernel_db(db_path)) == 0


# -- format v2 hardening ------------------------------------------------------

def test_saved_payload_carries_valid_checksum(populated, tmp_path):
    from repro.durable import payload_checksum

    store, _ = populated
    path = tmp_path / "store.json"
    save_analysis_store(store, path)
    payload = json.loads(path.read_text())
    assert payload["version"] == 3
    assert all(isinstance(e["key"], str) for e in payload["entries"])
    assert payload["checksum"] == payload_checksum(payload)


def test_checksum_is_order_independent():
    from repro.durable import payload_checksum

    a = {"version": 2, "entries": [1, 2], "n": 3}
    b = {"n": 3, "entries": [1, 2], "version": 2}
    assert payload_checksum(a) == payload_checksum(b)


def test_tampered_payload_rejected(populated, tmp_path):
    store, _ = populated
    path = tmp_path / "store.json"
    save_analysis_store(store, path)
    payload = json.loads(path.read_text())
    payload["entries"][0]["n_warps"] += 1  # silent bit flip
    path.write_text(json.dumps(payload))
    with pytest.raises(SamplingError, match="checksum"):
        load_analysis_store(path)


def test_corrupt_entry_quarantined_not_fatal(populated, tmp_path):
    from repro.durable import payload_checksum

    store, _ = populated
    path = tmp_path / "store.json"
    save_analysis_store(store, path)
    payload = json.loads(path.read_text())
    del payload["entries"][0]["bb_share"]  # break one entry only
    del payload["checksum"]
    payload["checksum"] = payload_checksum(payload)
    path.write_text(json.dumps(payload))
    loaded = load_analysis_store(path)
    assert loaded.quarantined == 1
    assert len(loaded) == len(store) - 1  # the healthy entry survives


def test_corrupt_db_record_quarantined(populated, tmp_path):
    from repro.durable import payload_checksum

    _, db = populated
    path = tmp_path / "db.json"
    save_kernel_db(db, path)
    payload = json.loads(path.read_text())
    payload["records"][0]["sim_time"] = "not-a-number"
    del payload["checksum"]
    payload["checksum"] = payload_checksum(payload)
    path.write_text(json.dumps(payload))
    loaded = load_kernel_db(path)
    assert loaded.quarantined == 1
    assert len(loaded) == len(db) - 1


def test_version1_files_still_load(populated, tmp_path):
    """Backwards compatibility: a v1 kernel db has no checksum and must
    not need one (kernel-db payloads are unchanged since v2)."""
    _, db = populated
    path = tmp_path / "db.json"
    save_kernel_db(db, path)
    payload = json.loads(path.read_text())
    assert payload["version"] == 2
    payload["version"] = 1
    del payload["checksum"]
    path.write_text(json.dumps(payload))
    loaded = load_kernel_db(path)
    assert len(loaded) == len(db)


@pytest.mark.parametrize("version", [1, 2])
def test_pre_v3_analysis_stores_refused(populated, tmp_path, version):
    """v1 / v2 keys were a process-local hash that ignored launch
    arguments: such a store is refused, not trusted."""
    from repro.durable import payload_checksum

    store, _ = populated
    path = tmp_path / "store.json"
    save_analysis_store(store, path)
    payload = json.loads(path.read_text())
    payload["version"] = version
    del payload["checksum"]
    if version == 2:
        payload["checksum"] = payload_checksum(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(SamplingError, match="process-local.*re-analyse"):
        load_analysis_store(path)


def test_save_is_atomic_no_tmp_left_behind(populated, tmp_path):
    store, db = populated
    store_path = tmp_path / "store.json"
    db_path = tmp_path / "db.json"
    save_analysis_store(store, store_path)
    save_kernel_db(db, db_path)
    leftovers = [p.name for p in tmp_path.iterdir()
                 if p.name.endswith(".tmp")]
    assert leftovers == []


def test_save_overwrites_existing_file(populated, tmp_path):
    store, _ = populated
    path = tmp_path / "store.json"
    save_analysis_store(AnalysisStore(), path)
    save_analysis_store(store, path)  # os.replace over the old file
    assert len(load_analysis_store(path)) == len(store)


def test_non_object_payload_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(SamplingError):
        load_analysis_store(path)


def test_kernel_db_public_records_accessor(populated):
    _, db = populated
    records = db.records()
    assert len(records) == len(db)
    records.clear()  # a copy: mutating it must not touch the db
    assert len(db) > 0
