"""AnalysisStore / KernelDB merging: the determinism-critical half of
the parallel engine (overlap, conflicts, quarantine, payload codecs)."""

import numpy as np
import pytest

from repro.core import AnalysisStore, KernelDB, KernelRecord, Photon
from repro.core.kerneldb import MergeStats
from repro.core.online import OnlineAnalysis
from repro.core.persist import (
    analysis_store_from_payload,
    analysis_store_payload,
    kernel_db_from_payload,
    kernel_db_payload,
)
from repro.errors import SamplingError

from conftest import make_loop_kernel, make_vecadd


def _analysis(name="k", n_warps=8, rate=0.5, bbv=(1.0, 2.0)):
    return OnlineAnalysis(
        kernel_name=name, n_warps=n_warps, sample_warp_ids=[0, 4],
        sample_insts=100, mean_insts_per_warp=12.5,
        bb_share={0: 0.75, 40: 0.25}, type_counts={0: 2},
        type_bb_seq={0: (0, 40)}, type_insts={0: 100},
        dominant_type=0, dominant_rate=rate,
        gpu_bbv=np.array(bbv),
    )


def _store(entries):
    store = AnalysisStore()
    for key, analysis in entries:
        store.insert(key, analysis)
    return store


def _record(name="k", n_warps=8, sim_time=10.0, bbv=(1.0, 0.0)):
    return KernelRecord(name=name, gpu_bbv=np.array(bbv),
                        n_warps=n_warps, total_insts=1000.0,
                        sample_insts=100, sim_time=sim_time)


KEY_A = ("fp-a", 8, 2)
KEY_B = ("fp-b", 16, 2)


# ------------------------------------------------- AnalysisStore.merge


def test_merge_disjoint_stores_adds_everything():
    target = _store([(KEY_A, _analysis("a"))])
    stats = target.merge(_store([(KEY_B, _analysis("b", n_warps=16))]))
    assert stats.to_dict() == {"added": 1, "duplicates": 0,
                               "conflicts": 0}
    assert len(target) == 2


def test_merge_overlapping_identical_entries_dedupes():
    # two workers analysed the same kernel -> byte-identical entries
    target = _store([(KEY_A, _analysis("a"))])
    stats = target.merge(_store([(KEY_A, _analysis("a")),
                                 (KEY_B, _analysis("b", n_warps=16))]))
    assert stats.added == 1 and stats.duplicates == 1
    assert stats.conflicts == 0
    assert len(target) == 2


def test_merge_conflict_keep_prefers_existing():
    mine = _analysis("a", rate=0.5)
    theirs = _analysis("a", rate=0.9)
    target = _store([(KEY_A, mine)])
    stats = target.merge(_store([(KEY_A, theirs)]))
    assert stats.conflicts == 1
    assert dict(target.items())[KEY_A].dominant_rate == 0.5


def test_merge_carries_quarantine_not_traffic_counters():
    target = _store([(KEY_A, _analysis("a"))])
    target.hits, target.misses = 3, 1
    other = _store([(KEY_B, _analysis("b", n_warps=16))])
    other.quarantined = 2
    other.hits = 99  # must NOT leak into the target
    target.merge(other)
    assert target.quarantined == 2
    assert (target.hits, target.misses) == (3, 1)


def test_merge_conflict_detects_gpu_bbv_difference():
    # scalar fields equal, only the numpy vector differs
    target = _store([(KEY_A, _analysis("a", bbv=(1.0, 2.0)))])
    stats = target.merge(_store([(KEY_A, _analysis("a", bbv=(1.0, 3.0)))]))
    assert stats.conflicts == 1


def test_merge_is_deterministic_in_task_order():
    """keep-mode merging in a fixed order gives one canonical result."""
    parts = [_store([(KEY_A, _analysis("a", rate=r))])
             for r in (0.1, 0.2, 0.3)]
    first = AnalysisStore()
    for part in parts:
        first.merge(part)
    again = AnalysisStore()
    for part in parts:
        again.merge(part)
    assert (dict(first.items())[KEY_A].dominant_rate
            == dict(again.items())[KEY_A].dominant_rate == 0.1)


# ----------------------------------------------------- KernelDB.merge


def test_kerneldb_merge_appends_and_dedupes():
    db = KernelDB(0.25, 4)
    db.add(_record("a"))
    other = KernelDB(0.25, 4)
    other.add(_record("a"))              # exact duplicate
    other.add(_record("b", sim_time=20.0))
    stats = db.merge(other)
    assert isinstance(stats, MergeStats)
    assert stats.added == 1 and stats.duplicates == 1
    assert [r.name for r in db.records()] == ["a", "b"]


def test_kerneldb_merge_rejects_parameter_mismatch():
    with pytest.raises(SamplingError, match="different parameters"):
        KernelDB(0.25, 4).merge(KernelDB(0.5, 4))
    with pytest.raises(SamplingError, match="different parameters"):
        KernelDB(0.25, 4).merge(KernelDB(0.25, 8))


def test_kerneldb_merge_same_name_different_content_is_added():
    # same kernel name but different measurements: both are real records
    db = KernelDB(0.25, 4)
    db.add(_record("a", sim_time=10.0))
    stats = db.merge(_db_with(_record("a", sim_time=12.0)))
    assert stats.added == 1
    assert len(db) == 2


def _db_with(*records):
    db = KernelDB(0.25, 4)
    for record in records:
        db.add(record)
    return db


def test_kerneldb_merge_carries_quarantine():
    db = KernelDB(0.25, 4)
    other = KernelDB(0.25, 4)
    other.quarantined = 3
    db.merge(other)
    assert db.quarantined == 3


# ------------------------------------------------------ payload codecs


def test_analysis_store_payload_roundtrip(tiny_gpu, fast_photon_config):
    store = AnalysisStore()
    sim = Photon(tiny_gpu, fast_photon_config, analysis_store=store)
    sim.simulate_kernel(make_vecadd(n_warps=16))
    sim.simulate_kernel(make_loop_kernel(n_warps=16))
    restored = analysis_store_from_payload(analysis_store_payload(store))
    assert len(restored) == len(store) == 2
    merged = AnalysisStore()
    stats = merged.merge(store)
    stats.update(merged.merge(restored))
    # a round-tripped store is pure duplicates of the original
    assert stats.added == 2 and stats.duplicates == 2
    assert stats.conflicts == 0


def test_kernel_db_payload_roundtrip(tiny_gpu, fast_photon_config):
    sim = Photon(tiny_gpu, fast_photon_config)
    sim.simulate_kernel(make_vecadd(n_warps=16))
    db = sim.kernel_db
    restored = kernel_db_from_payload(kernel_db_payload(db))
    assert restored.distance_threshold == db.distance_threshold
    assert restored.n_cu == db.n_cu
    stats = db.merge(restored)
    assert stats.added == 0 and stats.duplicates == len(restored)


def test_analysis_store_payload_rejects_garbage():
    with pytest.raises(SamplingError):
        analysis_store_from_payload({"not": "a store"})
