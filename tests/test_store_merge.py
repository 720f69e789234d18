"""Folding staged online analyses into the trace store: the
determinism-critical half of sharing analyses across sweep tasks
(overlap, conflicts, task order, the record codec)."""

import json

import numpy as np
import pytest

from repro.core import AnalysisStore, Photon
from repro.core.online import OnlineAnalysis
from repro.tracestore import TraceStore

from conftest import make_loop_kernel, make_vecadd


def _analysis(name="k", n_warps=8, rate=0.5, bbv=(1.0, 2.0)):
    return OnlineAnalysis(
        kernel_name=name, n_warps=n_warps, sample_warp_ids=[0, 4],
        sample_insts=100, mean_insts_per_warp=12.5,
        bb_share={40: 0.25, 0: 0.75}, type_counts={0: 2},
        type_bb_seq={0: (0, 40)}, type_insts={0: 100},
        dominant_type=0, dominant_rate=rate,
        gpu_bbv=np.array(bbv),
    )


KERNEL = make_vecadd(n_warps=8)
A, B = "a" * 64, "b" * 64


def _stage(root, index, akey, analysis):
    TraceStore(root).stage(index).put_analysis(KERNEL, akey,
                                               analysis.to_record())


def _stored(root, akey):
    record = TraceStore(root).get_analysis(KERNEL, akey)
    return None if record is None else OnlineAnalysis.from_record(record,
                                                                  "k")


def test_merge_disjoint_stores_adds_everything(tmp_path):
    _stage(tmp_path, 0, A, _analysis(rate=0.1))
    _stage(tmp_path, 1, B, _analysis(rate=0.2))
    assert _stored(tmp_path, A) is None   # staged writes are not read
    TraceStore(tmp_path).merge_staged()
    assert _stored(tmp_path, A).dominant_rate == 0.1
    assert _stored(tmp_path, B).dominant_rate == 0.2
    assert not (tmp_path / "staging").exists()


def test_merge_overlapping_identical_entries_dedupes(tmp_path):
    """Two staged tasks that write one analysis leave one entry."""
    _stage(tmp_path, 0, A, _analysis())
    _stage(tmp_path, 1, A, _analysis())
    TraceStore(tmp_path).merge_staged()
    assert len(list(tmp_path.glob("*.ana"))) == 1
    assert _stored(tmp_path, A).to_record() == _analysis().to_record()


def test_merge_conflict_keep_prefers_existing(tmp_path):
    """An intact canonical entry is never replaced by a staged one."""
    TraceStore(tmp_path).put_analysis(KERNEL, A, _analysis(rate=0.1)
                                      .to_record())
    _stage(tmp_path, 0, A, _analysis(rate=0.9))
    TraceStore(tmp_path).merge_staged()
    assert _stored(tmp_path, A).dominant_rate == 0.1


def test_merge_replaces_a_corrupt_entry(tmp_path):
    TraceStore(tmp_path).put_analysis(KERNEL, A, _analysis().to_record())
    (entry,) = tmp_path.glob("*.ana")
    entry.write_bytes(entry.read_bytes()[:-9])   # torn
    _stage(tmp_path, 0, A, _analysis(rate=0.7))
    TraceStore(tmp_path).merge_staged()
    assert _stored(tmp_path, A).dominant_rate == 0.7


def test_merge_is_deterministic_in_task_order(tmp_path):
    """The lowest task index wins, whatever order tasks wrote in."""
    roots = [tmp_path / "one", tmp_path / "two"]
    for root, order in zip(roots, ((2, 0, 1), (0, 1, 2))):
        for index in order:
            _stage(root, index, A, _analysis(rate=0.1 * (index + 1)))
        TraceStore(root).merge_staged()
    assert _stored(roots[0], A).dominant_rate == 0.1
    assert [p.read_bytes() for p in roots[0].glob("*.ana")] == \
        [p.read_bytes() for p in roots[1].glob("*.ana")]


def test_analysis_store_payload_roundtrip(tiny_gpu, fast_photon_config):
    """A real analysis survives the record codec through JSON."""
    store = AnalysisStore()
    sim = Photon(tiny_gpu, fast_photon_config, analysis_store=store)
    sim.simulate_kernel(make_vecadd(n_warps=16))
    sim.simulate_kernel(make_loop_kernel(n_warps=16))
    assert len(store) == 2
    for analysis in store._entries.values():
        record = json.loads(json.dumps(analysis.to_record()))
        restored = OnlineAnalysis.from_record(record, analysis.kernel_name)
        assert restored.to_record() == analysis.to_record()
        assert restored.gpu_bbv.tobytes() == analysis.gpu_bbv.tobytes()
    # dict order survives: the detectors sum shares in iteration order
    assert list(OnlineAnalysis.from_record(
        _analysis().to_record(), "k").bb_share) == [40, 0]


def test_analysis_store_payload_rejects_garbage():
    with pytest.raises((KeyError, TypeError, ValueError)):
        OnlineAnalysis.from_record({"not": "an analysis"}, "k")
